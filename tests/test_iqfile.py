"""Binary I/Q file round trips and sidecar validation."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from aphdpd import ConfigurationError, IqBuffer, read_iq, write_iq
from aphdpd.iqfile import sidecar_path


def _buf(n=257, fs=61.44e6, seed=1):
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)
    return IqBuffer(x, fs)


def _write_sidecar(path, rate, n_samples):
    """Give a payload written by hand the sidecar `write_iq` writes."""
    sidecar_path(path).write_text(json.dumps({"sample_rate_hz": rate, "n_samples": n_samples}))


def test_round_trip_bits(tmp_path):
    buf = _buf()
    path = tmp_path / "a.iq"
    write_iq(buf, path)
    back = read_iq(path)
    assert_array_equal(back.samples.view(np.float32), buf.samples.view(np.float32))
    assert back.sample_rate_hz == buf.sample_rate_hz


def test_round_trip_every_bit_pattern(tmp_path):
    """Random float32 bit patterns (signed zeros and subnormals included)
    round-trip bit-exactly. Patterns that are NaN or infinite, payloads
    included, are kept in the file but rejected on reading, since a buffer
    holds finite samples only."""
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**32, size=2 * 4096, dtype=np.uint64).astype(np.uint32)
    bits[:4] = [0x00000000, 0x80000000, 0x00000001, 0x807FFFFF]
    values = bits.view(np.float32)
    finite = np.isfinite(values[0::2]) & np.isfinite(values[1::2])
    samples = values.view(np.complex64)
    path = tmp_path / "a.iq"
    write_iq(IqBuffer(samples[finite], 1e6), path)
    back = read_iq(path)
    assert_array_equal(back.samples.view(np.uint32), samples[finite].view(np.uint32))

    nan_payload = np.array([0.5, 0.25, 1.0, 2.0], dtype=np.float32)
    nan_payload.view(np.uint32)[1] = 0x7FC01234
    nan_path = tmp_path / "nan.iq"
    nan_payload.tofile(nan_path)
    _write_sidecar(nan_path, 1e6, 2)
    with pytest.raises(ConfigurationError, match="finite"):
        read_iq(nan_path)


def test_interleaved_float32_layout(tmp_path):
    buf = _buf(n=5)
    path = tmp_path / "a.iq"
    write_iq(buf, path)
    raw = np.fromfile(path, dtype="<f4")
    assert raw.size == 10
    assert_array_equal(raw[0::2], buf.samples.real)
    assert_array_equal(raw[1::2], buf.samples.imag)


def test_file_size_is_8_bytes_per_sample(tmp_path):
    path = tmp_path / "a.iq"
    write_iq(_buf(n=1000), path)
    assert path.stat().st_size == 8000


def test_sidecar_contents(tmp_path):
    path = tmp_path / "a.iq"
    write_iq(_buf(n=42, fs=10e6), path)
    doc = json.loads(sidecar_path(path).read_text())
    assert doc == {"sample_rate_hz": 10e6, "n_samples": 42}


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "a.iq"
    write_iq(_buf(n=10), path)
    with open(path, "r+b") as fh:
        fh.truncate(77)  # not a multiple of 8
    with pytest.raises(ConfigurationError):
        read_iq(path)


def test_sidecar_count_mismatch_rejected(tmp_path):
    path = tmp_path / "a.iq"
    write_iq(_buf(n=10), path)
    side = sidecar_path(path)
    doc = json.loads(side.read_text())
    doc["n_samples"] = 11
    side.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError):
        read_iq(path)


def test_missing_sidecar_rejected(tmp_path):
    path = tmp_path / "a.iq"
    write_iq(_buf(), path)
    sidecar_path(path).unlink()
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: no sidecar JSON$"):
        read_iq(path)


@pytest.mark.parametrize(
    "sidecar",
    [
        "{not json",
        "[1, 2]",
        '{"n_samples": 10}',
        '{"sample_rate_hz": "fast", "n_samples": 10}',
        '{"sample_rate_hz": NaN, "n_samples": 10}',
        '{"sample_rate_hz": 5e6, "n_samples": 10.5}',
        '{"sample_rate_hz": 5e6, "n_samples": "10"}',
    ],
    ids=["malformed", "not-object", "no-rate", "rate-text", "rate-nan", "count-fraction",
         "count-text"],
)
def test_malformed_sidecar_is_configuration_error(tmp_path, sidecar):
    path = tmp_path / "a.iq"
    write_iq(_buf(n=10, fs=5e6), path)
    sidecar_path(path).write_text(sidecar)
    with pytest.raises(ConfigurationError, match="a.iq.json"):
        read_iq(path)


class TestMappedRead:
    """read_iq maps the file read-only: the samples are the file's pages."""

    def test_samples_are_a_read_only_view_of_the_file(self, tmp_path):
        buf = _buf(n=1000)
        path = tmp_path / "a.iq"
        write_iq(buf, path)
        back = read_iq(path)
        assert not back.samples.flags.writeable
        with pytest.raises(ValueError):
            back.samples[0] = 0
        # No copy: a change written to the file in place shows in the samples.
        new = np.complex64(0.5 - 0.25j)
        with open(path, "r+b") as fh:
            fh.seek(8 * 700)
            fh.write(new.tobytes())
        assert back.samples[700] == new
        assert_array_equal(back.samples[:700], buf.samples[:700])

    def test_writing_a_mapped_buffer_over_its_own_file(self, tmp_path):
        """Writing truncates the file first; a buffer mapped from that very
        file is copied before, so the file keeps its bytes."""
        buf = _buf(n=300_000)
        path = tmp_path / "a.iq"
        write_iq(buf, path)
        original = path.read_bytes()
        write_iq(read_iq(path), path)
        assert path.read_bytes() == original

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_in_a_mapped_file_is_rejected(self, tmp_path, bad):
        """One bad value past the first finiteness block still fails the
        read, and the error starts with the file's path, as every other
        read error does."""
        samples = np.full(3 * 65536 + 11, 0.25 - 0.5j, dtype=np.complex64)
        samples[2 * 65536 + 5] = complex(0.0, bad)
        path = tmp_path / "bad.iq"
        samples.tofile(path)
        _write_sidecar(path, 1e6, samples.size)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: .*finite"):
            read_iq(path)

    def test_zero_sample_file(self, tmp_path):
        """An empty file cannot be mapped; it reads as an empty buffer at
        its sidecar's rate, whether the sidecar gives the count or not."""
        path = tmp_path / "empty.iq"
        write_iq(IqBuffer(np.empty(0, np.complex64), 2e6), path)
        back = read_iq(path)
        assert len(back) == 0 and back.sample_rate_hz == 2e6
        bare = tmp_path / "bare.iq"
        bare.write_bytes(b"")
        with pytest.raises(ConfigurationError, match="no sidecar"):
            read_iq(bare)
        sidecar_path(bare).write_text('{"sample_rate_hz": 3e6}')
        back = read_iq(bare)
        assert len(back) == 0 and back.sample_rate_hz == 3e6
