"""Binary I/Q file round trips and sidecar validation."""

from __future__ import annotations

import errno
import json
import os
import re
from pathlib import Path

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
        '{"sample_rate_hz": 0, "n_samples": 10}',
    ],
    ids=["malformed", "not-object", "no-rate", "rate-text", "rate-nan", "count-fraction",
         "count-text", "rate-zero"],
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
        """A buffer mapped from a file can be written back over that very
        path: the new file is renamed over the old one, whose pages the
        map keeps, so the file keeps its bytes."""
        buf = _buf(n=300_000)
        path = tmp_path / "a.iq"
        write_iq(buf, path)
        original = path.read_bytes()
        write_iq(read_iq(path), path)
        assert path.read_bytes() == original

    def test_a_map_keeps_its_samples_when_its_path_is_rewritten(self, tmp_path):
        """Writing different samples of the same length to a mapped path
        replaces the file; the live map still shows the old samples."""
        old, new = _buf(n=5000, seed=1), _buf(n=5000, seed=2)
        path = tmp_path / "a.iq"
        write_iq(old, path)
        mapped = read_iq(path)
        write_iq(new, path)
        assert_array_equal(mapped.samples.view(np.uint32), old.samples.view(np.uint32))
        assert_array_equal(read_iq(path).samples.view(np.uint32), new.samples.view(np.uint32))

    def test_failed_rename_leaves_the_old_file(self, tmp_path, monkeypatch):
        """If the rename fails, the error propagates, the old file and its
        sidecar keep their bytes, and no part file is left behind."""
        path = tmp_path / "a.iq"
        write_iq(_buf(n=1000, fs=5e6, seed=1), path)
        data, side = path.read_bytes(), sidecar_path(path).read_bytes()

        def no_rename(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError, match="rename refused"):
            write_iq(_buf(n=1000, fs=10e6, seed=2), path)
        assert path.read_bytes() == data
        assert sidecar_path(path).read_bytes() == side
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.iq", "a.iq.json"]

    def test_failed_sidecar_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        """If the sidecar runs out of disk halfway, the error propagates,
        the new samples do not land beside the old sidecar, both old files
        keep their bytes and no part file is left behind."""
        path = tmp_path / "a.iq"
        write_iq(_buf(n=1000, fs=5e6, seed=1), path)
        data, side = path.read_bytes(), sidecar_path(path).read_bytes()
        write_text = Path.write_text

        def full_disk(self, text, *args, **kwargs):
            write_text(self, text[:5], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full_disk)
        with pytest.raises(OSError, match="No space left"):
            write_iq(_buf(n=2000, fs=10e6, seed=2), path)
        assert path.read_bytes() == data
        assert sidecar_path(path).read_bytes() == side
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.iq", "a.iq.json"]
        assert len(read_iq(path)) == 1000

    @pytest.mark.parametrize("existed", [True, False], ids=["over-old-pair", "fresh-path"])
    def test_failed_second_rename_leaves_the_old_pair(self, tmp_path, monkeypatch, existed):
        """If the sidecar's rename fails after the samples' rename, the
        error propagates and the samples are put back: an old pair keeps
        its bytes, a fresh path stays absent, and no part or link file is
        left behind."""
        path = tmp_path / "a.iq"
        before = {}
        if existed:
            write_iq(_buf(n=1000, fs=5e6, seed=1), path)
            before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        replace, calls = os.replace, []

        def second_rename_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("rename refused")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", second_rename_fails)
        with pytest.raises(OSError, match="rename refused"):
            write_iq(_buf(n=2000, fs=10e6, seed=2), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        if existed:
            assert len(read_iq(path)) == 1000

    def test_failed_undo_keeps_the_old_file_linked(self, tmp_path, monkeypatch):
        """If putting the old samples back fails too, the error propagates
        and the old samples stay, byte for byte, under their link."""
        path = tmp_path / "a.iq"
        write_iq(_buf(n=1000, fs=5e6, seed=1), path)
        data = path.read_bytes()
        replace, calls = os.replace, []

        def later_renames_fail(src, dst):
            calls.append(dst)
            if len(calls) >= 2:
                raise OSError("rename refused")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", later_renames_fail)
        with pytest.raises(OSError, match="rename refused"):
            write_iq(_buf(n=2000, fs=10e6, seed=2), path)
        assert (tmp_path / f".a.iq.{os.getpid()}.0.old").read_bytes() == data
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".part")]

    def test_without_hard_links_the_pair_still_lands(self, tmp_path, monkeypatch):
        """Where an old file cannot be linked, the new pair lands as before,
        with no part or link file left behind."""
        path = tmp_path / "a.iq"
        write_iq(_buf(n=1000, fs=5e6, seed=1), path)

        def no_link(src, dst, **kwargs):
            raise OSError(errno.EPERM, "Operation not permitted")

        monkeypatch.setattr(os, "link", no_link)
        new = _buf(n=2000, fs=10e6, seed=2)
        write_iq(new, path)
        back = read_iq(path)
        assert_array_equal(back.samples.view(np.uint64), new.samples.view(np.uint64))
        assert back.sample_rate_hz == 10e6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.iq", "a.iq.json"]

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
