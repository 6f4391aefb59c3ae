"""Branch polynomial basis: construction, fitting, evaluation, and the
normal equations of the regression matrix.

The orthogonal-fit checks compare against a from-scratch Gram-Schmidt
orthonormalization (tests/conftest.py) rather than against the package's
own Cholesky construction, and the normal equations against the dense
regression matrix that tests/conftest.py builds column by column.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aphdpd import (
    AphConfig,
    BranchSets,
    ConditioningError,
    ConfigurationError,
    InsufficientDataError,
    IqBuffer,
    PolyBasis,
    build_normal_equations,
    evaluate_branches,
    fit_orthogonal_basis,
    parse_experiment_config,
)
from aphdpd.basis import _lower_triangular_inverse
from aphdpd.config import _BASIS_FIT_SEED_OFFSET, _basis_from_json, _basis_to_json
from conftest import gram_schmidt_basis_rows, reference_basis_matrix

TABLE_SETS = BranchSets.odd_orders_up_to(5, 3)
SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "single_carrier.json"


def _training_buffer(n=4000, seed=2, rms=0.2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x *= rms / np.sqrt(np.mean(np.abs(x) ** 2))
    return IqBuffer(x.astype(np.complex64), 61.44e6)


class TestBranchSets:
    def test_odd_orders_up_to(self):
        assert TABLE_SETS.main_orders == (1, 3, 5)
        assert TABLE_SETS.conj_orders == (1, 3)
        assert TABLE_SETS.n_branches == 5

    @pytest.mark.parametrize(
        "main,conj",
        [((1, 2), (1,)), ((3, 1), (1,)), ((1, 3), (1, 3, 5)), ((), (1,)), ((1, 1), (1,))],
    )
    def test_invalid_sets_rejected(self, main, conj):
        with pytest.raises(ConfigurationError):
            BranchSets(main, conj)

    @pytest.mark.parametrize(
        "main,conj",
        [((1, 3.7), (1,)), ((1, 3.0), (1,)), ((1,), (1.0,)), ((1, True), (1,))],
        ids=["fraction", "integral-float", "conj-float", "bool"],
    )
    def test_non_integral_orders_rejected(self, main, conj):
        """A float or a bool order is an error, never truncated to an int."""
        with pytest.raises(ConfigurationError, match="must hold integers"):
            BranchSets(main, conj)

    def test_numpy_integer_orders_accepted(self):
        sets = BranchSets(np.array([1, 3, 5]), (np.int32(1), np.int64(3)))
        assert sets == TABLE_SETS
        assert all(type(m) is int for m in (*sets.main_orders, *sets.conj_orders))


class TestPolyBasis:
    def test_plain_is_identity_table(self):
        basis = PolyBasis.plain(TABLE_SETS)
        assert basis.mode == "plain"
        for order, row in basis.u_main.items():
            assert row[-1] == 1.0
            assert np.all(row[:-1] == 0.0)

    def test_zero_diagonal_rejected(self):
        sets = BranchSets((1, 3), (1,))
        with pytest.raises(ConfigurationError):
            PolyBasis("plain", sets, {1: [1.0], 3: [0.5, 0.0]}, {1: [1.0]})

    def test_json_round_trip(self):
        basis = fit_orthogonal_basis(_training_buffer(), TABLE_SETS)
        doc = json.loads(json.dumps(_basis_to_json(basis)))
        back = _basis_from_json(doc)
        assert back.mode == basis.mode
        assert back.sets == basis.sets
        for order in TABLE_SETS.main_orders:
            assert_allclose(back.u_main[order], basis.u_main[order], rtol=0, atol=0)

    def test_json_rejects_complex_coefficients(self):
        doc = _basis_to_json(PolyBasis.plain(TABLE_SETS))
        doc["u_main"][0][0] = [1.0, 0.5]
        with pytest.raises(ConfigurationError):
            _basis_from_json(doc)


class TestEvaluateBranch:
    """`evaluate_branches` returns one row per branch: main orders
    ascending, then conjugate orders ascending."""

    def test_plain_monomial_p5(self):
        basis = PolyBasis.plain(TABLE_SETS)
        assert evaluate_branches(2 + 0j, basis)[2] == pytest.approx(32 + 0j)

    def test_plain_conjugate_q3(self):
        basis = PolyBasis.plain(TABLE_SETS)
        assert evaluate_branches(1j, basis)[4] == pytest.approx(0 - 1j)

    def test_linear_in_u_table(self, rng):
        """Scaling one coefficient row scales that branch's output only."""
        sets = BranchSets((1, 3), (1,))
        x = rng.normal(size=50) + 1j * rng.normal(size=50)
        base = PolyBasis("orthogonal", sets, {1: [2.0], 3: [0.3, 1.5]}, {1: [1.0]})
        doubled = PolyBasis("orthogonal", sets, {1: [2.0], 3: [0.6, 3.0]}, {1: [1.0]})
        got, want = evaluate_branches(x, doubled), evaluate_branches(x, base)
        assert got.shape == (3, 50)
        assert_allclose(got[1], 2.0 * want[1], rtol=1e-12)
        assert_allclose(got[[0, 2]], want[[0, 2]], rtol=0, atol=0)

    def test_orthogonal_matches_gram_schmidt_oracle(self):
        training = _training_buffer(seed=8)
        basis = fit_orthogonal_basis(training, TABLE_SETS)
        oracle = gram_schmidt_basis_rows(training.samples.astype(np.complex128), (1, 3, 5))
        probe = np.array([0.05 + 0.02j, 0.1 - 0.3j, 0.25 + 0.2j, -0.15 + 0.05j])
        mag = np.abs(probe)
        rows = evaluate_branches(probe, basis)
        for row, order in enumerate((1, 3, 5)):
            members = [m for m in (1, 3, 5) if m <= order]
            want = np.zeros_like(probe)
            for u, m in zip(oracle[order], members):
                want += u * mag ** (m - 1) * probe
            assert_allclose(rows[row], want, rtol=1e-5)


class TestFitOrthogonalBasis:
    def test_needs_10x_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_orthogonal_basis(_training_buffer(n=49), TABLE_SETS)

    def test_constant_modulus_degenerates(self):
        phase = np.exp(2j * np.pi * np.linspace(0, 1, 500, endpoint=False))
        buf = IqBuffer(phase.astype(np.complex64), 1e6)
        with pytest.raises(ConditioningError) as exc_info:
            fit_orthogonal_basis(buf, TABLE_SETS)
        assert exc_info.value.condition_estimate is not None

    def test_all_zero_training_degenerates(self):
        """A zero moment diagonal cannot be scaled away: the fit is refused
        with an infinite condition, not a division warning."""
        buf = IqBuffer(np.zeros(500, np.complex64), 1e6)
        with pytest.raises(ConditioningError, match="cond ~ inf"):
            fit_orthogonal_basis(buf, TABLE_SETS)

    def test_gram_is_identity_on_training_set(self):
        training = _training_buffer(n=6000, seed=13)
        basis = fit_orthogonal_basis(training, TABLE_SETS)
        x = training.samples.astype(np.complex128)
        rows = evaluate_branches(x, basis)
        for signals in (rows[:3], rows[3:]):  # main (1, 3, 5), conjugate (1, 3)
            k = len(signals)
            gram = np.empty((k, k), dtype=np.complex128)
            for i in range(k):
                for j in range(k):
                    gram[i, j] = np.mean(signals[i] * np.conj(signals[j]))
            norm = np.sqrt(np.abs(np.diag(gram)))
            gram /= np.outer(norm, norm)
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) < 1e-3


    @pytest.mark.parametrize("max_order", [11, 13])
    def test_high_orders_fit_the_shipped_stimulus(self, max_order):
        """The moment matrix's diagonal scaling tracks the drive level, not
        its conditioning: judged after removing it, orders to 13 fit on
        the shipped single-carrier basis-fit stimulus, and the branches
        decorrelate within criterion 8's bound."""
        doc = json.loads(SHIPPED_CONFIG.read_text())
        doc["dpd"].update(max_order_main=max_order, max_order_conj=max_order)
        cfg = parse_experiment_config(doc)
        wave = cfg.waveform_factory()
        training = wave(2 * cfg.training.n_training_samples, cfg.seed + _BASIS_FIT_SEED_OFFSET)
        basis = cfg.aph_config().basis
        rows = evaluate_branches(training.samples, basis)
        n_main = len(basis.sets.main_orders)
        for signals in (rows[:n_main], rows[n_main:]):
            corr = signals.conj() @ signals.T
            norm = np.sqrt(np.diag(corr).real)
            corr /= np.outer(norm, norm)
            assert np.max(np.abs(corr - np.diag(np.diag(corr)))) < 1e-3

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_lower_triangular_inverse(self, rng, k):
        chol = np.tril(rng.normal(size=(k, k)))
        chol[np.diag_indices(k)] = rng.uniform(0.1, 3.0, size=k)
        inv = _lower_triangular_inverse(chol)
        assert_allclose(inv @ chol, np.eye(k), atol=1e-12)
        assert np.all(np.triu(inv, 1) == 0.0)


class TestBuildBasisMatrix:
    """The dense regression matrix, built only by the test oracle
    `conftest.reference_basis_matrix`: these checks pin the oracle that the
    normal equations and the least-squares tests are measured against."""

    def test_hand_convolution_block(self):
        """y=[1,2,3], one linear branch with two taps: the block is the
        plain zero-padded convolution matrix."""
        sets = BranchSets((1,), (1,))
        cfg = AphConfig(sets, (2,), (1,), PolyBasis.plain(sets))
        a = reference_basis_matrix(np.array([1, 2, 3], dtype=np.complex64), cfg)
        expected_block = np.array([[1, 0], [2, 1], [3, 2], [0, 3]], dtype=np.complex128)
        assert a.shape == (4, 4)
        assert_allclose(a[:, :2], expected_block)
        assert_allclose(a[:, -1], np.ones(4))

    def test_table_config_shape(self):
        """26 columns over 1004 rows, each branch block starting at its
        `branch_slices` column with that branch's sequence."""
        cfg = AphConfig(TABLE_SETS, (5, 5, 5), (5, 5), PolyBasis.plain(TABLE_SETS))
        buf = _training_buffer(n=1000)
        a = reference_basis_matrix(buf.samples, cfg)
        assert a.shape == (1004, 26)
        rows = evaluate_branches(buf.samples, cfg.basis)
        for want, (_, _, cols) in zip(rows, cfg.branch_slices(), strict=True):
            assert_allclose(a[:1000, cols.start], want, rtol=1e-12)

    def test_toeplitz_within_blocks(self):
        cfg = AphConfig(TABLE_SETS, (5, 5, 5), (5, 5), PolyBasis.plain(TABLE_SETS))
        a = reference_basis_matrix(_training_buffer(n=200).samples, cfg)
        for _, _, cols in cfg.branch_slices():
            block = a[:, cols]
            for k in range(1, block.shape[1]):
                assert_allclose(block[1:, k], block[:-1, k - 1], rtol=0, atol=0)

    def test_conjugate_block_is_main_block_of_conjugate_input(self):
        sets = BranchSets((1, 3), (1, 3))
        cfg = AphConfig(sets, (3, 3), (3, 3), PolyBasis.plain(sets))
        x = _training_buffer(n=300, seed=21).samples
        a = reference_basis_matrix(x, cfg)
        a_conj_input = reference_basis_matrix(np.conj(x), cfg)
        # conj blocks occupy columns 6..11; main blocks 0..5
        assert_allclose(a[:, 6:12], a_conj_input[:, 0:6], rtol=0, atol=0)


class TestBuildNormalEquations:
    @pytest.mark.parametrize("mode", ["plain", "orthogonal"])
    @pytest.mark.parametrize(
        "sets, taps_main, taps_conj",
        [
            (BranchSets((1,), (1,)), (2,), (1,)),
            (TABLE_SETS, (3, 1, 4), (2, 5)),
        ],
    )
    def test_matches_dense_normal_equations(self, mode, sets, taps_main, taps_conj):
        buf = _training_buffer(n=3000, seed=31)
        basis = PolyBasis.plain(sets) if mode == "plain" else fit_orthogonal_basis(buf, sets)
        cfg = AphConfig(sets, taps_main, taps_conj, basis)
        rng = np.random.default_rng(32)
        z = rng.normal(size=len(buf)) + 1j * rng.normal(size=len(buf))
        a = reference_basis_matrix(buf.samples, cfg)
        b = np.concatenate([z, np.zeros(a.shape[0] - len(z))])
        ne = build_normal_equations(buf, z, cfg)

        gram = a.conj().T @ a
        rhs = a.conj().T @ b
        assert np.linalg.norm(ne.gram - gram) <= 1e-12 * np.linalg.norm(gram)
        assert np.linalg.norm(ne.rhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
        h = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
        assert ne.residual_norm(h) == pytest.approx(np.linalg.norm(a @ h - b), rel=1e-12)

        # The least-squares h on data that the model nearly fits: the
        # residual is about 1e-3 of ||b||, so ||A h - b||^2 is a small
        # difference of large terms.
        noise = rng.normal(size=a.shape[0]) + 1j * rng.normal(size=a.shape[0])
        near = a @ h + 1e-3 * np.linalg.norm(a @ h) / np.linalg.norm(noise) * noise
        ne = build_normal_equations(buf, near, cfg)
        h_ls = np.linalg.solve(ne.gram, ne.rhs)
        dense = np.linalg.norm(a @ h_ls - near)
        assert ne.residual_norm(h_ls) == pytest.approx(dense, rel=1e-6)

        # Exact data: the square cancels to rounding and can fall below
        # zero; the norm stays finite, >= 0 and tiny.
        exact = a @ h
        ne = build_normal_equations(buf, exact, cfg)
        residual = ne.residual_norm(np.linalg.solve(ne.gram, ne.rhs))
        assert np.isfinite(residual) and 0.0 <= residual <= 1e-6 * np.linalg.norm(exact)

    def test_short_buffer_rejected(self):
        cfg = AphConfig(TABLE_SETS, (5, 5, 5), (5, 5), PolyBasis.plain(TABLE_SETS))
        buf = IqBuffer(np.ones(4, np.complex64), 1e6)
        with pytest.raises(InsufficientDataError):
            build_normal_equations(buf, buf.samples, cfg)

    def test_target_longer_than_rows_rejected(self):
        """A shorter target is zero-padded to the n + l_max - 1 rows; a
        longer one cannot belong to the buffer."""
        cfg = AphConfig(TABLE_SETS, (5, 5, 5), (5, 5), PolyBasis.plain(TABLE_SETS))
        buf = _training_buffer(n=100)
        build_normal_equations(buf, np.ones(104), cfg)
        with pytest.raises(ConfigurationError):
            build_normal_equations(buf, np.ones(105), cfg)
