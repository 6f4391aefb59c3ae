"""Branch polynomial basis: construction, fitting, evaluation, and the
normal equations of the regression matrix.

The orthogonal-fit checks compare against a from-scratch Gram-Schmidt
orthonormalization (tests/conftest.py) rather than against the package's
own Cholesky construction, and the normal equations against the dense
regression matrix that tests/conftest.py builds column by column.
"""

from __future__ import annotations

import json
import re
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
    coefficients_from_json_dict,
    coefficients_to_json_dict,
    evaluate_branches,
    fit_orthogonal_basis,
    identity_coefficients,
    parse_experiment_config,
)
from aphdpd.basis import _NORMAL_BLOCK_LEN, ORTHOGONAL
from aphdpd.config import _BASIS_FIT_SEED_OFFSET
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

    @pytest.mark.parametrize(
        "main, conj, key, top",
        [
            (4, 1, "max_order_main", 4),
            (0, 1, "max_order_main", 0),
            (-3, 1, "max_order_main", -3),
            (129, 1, "max_order_main", 129),
            (5.0, 3, "max_order_main", 5.0),
            (5, True, "max_order_conj", True),
        ],
        ids=["even", "zero", "negative", "above-bound", "float", "bool"],
    )
    def test_odd_orders_up_to_refuses_a_bad_top(self, main, conj, key, top):
        """A top order is an odd integer from 1 to MAX_ORDER: an even one is
        not rounded down, nor a float or a bool read as an integer."""
        text = f"'{key}' must be an odd order from 1 to the order bound 127, got {top}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(text)}$"):
            BranchSets.odd_orders_up_to(main, conj)


_CFG = AphConfig.default()  # orders (1, 3, 5) / (1, 3), five taps per branch


def _config_fault(**dpd):
    doc = json.loads(SHIPPED_CONFIG.read_text())
    doc["dpd"].update(dpd)
    return lambda: parse_experiment_config(doc)


def _file_fault(edit):
    doc = coefficients_to_json_dict(identity_coefficients(_CFG), _CFG)
    edit(doc["layout"])
    return lambda: coefficients_from_json_dict(doc)


def _basis_fault(u_main=(), u_conj=()):
    """The plain basis of `_CFG` with the rows at the given branch
    indexes replaced."""
    plain = PolyBasis.plain(_CFG.sets)
    tables = [
        [dict(edits).get(i, row) for i, row in enumerate(rows)]
        for rows, edits in ((plain.u_main, u_main), (plain.u_conj, u_conj))
    ]
    return lambda: PolyBasis("plain", _CFG.sets, *tables)


class TestStructureRules:
    """Each structure rule is stated once in `basis` and run under the
    caller's keys, so the experiment config's `dpd` section, the coefficient
    file's `layout` and the dataclasses in code give one text per rule."""

    @pytest.mark.parametrize(
        "faults",
        [
            {
                "dpd.max_order_main": _config_fault(max_order_main=4),
                "max_order_main": lambda: BranchSets.odd_orders_up_to(4, 3),
            },
            {
                "layout.main_orders": _file_fault(lambda lay: lay.update(main_orders=[1, 3, 6])),
                "main_orders": lambda: BranchSets((1, 3, 6), (1, 3)),
            },
            {
                "layout.conj_orders": _file_fault(lambda lay: lay.update(conj_orders=[3, 1])),
                "conj_orders": lambda: BranchSets((1, 3, 5), (3, 1)),
            },
            {
                "layout.main_orders": _file_fault(
                    lambda lay: lay.update(main_orders=[1, 3, 129])
                ),
                "main_orders": lambda: BranchSets((1, 3, 129), (1, 3)),
            },
            {
                "layout.conj_orders": _file_fault(lambda lay: lay.update(conj_orders=[])),
                "conj_orders": lambda: BranchSets((1, 3, 5), ()),
            },
            {
                "dpd.max_order_conj": _config_fault(max_order_conj=7),
                "layout.conj_orders": _file_fault(
                    lambda lay: lay.update(conj_orders=[1, 3, 5, 7])
                ),
                "conj_orders": lambda: BranchSets((1, 3, 5), (1, 3, 5, 7)),
                "max_order_conj": lambda: BranchSets.odd_orders_up_to(5, 7),
            },
            {
                "dpd.taps_main": _config_fault(taps_main=[5, 5]),
                "layout.taps_main": _file_fault(lambda lay: lay.update(taps_main=[5, 5])),
                "taps_main": lambda: AphConfig(_CFG.sets, (5, 5), (5, 5), _CFG.basis),
            },
            {
                "dpd.taps_conj[1]": _config_fault(taps_conj=[5, 0]),
                "layout.taps_conj[1]": _file_fault(lambda lay: lay.update(taps_conj=[5, 0])),
                "taps_conj[1]": lambda: AphConfig(_CFG.sets, (5, 5, 5), (5, 0), _CFG.basis),
            },
            {
                "layout.basis.u_main[1]": _file_fault(
                    lambda lay: lay["basis"]["u_main"].__setitem__(1, [1.0])
                ),
                "u_main[1]": _basis_fault(u_main={1: [1.0]}),
            },
            {
                "layout.basis.u_conj[0]": _file_fault(
                    lambda lay: lay["basis"]["u_conj"].__setitem__(0, [0.0])
                ),
                "u_conj[0]": _basis_fault(u_conj={0: [0.0]}),
            },
        ],
        ids=[
            "top-order", "orders-odd", "orders-ascending", "orders-bound", "orders-empty",
            "conj-above-main", "taps-per-branch", "taps-at-least-1", "row-members",
            "row-diagonal",
        ],
    )
    def test_entry_points_agree(self, faults):
        """The message of each entry point is its key, quoted, then one text
        that is the same for all of them."""
        texts = set()
        for key, make in faults.items():
            with pytest.raises(ConfigurationError) as err:
                make()
            message = str(err.value)
            assert message.startswith(f"'{key}' ")
            texts.add(message.removeprefix(f"'{key}' "))
        assert len(texts) == 1, texts


class TestPolyBasis:
    def test_plain_is_identity_table(self):
        basis = PolyBasis.plain(TABLE_SETS)
        assert basis.mode == "plain"
        for row in basis.u_main:
            assert row[-1] == 1.0
            assert np.all(row[:-1] == 0.0)

    def test_rows_are_read_only_copies(self):
        """A validated basis keeps its rows: writing to the caller's rows
        afterwards changes none of them, and they cannot be written."""
        sets = BranchSets((1, 3), (1,))
        u_main, u_conj = [np.array([1.0]), np.array([0.5, 2.0])], [[1.0]]
        basis = PolyBasis("plain", sets, u_main, u_conj)
        u_main[1][1] = 0.0
        u_conj[0][0] = 0.0
        rows = (*basis.u_main, *basis.u_conj)
        assert [row.tolist() for row in rows] == [[1.0], [0.5, 2.0], [1.0]]
        assert not any(row.flags.writeable for row in rows)

    def test_zero_diagonal_rejected(self):
        sets = BranchSets((1, 3), (1,))
        with pytest.raises(ConfigurationError):
            PolyBasis("plain", sets, [[1.0], [0.5, 0.0]], [[1.0]])

    def test_json_rejects_complex_coefficients(self):
        """A basis entry is one real number; an [re, im] pair where a number
        belongs is refused, naming its key."""
        cfg = AphConfig.default()
        doc = coefficients_to_json_dict(identity_coefficients(cfg), cfg)
        doc["layout"]["basis"]["u_main"][0][0] = [1.0, 0.5]
        key = re.escape("'layout.basis.u_main[0][0]' must be a finite number")
        with pytest.raises(ConfigurationError, match=f"^{key}"):
            coefficients_from_json_dict(doc)


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
        base = PolyBasis("orthogonal", sets, [[2.0], [0.3, 1.5]], [[1.0]])
        doubled = PolyBasis("orthogonal", sets, [[2.0], [0.6, 3.0]], [[1.0]])
        got, want = evaluate_branches(x, doubled), evaluate_branches(x, base)
        assert got.shape == (3, 50)
        assert_allclose(got[1], 2.0 * want[1], rtol=1e-12)
        assert_allclose(got[[0, 2]], want[[0, 2]], rtol=0, atol=0)

    @pytest.mark.parametrize(
        "basis_name", ["plain", "from-order-3", "single_carrier", "ca_3mhz_x2"]
    )
    @pytest.mark.parametrize("n", ["0-d", 1, pytest.param((3, 7), id="3x7"), 200_000])
    def test_equals_per_branch_expressions(self, basis_name, n):
        """Each row has the bits of its branch written as whole-array numpy
        expressions, one branch at a time: 0 + u[m] * |x|^(m-1) summed
        over the members from low to high, |x|^(m-1) raised from 1 by
        repeated products with |x|^2, times x or conj(x). For the plain
        basis, both shipped configs' fitted bases and a basis whose
        branches start at order 3 (where the 0 + turns a first term of
        -0.0 at x = 0 into +0.0), on many samples, on a 2-D array, on one
        sample and on a scalar."""
        if basis_name == "plain":
            basis = PolyBasis.plain(TABLE_SETS)
        elif basis_name == "from-order-3":
            sets = BranchSets((3, 5), (3,))
            basis = PolyBasis(ORTHOGONAL, sets, [[-0.5], [0.25, -1.5]], [[-2.0]])
        else:
            config = SHIPPED_CONFIG.with_name(f"{basis_name}.json")
            basis = parse_experiment_config(json.loads(config.read_text())).aph_config().basis
        rng = np.random.default_rng(17)
        size = 1 if n == "0-d" else n
        x = (0.2 * (rng.normal(size=size) + 1j * rng.normal(size=size))).astype(np.complex64)
        x = x.reshape(()) if n == "0-d" else x
        if n == 200_000:
            x[:4] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]

        def oracle_rows(x):
            x = np.asarray(x, dtype=np.complex128)
            r2 = x.real**2 + x.imag**2
            for orders, table, base in (
                (basis.sets.main_orders, basis.u_main, x),
                (basis.sets.conj_orders, basis.u_conj, np.conj(x)),
            ):
                for i in range(len(orders)):
                    envelope = np.zeros_like(r2)
                    for coeff, m in zip(table[i], orders[: i + 1]):
                        power = np.ones_like(r2)
                        for _ in range((m - 1) // 2):
                            power = power * r2
                        envelope = envelope + coeff * power
                    yield envelope * base

        got = evaluate_branches(x, basis)
        want = np.stack(list(oracle_rows(x)))
        assert got.shape == want.shape == (basis.sets.n_branches, *np.shape(x))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

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

    @pytest.mark.parametrize(
        "sets",
        [
            BranchSets.odd_orders_up_to(5, 3),
            BranchSets.odd_orders_up_to(9, 9),
            BranchSets.odd_orders_up_to(13, 13),
            BranchSets((1, 5, 9), (3, 7)),
            BranchSets((3, 5), (3,)),
        ],
        ids=["5-3", "9-9", "13-13", "gapped", "from-order-3"],
    )
    def test_rows_keep_the_per_pair_moment_bits(self, sets):
        """Every fitted row has the bits of moments taken pair by pair,
        each as mean(|x|^(m_i + m_j)), then Cholesky and numpy's solve
        against the identity: on consecutive orders up to 13, where the
        rows' low bits are most fragile, on gapped ones and on families
        that start at order 3."""
        training = _training_buffer(n=6000, seed=21)
        basis = fit_orthogonal_basis(training, sets)
        x = training.samples.astype(np.complex128)
        r2 = x.real**2 + x.imag**2
        for orders, rows in ((sets.main_orders, basis.u_main), (sets.conj_orders, basis.u_conj)):
            k = len(orders)
            moments = np.empty((k, k))
            for i, mi in enumerate(orders):
                for j, mj in enumerate(orders):
                    moments[i, j] = float(np.mean(r2 ** ((mi + mj) // 2)))
            want = np.linalg.solve(np.linalg.cholesky(moments), np.eye(k))
            assert len(rows) == k
            for i, row in enumerate(rows):
                assert np.array_equal(row.view(np.uint64), want[i, : i + 1].view(np.uint64))


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

    @pytest.mark.parametrize("mode", ["plain", "orthogonal"])
    @pytest.mark.parametrize(
        "n",
        [
            _NORMAL_BLOCK_LEN - 1,
            _NORMAL_BLOCK_LEN,
            _NORMAL_BLOCK_LEN + 1,
            2 * _NORMAL_BLOCK_LEN + 3,
            3 * _NORMAL_BLOCK_LEN - 2,
        ],
    )
    def test_matches_dense_across_block_edges(self, mode, n):
        """Buffers on either side of one, two and three blocks of
        `_NORMAL_BLOCK_LEN`, against targets that end before the buffer,
        with it, and at the last matrix row."""
        buf = _training_buffer(n=n, seed=33)
        basis = (
            PolyBasis.plain(TABLE_SETS)
            if mode == "plain"
            else fit_orthogonal_basis(buf, TABLE_SETS)
        )
        cfg = AphConfig(TABLE_SETS, (3, 1, 4), (2, 5), basis)
        a = reference_basis_matrix(buf.samples, cfg)
        gram = a.conj().T @ a
        rng = np.random.default_rng(34)
        for length in (n - 7, n, a.shape[0]):
            z = rng.normal(size=length) + 1j * rng.normal(size=length)
            b = np.concatenate([z, np.zeros(a.shape[0] - length)])
            ne = build_normal_equations(buf, z, cfg)
            rhs = a.conj().T @ b
            assert np.linalg.norm(ne.gram - gram) <= 1e-12 * np.linalg.norm(gram), length
            assert np.linalg.norm(ne.rhs - rhs) <= 1e-12 * np.linalg.norm(rhs), length
            assert ne.target_power == pytest.approx(np.vdot(b, b).real, rel=1e-12)

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
