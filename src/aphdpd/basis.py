"""Polynomial branch basis: odd-order envelope polynomials and their
statistically orthogonalized variants, plus the normal equations of the
convolution-structured regression matrix that least-squares training
solves (built from lagged branch correlations) and that dense matrix
itself as a reference.

A main branch of order p evaluates

    psi_p(x) = sum over m in {1,3,...,p} of u[m,p] * |x|^(m-1) * x

and a conjugate branch uses x* in place of the trailing x. In plain mode the
coefficient table u is the identity (pure monomials). In orthogonal mode the
rows of u are chosen so the branch outputs are uncorrelated with unit power
over a training sample set: since E[phi_m phi_m'*] = E[|x|^(m+m'-2) |x|^2]
depends only on the magnitude distribution, the sample moment matrix is real
and its Cholesky factor orthogonalizes both families.

Everything here evaluates in double precision — this is the training /
reference side of the toolkit. The single-precision streaming engine lives
in `predistorter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import ConditioningError, ConfigurationError, InsufficientDataError
from .waveforms import IqBuffer

# Sample moment matrices with condition numbers beyond this are treated as
# degenerate (constant-modulus inputs make them exactly rank one).
_MOMENT_COND_LIMIT = 1e12

PLAIN = "plain"
ORTHOGONAL = "orthogonal"


def _check_orders(name: str, orders: tuple[int, ...]) -> None:
    if not orders:
        raise ConfigurationError(f"{name} must not be empty")
    if any(m % 2 == 0 or m < 1 for m in orders):
        raise ConfigurationError(f"{name} must contain odd positive orders, got {orders}")
    if list(orders) != sorted(set(orders)):
        raise ConfigurationError(f"{name} must be strictly ascending, got {orders}")


@dataclass(frozen=True)
class BranchSets:
    """Polynomial orders of the main and conjugate branch families."""

    main_orders: tuple[int, ...]
    conj_orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "main_orders", tuple(int(m) for m in self.main_orders))
        object.__setattr__(self, "conj_orders", tuple(int(m) for m in self.conj_orders))
        _check_orders("main_orders", self.main_orders)
        _check_orders("conj_orders", self.conj_orders)
        if max(self.main_orders) < max(self.conj_orders):
            raise ConfigurationError(
                f"main family must reach at least the conjugate family's top order "
                f"(got {self.main_orders} vs {self.conj_orders})"
            )

    @classmethod
    def odd_orders_up_to(cls, max_main: int, max_conj: int) -> "BranchSets":
        """All odd orders 1..max_main (main) and 1..max_conj (conjugate)."""
        return cls(
            tuple(range(1, max_main + 1, 2)),
            tuple(range(1, max_conj + 1, 2)),
        )

    @property
    def n_branches(self) -> int:
        return len(self.main_orders) + len(self.conj_orders)


def _members(order: int, orders: tuple[int, ...]) -> tuple[int, ...]:
    """Orders participating in the branch polynomial of `order`."""
    return tuple(m for m in orders if m <= order)


@dataclass(frozen=True)
class PolyBasis:
    """Per-branch polynomial coefficient tables u, keyed by branch order.

    ``u_main[p]`` holds the coefficients over the member orders of branch p
    (ascending), i.e. a row of a lower-triangular table. Tables are real by
    construction; the JSON form still writes [re, im] pairs.
    """

    mode: str
    sets: BranchSets
    u_main: dict[int, np.ndarray]
    u_conj: dict[int, np.ndarray]

    def __post_init__(self):
        if self.mode not in (PLAIN, ORTHOGONAL):
            raise ConfigurationError(f"unknown basis mode {self.mode!r}")
        for orders, table, name in (
            (self.sets.main_orders, self.u_main, "u_main"),
            (self.sets.conj_orders, self.u_conj, "u_conj"),
        ):
            if set(table) != set(orders):
                raise ConfigurationError(f"{name} keys {sorted(table)} != branch orders {orders}")
            for order in orders:
                row = np.asarray(table[order], dtype=np.float64)
                if row.shape != (len(_members(order, orders)),):
                    raise ConfigurationError(
                        f"{name}[{order}] has {row.shape} coefficients, "
                        f"expected {len(_members(order, orders))}"
                    )
                if row[-1] == 0.0:
                    raise ConfigurationError(f"{name}[{order}] diagonal entry is zero")
                table[order] = row

    @classmethod
    def plain(cls, sets: BranchSets) -> "PolyBasis":
        """Identity coefficient table: branches are pure monomials."""

        def identity(orders):
            return {
                p: np.eye(len(_members(p, orders)))[-1].copy() for p in orders
            }

        return cls(PLAIN, sets, identity(sets.main_orders), identity(sets.conj_orders))

    def to_json_dict(self) -> dict:
        def rows(orders, table):
            return [[[float(v), 0.0] for v in table[p]] for p in orders]

        return {
            "mode": self.mode,
            "I_P": list(self.sets.main_orders),
            "I_Q": list(self.sets.conj_orders),
            "u_main": rows(self.sets.main_orders, self.u_main),
            "u_conj": rows(self.sets.conj_orders, self.u_conj),
        }

    @classmethod
    def from_json_dict(cls, doc: dict, where: str = "") -> "PolyBasis":
        """Inverse of to_json_dict. A malformed or unknown field raises
        ConfigurationError naming its key, prefixed by `where`."""
        from .config import _complex_pair, _integer_list, _reject_unknown, _require

        _reject_unknown(doc, ("mode", "I_P", "I_Q", "u_main", "u_conj"), where)
        mode = _require(doc, "mode", where)
        if mode not in (PLAIN, ORTHOGONAL):
            raise ConfigurationError(f"'{where}mode' must be plain or orthogonal, got {mode!r}")
        sets = BranchSets(_integer_list(doc, "I_P", where), _integer_list(doc, "I_Q", where))

        def tables(orders, name):
            rows = _require(doc, name, where)
            if not isinstance(rows, list) or len(rows) != len(orders):
                raise ConfigurationError(
                    f"'{where}{name}' must list one row per branch ({len(orders)}), got {rows!r}"
                )
            out = {}
            for i, (order, row) in enumerate(zip(orders, rows)):
                if not isinstance(row, list):
                    raise ConfigurationError(
                        f"'{where}{name}[{i}]' must be a list of [re, im] pairs, got {row!r}"
                    )
                values = [_complex_pair(v, f"{where}{name}[{i}][{j}]") for j, v in enumerate(row)]
                if any(v.imag != 0.0 for v in values):
                    raise ConfigurationError(
                        f"'{where}{name}[{i}]': non-real coefficients unsupported"
                    )
                out[order] = np.array([v.real for v in values], dtype=np.float64)
            return out

        return cls(
            mode, sets, tables(sets.main_orders, "u_main"), tables(sets.conj_orders, "u_conj")
        )


def evaluate_branch(x, branch_order: int, conjugate: bool, basis: PolyBasis):
    """Evaluate one branch polynomial at x (scalar or array), double precision."""
    orders = basis.sets.conj_orders if conjugate else basis.sets.main_orders
    if branch_order not in orders:
        family = "conjugate" if conjugate else "main"
        raise ConfigurationError(f"order {branch_order} not in the {family} branch set {orders}")
    u = (basis.u_conj if conjugate else basis.u_main)[branch_order]

    x = np.asarray(x, dtype=np.complex128)
    r2 = x.real**2 + x.imag**2
    envelope = np.zeros_like(r2)
    power = np.ones_like(r2)  # |x|^(m-1) as r2^((m-1)/2), raised incrementally
    exponent = 0
    for coeff, m in zip(u, _members(branch_order, orders)):  # low to high order
        while exponent < (m - 1) // 2:
            power = power * r2
            exponent += 1
        envelope = envelope + coeff * power
    base = np.conj(x) if conjugate else x
    result = envelope * base
    return complex(result) if result.ndim == 0 else result


def _lower_triangular_inverse(chol: np.ndarray) -> np.ndarray:
    """inv(L) of a small lower-triangular L by forward substitution.

    The rounding follows LAPACK's triangular solve on FMA hardware: each
    pivot row is scaled by the reciprocal of its diagonal, and each
    elimination step c - b*l is rounded once, as a fused multiply-add does
    (exact rational arithmetic, then one rounding to double). The fitted
    coefficient tables therefore keep the bits a LAPACK solve gives them.
    """
    k = len(chol)
    inv = np.eye(k)
    for p in range(k):
        inv[p] *= 1.0 / chol[p, p]
        for i in range(p + 1, k):
            lip = Fraction(float(chol[i, p]))
            inv[i] = [float(Fraction(c) - Fraction(b) * lip) for c, b in zip(inv[i], inv[p])]
    return inv


def fit_orthogonal_basis(training: IqBuffer, sets: BranchSets) -> PolyBasis:
    """Orthogonalize both branch families over a training sample set.

    Uses the Cholesky factor of the sample moment matrix
    A[i,j] = mean(|x|^(m_i + m_j)): with psi = inv(L) @ phi the sample
    correlation matrix of the branch outputs is the identity.
    """
    if len(training) < 10 * sets.n_branches:
        raise InsufficientDataError(
            f"need at least {10 * sets.n_branches} training samples for "
            f"{sets.n_branches} basis functions, got {len(training)}"
        )
    x = training.samples.astype(np.complex128)
    r2 = x.real**2 + x.imag**2

    def family(orders: tuple[int, ...]) -> dict[int, np.ndarray]:
        k = len(orders)
        moments = np.empty((k, k))
        for i, mi in enumerate(orders):
            for j, mj in enumerate(orders[: i + 1]):
                moments[i, j] = moments[j, i] = float(np.mean(r2 ** ((mi + mj) // 2)))
        cond = float(np.linalg.cond(moments))
        if not np.isfinite(cond) or cond > _MOMENT_COND_LIMIT:
            raise ConditioningError(
                f"sample moment matrix for orders {orders} is numerically singular "
                f"(cond ~ {cond:.3g}); constant-modulus training data cannot be orthogonalized",
                condition_estimate=cond,
            )
        try:
            chol = np.linalg.cholesky(moments)
        except np.linalg.LinAlgError as err:
            raise ConditioningError(
                f"moment matrix for orders {orders} is not positive definite: {err}",
                condition_estimate=cond,
            ) from err
        # Rows of inv(L): coefficients of each orthonormal branch over the monomials.
        inv_chol = _lower_triangular_inverse(chol)
        return {order: inv_chol[i, : i + 1].copy() for i, order in enumerate(orders)}

    return PolyBasis(ORTHOGONAL, sets, family(sets.main_orders), family(sets.conj_orders))


@dataclass(frozen=True)
class BasisMatrix:
    """Dense regression matrix: one Toeplitz block per branch plus a ones column.

    column_layout lists (family, order, taps) per block in column order;
    the trailing all-ones column (the LO-leakage regressor) is implicit.
    """

    values: np.ndarray
    column_layout: tuple[tuple[str, int, int], ...]

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def _branch_layout(
    n: int, sets: BranchSets, taps_main: tuple[int, ...], taps_conj: tuple[int, ...]
) -> tuple[tuple[str, int, int], ...]:
    """(family, order, taps) per branch in column order, after checking the
    tap counts against the branch sets and the buffer length n."""
    if len(taps_main) != len(sets.main_orders) or len(taps_conj) != len(sets.conj_orders):
        raise ConfigurationError("tap counts must align with the branch sets")
    if any(t < 1 for t in (*taps_main, *taps_conj)):
        raise ConfigurationError("every branch needs at least one tap")
    l_max = max(*taps_main, *taps_conj)
    if n < l_max:
        raise InsufficientDataError(f"buffer of {n} samples is shorter than {l_max} taps")
    return tuple(
        (family, order, n_taps)
        for family, orders, taps in (
            ("main", sets.main_orders, taps_main),
            ("conj", sets.conj_orders, taps_conj),
        )
        for order, n_taps in zip(orders, taps)
    )


def build_basis_matrix(
    y: IqBuffer,
    sets: BranchSets,
    taps_main: tuple[int, ...],
    taps_conj: tuple[int, ...],
    basis: PolyBasis,
) -> BasisMatrix:
    """Build the regression matrix over a feedback/training buffer.

    Column block k of a branch holds the branch polynomial sequence delayed
    by k samples with zero padding; blocks are ordered main branches
    ascending, conjugate branches ascending, then the all-ones column.
    Training never forms this matrix (see `build_normal_equations`); it is
    the dense reference the normal equations are checked against.
    """
    n = len(y)
    layout = _branch_layout(n, sets, taps_main, taps_conj)
    rows = n + max(t for _, _, t in layout) - 1
    blocks = []
    for family, order, n_taps in layout:
        seq = evaluate_branch(y.samples, order, family == "conj", basis)
        block = np.zeros((rows, n_taps), dtype=np.complex128)
        for k in range(n_taps):
            block[k : k + n, k] = seq
        blocks.append(block)
    blocks.append(np.ones((rows, 1), dtype=np.complex128))

    return BasisMatrix(np.hstack(blocks), layout)


@dataclass(frozen=True)
class NormalEquations:
    """The normal equations A^H A h = A^H b of the regression matrix A that
    `build_basis_matrix` would build, without A itself.

    branches holds the branch sequences psi_a (one row each, column order)
    and target the zero-padded b; with the tap layout they define A, so the
    data residual ||A h - b|| is a sum of short branch FIRs.
    """

    gram: np.ndarray
    rhs: np.ndarray
    column_layout: tuple[tuple[str, int, int], ...]
    branches: np.ndarray
    target: np.ndarray

    def residual_norm(self, h: np.ndarray) -> float:
        """||A h - b|| from the branch FIRs plus the constant column, each
        FIR as one shifted add per tap."""
        out = np.full(len(self.target), h[-1], dtype=np.complex128)
        col = 0
        for seq, (_, _, n_taps) in zip(self.branches, self.column_layout):
            for k in range(n_taps):
                out[k : k + len(seq)] += h[col + k] * seq
            col += n_taps
        return float(np.linalg.norm(out - self.target))


def build_normal_equations(
    y: IqBuffer,
    target: np.ndarray,
    sets: BranchSets,
    taps_main: tuple[int, ...],
    taps_conj: tuple[int, ...],
    basis: PolyBasis,
) -> NormalEquations:
    """A^H A and A^H b for the `build_basis_matrix` layout, from lagged
    branch correlations.

    Column (a, k) is psi_a delayed by k, so every Gram entry is a lagged
    correlation c_ab[d] = sum_m conj(psi_a[m]) psi_b[m + d] at d = k - l,
    and c_ab[-d] = conj(c_ba[d]). One branch-by-branch product per lag
    d = 0..l_max-1 gives them all. The all-ones column contributes the
    branch sums and the row count; A^H b is the same correlation against
    the target, which is zero-padded to the row count.
    """
    n = len(y)
    layout = _branch_layout(n, sets, taps_main, taps_conj)
    l_max = max(t for _, _, t in layout)
    rows = n + l_max - 1
    b = np.asarray(target, dtype=np.complex128)
    if b.ndim != 1 or len(b) > rows:
        raise ConfigurationError(f"target of shape {b.shape} exceeds the {rows} matrix rows")
    b = np.concatenate([b, np.zeros(rows - len(b), dtype=np.complex128)])

    psi = np.stack(
        [evaluate_branch(y.samples, order, family == "conj", basis) for family, order, _ in layout]
    )
    psi_h = psi.conj()
    # corr[l_max - 1 + d, a, c] = c_ac[d] for d in -(l_max-1)..(l_max-1).
    corr = np.empty((2 * l_max - 1, len(layout), len(layout)), dtype=np.complex128)
    for d in range(l_max):
        corr[l_max - 1 + d] = psi_h[:, : n - d] @ psi[:, d:].T
    corr[: l_max - 1] = corr[: l_max - 1 : -1].conj().transpose(0, 2, 1)
    # proj[k, a] = sum_m conj(psi_a[m]) b[m + k]
    proj = np.stack([psi_h @ b[k : k + n] for k in range(l_max)])

    starts = np.cumsum([0] + [t for _, _, t in layout])
    cols = int(starts[-1]) + 1
    gram = np.empty((cols, cols), dtype=np.complex128)
    rhs = np.empty(cols, dtype=np.complex128)
    sums = psi.sum(axis=1)
    for a, (_, _, ta) in enumerate(layout):
        rows_a = slice(starts[a], starts[a] + ta)
        for c, (_, _, tc) in enumerate(layout):
            lag = np.arange(ta)[:, None] - np.arange(tc)[None, :] + l_max - 1
            gram[rows_a, starts[c] : starts[c] + tc] = corr[lag, a, c]
        gram[rows_a, -1] = np.conj(sums[a])
        gram[-1, rows_a] = sums[a]
        rhs[rows_a] = proj[:ta, a]
    gram[-1, -1] = rows
    rhs[-1] = b.sum()
    return NormalEquations(gram, rhs, layout, psi, b)
