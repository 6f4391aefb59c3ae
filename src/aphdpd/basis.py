"""Polynomial branch basis: odd-order envelope polynomials and their
statistically orthogonalized variants, the predistorter structure built
from them (`AphConfig`, which owns the coefficient column layout), and the
normal equations of the convolution-structured regression matrix that
least-squares training solves, built from lagged branch correlations over
one evaluation of the whole branch set (`evaluate_branches`).

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
in `predistorter`, and the coefficient file's basis block in `config`.
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

# The highest branch order. The engine raises |x|^2 to the power (p-1)/2 in
# float32, whose normal range is 2^-126 .. 2^128: p - 1 <= 126 keeps
# |x|^(p-1) a normal float32 for every 1/2 <= |x| <= 2.
MAX_ORDER = 127

PLAIN = "plain"
ORTHOGONAL = "orthogonal"


def _int_tuple(name: str, values) -> tuple[int, ...]:
    """values as a tuple of Python ints. Python and numpy integers pass; a
    float or a bool is a ConfigurationError rather than a silent truncation."""
    values = tuple(values)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
        raise ConfigurationError(f"{name} must hold integers, got {values}")
    return tuple(int(v) for v in values)


def _check_orders(name: str, orders: tuple[int, ...]) -> None:
    if not orders:
        raise ConfigurationError(f"{name} must not be empty")
    if any(m % 2 == 0 or m < 1 for m in orders):
        raise ConfigurationError(f"{name} must contain odd positive orders, got {orders}")
    if list(orders) != sorted(set(orders)):
        raise ConfigurationError(f"{name} must be strictly ascending, got {orders}")
    if orders[-1] > MAX_ORDER:
        raise ConfigurationError(
            f"{name} holds order {orders[-1]}, above the order bound {MAX_ORDER}"
        )


@dataclass(frozen=True)
class BranchSets:
    """Polynomial orders of the main and conjugate branch families."""

    main_orders: tuple[int, ...]
    conj_orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "main_orders", _int_tuple("main_orders", self.main_orders))
        object.__setattr__(self, "conj_orders", _int_tuple("conj_orders", self.conj_orders))
        _check_orders("main_orders", self.main_orders)
        _check_orders("conj_orders", self.conj_orders)
        if max(self.main_orders) < max(self.conj_orders):
            raise ConfigurationError(
                f"main family must reach at least the conjugate family's top order "
                f"(got {self.main_orders} vs {self.conj_orders})"
            )

    @classmethod
    def odd_orders_up_to(cls, max_order_main: int, max_order_conj: int) -> "BranchSets":
        """All odd orders 1..max_order_main (main) and 1..max_order_conj
        (conjugate)."""
        for name, top in (("max_order_main", max_order_main), ("max_order_conj", max_order_conj)):
            if top > MAX_ORDER:
                raise ConfigurationError(
                    f"'{name}' of {top} is above the order bound {MAX_ORDER}"
                )
        return cls(
            tuple(range(1, max_order_main + 1, 2)),
            tuple(range(1, max_order_conj + 1, 2)),
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
    construction; the coefficient file still writes [re, im] pairs.
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


def evaluate_branches(x, basis: PolyBasis) -> np.ndarray:
    """Every branch polynomial at x, double precision: one row per branch,
    main orders ascending, then conjugate (the `branch_slices` order).
    |x|^2 and its powers are computed once for the whole set."""
    x = np.asarray(x, dtype=np.complex128)
    r2 = x.real**2 + x.imag**2
    powers = [np.ones_like(r2)]  # powers[j] = |x|^(2j), raised incrementally
    for _ in range((basis.sets.main_orders[-1] - 1) // 2):
        powers.append(powers[-1] * r2)
    rows = []
    for orders, table, base in (
        (basis.sets.main_orders, basis.u_main, x),
        (basis.sets.conj_orders, basis.u_conj, np.conj(x)),
    ):
        for order in orders:
            envelope = np.zeros_like(r2)
            for coeff, m in zip(table[order], _members(order, orders)):  # low to high
                envelope = envelope + coeff * powers[(m - 1) // 2]
            rows.append(envelope * base)
    return np.stack(rows)


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

    def _rms() -> float:
        return float(np.sqrt(np.mean(r2)))

    def family(orders: tuple[int, ...]) -> dict[int, np.ndarray]:
        k = len(orders)
        moments = np.empty((k, k))
        for i, mi in enumerate(orders):
            for j, mj in enumerate(orders[: i + 1]):
                moments[i, j] = moments[j, i] = float(np.mean(r2 ** ((mi + mj) // 2)))
        # Scaling x by a scales M by a diagonal matrix, so the raw cond(M)
        # tracks the drive level; cond(D M D) with D = diag(M)^-1/2 does not.
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = moments / np.sqrt(np.outer(np.diag(moments), np.diag(moments)))
        cond = float(np.linalg.cond(scaled)) if np.all(np.isfinite(scaled)) else np.inf
        if not np.isfinite(cond) or cond > _MOMENT_COND_LIMIT:
            raise ConditioningError(
                f"diagonally scaled sample moment matrix for orders {orders} is numerically "
                f"singular (cond ~ {cond:.3g}) over training data of RMS {_rms():.3g}",
                condition_estimate=cond,
            )
        try:
            chol = np.linalg.cholesky(moments)
        except np.linalg.LinAlgError as err:
            raise ConditioningError(
                f"moment matrix for orders {orders} is not positive definite over "
                f"training data of RMS {_rms():.3g}: {err}",
                condition_estimate=cond,
            ) from err
        # Rows of inv(L): coefficients of each orthonormal branch over the monomials.
        inv_chol = _lower_triangular_inverse(chol)
        return {order: inv_chol[i, : i + 1].copy() for i, order in enumerate(orders)}

    return PolyBasis(ORTHOGONAL, sets, family(sets.main_orders), family(sets.conj_orders))


@dataclass(frozen=True)
class AphConfig:
    """Branch structure of the predistorter: orders, tap counts, basis.

    It decides the coefficient column layout (`branch_slices`) for the
    engine, the coefficient files and the normal equations alike.
    """

    sets: BranchSets
    taps_main: tuple[int, ...]
    taps_conj: tuple[int, ...]
    basis: PolyBasis

    def __post_init__(self):
        object.__setattr__(self, "taps_main", _int_tuple("taps_main", self.taps_main))
        object.__setattr__(self, "taps_conj", _int_tuple("taps_conj", self.taps_conj))
        if len(self.taps_main) != len(self.sets.main_orders):
            raise ConfigurationError("taps_main must align with sets.main_orders")
        if len(self.taps_conj) != len(self.sets.conj_orders):
            raise ConfigurationError("taps_conj must align with sets.conj_orders")
        if any(t < 1 for t in (*self.taps_main, *self.taps_conj)):
            raise ConfigurationError("every branch needs at least one tap")
        if self.basis.sets != self.sets:
            raise ConfigurationError("basis was built for different branch sets")

    @classmethod
    def default(cls) -> "AphConfig":
        """The reference configuration: odd orders to 5 (main) and 3
        (conjugate), five taps per branch, plain basis, 26 coefficients total."""
        sets = BranchSets.odd_orders_up_to(5, 3)
        basis = PolyBasis.plain(sets)
        return cls(sets, (5,) * len(sets.main_orders), (5,) * len(sets.conj_orders), basis)

    @property
    def l_max(self) -> int:
        return max((*self.taps_main, *self.taps_conj))

    @property
    def n_coefficients(self) -> int:
        return sum(self.taps_main) + sum(self.taps_conj) + 1

    def check_length(self, coeffs) -> None:
        if len(coeffs) != self.n_coefficients:
            raise ConfigurationError(
                f"coefficient vector has {len(coeffs)} entries, config needs {self.n_coefficients}"
            )

    def branch_slices(self) -> list[tuple[str, int, slice]]:
        """(family, order, slice into the stacked vector) per branch, in
        column order: main branches ascending, conjugate branches ascending.
        The constant is the last entry, after every slice."""
        out = []
        offset = 0
        for family, orders, taps in (
            ("main", self.sets.main_orders, self.taps_main),
            ("conj", self.sets.conj_orders, self.taps_conj),
        ):
            for order, n_taps in zip(orders, taps):
                out.append((family, order, slice(offset, offset + n_taps)))
                offset += n_taps
        return out


@dataclass(frozen=True)
class NormalEquations:
    """The normal equations G h = r of the regression matrix A (G = A^H A,
    r = A^H b) and the target power ||b||^2; nothing as long as the buffer.

    Column block a of A holds branch sequence psi_a delayed by 0..taps-1
    samples, zero-padded to n + l_max - 1 rows, at the columns its
    `branch_slices` entry names; the last column is all ones.
    """

    gram: np.ndarray
    rhs: np.ndarray
    target_power: float

    def residual_norm(self, h: np.ndarray) -> float:
        """||A h - b||, whose square is h^H G h - 2 Re(h^H r) + ||b||^2. On
        data the model fits to rounding that sum cancels and can fall
        below zero, so it is clamped there."""
        square = np.vdot(h, self.gram @ h).real - 2.0 * np.vdot(h, self.rhs).real
        return float(np.sqrt(max(0.0, square + self.target_power)))


def build_normal_equations(y: IqBuffer, target: np.ndarray, cfg: AphConfig) -> NormalEquations:
    """A^H A and A^H b of the regression matrix over the buffer y, from
    lagged branch correlations.

    Column (a, k) is psi_a delayed by k, so every Gram entry is a lagged
    correlation c_ab[d] = sum_m conj(psi_a[m]) psi_b[m + d] at d = k - l,
    and c_ab[-d] = conj(c_ba[d]). One branch-by-branch product per lag
    d = 0..l_max-1 gives them all. The all-ones column contributes the
    branch sums and the row count; A^H b is the same correlation against
    the target, which is zero-padded to the row count.
    """
    n = len(y)
    l_max = cfg.l_max
    if n < l_max:
        raise InsufficientDataError(f"buffer of {n} samples is shorter than {l_max} taps")
    rows = n + l_max - 1
    b = np.asarray(target, dtype=np.complex128)
    if b.ndim != 1 or len(b) > rows:
        raise ConfigurationError(f"target of shape {b.shape} exceeds the {rows} matrix rows")
    b = np.concatenate([b, np.zeros(rows - len(b), dtype=np.complex128)])

    slices = cfg.branch_slices()
    psi = evaluate_branches(y.samples, cfg.basis)
    psi_h = psi.conj()
    # corr[l_max - 1 + d, a, c] = c_ac[d] for d in -(l_max-1)..(l_max-1).
    corr = np.empty((2 * l_max - 1, len(slices), len(slices)), dtype=np.complex128)
    for d in range(l_max):
        corr[l_max - 1 + d] = psi_h[:, : n - d] @ psi[:, d:].T
    corr[: l_max - 1] = corr[: l_max - 1 : -1].conj().transpose(0, 2, 1)
    # proj[k, a] = sum_m conj(psi_a[m]) b[m + k]
    proj = np.stack([psi_h @ b[k : k + n] for k in range(l_max)])

    cols = cfg.n_coefficients
    gram = np.empty((cols, cols), dtype=np.complex128)
    rhs = np.empty(cols, dtype=np.complex128)
    sums = psi.sum(axis=1)
    for a, (_, _, rows_a) in enumerate(slices):
        ta = rows_a.stop - rows_a.start
        for c, (_, _, cols_c) in enumerate(slices):
            tc = cols_c.stop - cols_c.start
            lag = np.arange(ta)[:, None] - np.arange(tc)[None, :] + l_max - 1
            gram[rows_a, cols_c] = corr[lag, a, c]
        gram[rows_a, -1] = np.conj(sums[a])
        gram[-1, rows_a] = sums[a]
        rhs[rows_a] = proj[:ta, a]
    gram[-1, -1] = rows
    rhs[-1] = b.sum()
    return NormalEquations(gram, rhs, float(np.vdot(b, b).real))
