"""Polynomial branch basis: odd-order envelope polynomials and their
statistically orthogonalized variants, the predistorter structure built
from them (`AphConfig`, which owns the coefficient column layout), and the
normal equations of the convolution-structured regression matrix that
least-squares training solves, summed over blocks of samples from real
lagged products of the branches' real and imaginary parts.

A family's branches follow its ascending orders p_0 < p_1 < ..., and
main branch i evaluates

    psi_i(x) = sum over j in 0..i of u[i][j] * |x|^(p_j - 1) * x

while a conjugate branch uses x* in place of the trailing x. The table u is
lower triangular and is held as one row per branch, in the family's order,
as the coefficient file lists it. In plain mode u is the identity (pure
monomials). In orthogonal mode the rows of u are chosen so the branch
outputs are uncorrelated with unit power over a training sample set: since
E[phi_m phi_m'*] = E[|x|^(m+m'-2) |x|^2] depends only on the magnitude
distribution, the sample moment matrix is real and its Cholesky factor
orthogonalizes both families.

Each structure rule (orders, tap counts, basis rows) is stated once, in a
`_check_*` function that names a fault under the caller's keys: the field
names here, and the dotted keys of `config`'s two documents.

Everything here evaluates in double precision — this is the training /
reference side of the toolkit. The single-precision streaming engine lives
in `predistorter`, and the coefficient file's basis block in `config`.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .exceptions import ConditioningError, ConfigurationError, InsufficientDataError
from .waveforms import IqBuffer, _abs2, _power_sum

# Samples per block of `build_normal_equations`: its real array of
# 2 (branches + 1) rows stays in cache through all the lag products.
_NORMAL_BLOCK_LEN = 1 << 12

# Sample moment matrices with condition numbers beyond this are treated as
# degenerate (constant-modulus inputs make them exactly rank one).
_MOMENT_COND_LIMIT = 1e12

# The highest branch order. The engine raises |x|^2 to the power (p-1)/2 in
# float32, whose normal range is 2^-126 .. 2^128: p - 1 <= 126 keeps
# |x|^(p-1) a normal float32 for every 1/2 <= |x| <= 2.
MAX_ORDER = 127

PLAIN = "plain"
ORTHOGONAL = "orthogonal"


# Booleans are Python ints; no order, count or quantity may be one.
def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _int_tuple(name: str, values) -> tuple[int, ...]:
    """values as a tuple of Python ints. Python and numpy integers pass; a
    float or a bool is a ConfigurationError rather than a silent truncation."""
    values = tuple(values)
    if not all(map(_is_int, values)):
        raise ConfigurationError(f"'{name}' must hold integers, got {values}")
    return tuple(int(v) for v in values)


def _check_orders(key: str, orders: tuple[int, ...]) -> None:
    if not orders:
        raise ConfigurationError(f"'{key}' must not be empty")
    if any(m % 2 == 0 or m < 1 for m in orders):
        raise ConfigurationError(f"'{key}' must contain odd positive orders, got {orders}")
    if list(orders) != sorted(set(orders)):
        raise ConfigurationError(f"'{key}' must be strictly ascending, got {orders}")
    if orders[-1] > MAX_ORDER:
        raise ConfigurationError(
            f"'{key}' holds order {orders[-1]}, above the order bound {MAX_ORDER}"
        )


def _check_sets(main, conj, keys=("main_orders", "conj_orders")) -> None:
    """The families' orders, and the conjugate top no higher than the main."""
    _check_orders(keys[0], main)
    _check_orders(keys[1], conj)
    if conj[-1] > main[-1]:
        raise ConfigurationError(
            f"'{keys[1]}' reaches order {conj[-1]}, above the main family's top order {main[-1]}"
        )


def _check_structure(
    main, conj, taps_main, taps_conj, keys=("main_orders", "conj_orders", "taps_main", "taps_conj")
) -> None:
    """The sets rules, then one tap count of at least 1 per branch."""
    _check_sets(main, conj, keys[:2])
    for orders, taps, key in ((main, taps_main, keys[2]), (conj, taps_conj, keys[3])):
        if len(taps) != len(orders):
            raise ConfigurationError(
                f"'{key}' lists {len(taps)} tap counts for {len(orders)} branches"
            )
        for i, n_taps in enumerate(taps):
            if n_taps < 1:
                raise ConfigurationError(f"'{key}[{i}]' must be >= 1, got {n_taps}")


def _check_basis_rows(orders, rows, key: str) -> None:
    """One row per branch, over its member orders, with a nonzero last entry."""
    if len(rows) != len(orders):
        raise ConfigurationError(f"'{key}' lists {len(rows)} rows for {len(orders)} branches")
    for i, row in enumerate(rows):  # branch i has the i + 1 lowest orders as members
        if len(row) != i + 1:
            raise ConfigurationError(
                f"'{key}[{i}]' has {len(row)} entries, order {orders[i]} needs {i + 1}"
            )
        if row[-1] == 0.0:
            raise ConfigurationError(f"'{key}[{i}]' has a zero diagonal (last) entry")


@record
class BranchSets:
    """Polynomial orders of the main and conjugate branch families."""

    main_orders: tuple[int, ...]
    conj_orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "main_orders", _int_tuple("main_orders", self.main_orders))
        object.__setattr__(self, "conj_orders", _int_tuple("conj_orders", self.conj_orders))
        _check_sets(self.main_orders, self.conj_orders)

    @classmethod
    def odd_orders_up_to(
        cls, max_order_main: int, max_order_conj: int, keys=("max_order_main", "max_order_conj")
    ) -> "BranchSets":
        """All odd orders up to each top (main, conjugate). A top is an odd
        integer from 1 to MAX_ORDER, and a fault is named by its `keys` entry."""
        tops = (max_order_main, max_order_conj)
        for key, top in zip(keys, tops):
            if not _is_int(top) or top < 1 or top % 2 == 0 or top > MAX_ORDER:
                raise ConfigurationError(
                    f"'{key}' must be an odd order from 1 to the order bound {MAX_ORDER}, got {top}"
                )
        main, conj = (tuple(range(1, top + 1, 2)) for top in tops)
        _check_sets(main, conj, keys)
        return cls(main, conj)

    @property
    def n_branches(self) -> int:
        return len(self.main_orders) + len(self.conj_orders)


@record
class PolyBasis:
    """Per-branch polynomial coefficient tables u, one row per branch in
    the family's order, as the coefficient file lists them.

    Branch i of a family has the i + 1 lowest orders of the family as its
    members, and ``u_main[i]`` holds its coefficients over them (ascending),
    i.e. a row of a lower-triangular table. Each row is a read-only float64
    copy of the caller's, so nothing the caller holds can change a
    validated basis. Tables are real by construction, and the coefficient
    file writes each entry as one number.
    """

    mode: str
    sets: BranchSets
    u_main: tuple[np.ndarray, ...]
    u_conj: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.mode not in (PLAIN, ORTHOGONAL):
            raise ConfigurationError(f"unknown basis mode {self.mode!r}")
        for name, orders in (("u_main", self.sets.main_orders), ("u_conj", self.sets.conj_orders)):
            rows = tuple(np.array(row, dtype=np.float64) for row in getattr(self, name))
            for i, row in enumerate(rows):
                if row.ndim != 1:
                    raise ConfigurationError(f"'{name}[{i}]' is not a row: shape {row.shape}")
                row.flags.writeable = False
            _check_basis_rows(orders, rows, name)
            object.__setattr__(self, name, rows)

    @classmethod
    def plain(cls, sets: BranchSets) -> "PolyBasis":
        """Identity coefficient table: branches are pure monomials."""

        def identity(orders):
            return [np.eye(i + 1)[-1] for i in range(len(orders))]

        return cls(PLAIN, sets, identity(sets.main_orders), identity(sets.conj_orders))


def evaluate_branches(x, basis: PolyBasis) -> np.ndarray:
    """Every branch polynomial at x, double precision: one row per branch,
    main orders ascending, then conjugate (the `branch_slices` order), each
    row shaped like x.

    |x|^2 and its powers are computed once for the whole set, the powers by
    repeated products from 1. A branch's envelope is 0 + u[m] |x|^(m-1)
    summed over its member orders m from low to high, then multiplied by x
    or conj(x). These are plain numpy expressions with temporaries as long
    as x, so callers bound its length: `build_normal_equations` passes at
    most `_NORMAL_BLOCK_LEN` + l_max - 1 samples at a time.
    """
    x = np.asarray(x, dtype=np.complex128)
    r2 = x.real**2 + x.imag**2
    powers = [1.0]  # powers[j] = |x|^(2j)
    for _ in range((basis.sets.main_orders[-1] - 1) // 2):
        powers.append(powers[-1] * r2)
    rows = []
    for orders, table, base in (
        (basis.sets.main_orders, basis.u_main, x),
        (basis.sets.conj_orders, basis.u_conj, np.conj(x)),
    ):
        for u in table:
            envelope = 0.0
            for coeff, member in zip(u, orders):
                envelope = envelope + coeff * powers[(member - 1) // 2]
            rows.append(envelope * base)
    return np.array(rows)


def fit_orthogonal_basis(training: IqBuffer, sets: BranchSets) -> PolyBasis:
    """Orthogonalize both branch families over a training sample set.

    Uses the Cholesky factor of the sample moment matrix
    A[i,j] = mean(|x|^(m_i + m_j)): with psi = inv(L) @ phi the sample
    correlation matrix of the branch outputs is the identity. A[i,j]
    depends only on m_i + m_j, so each distinct moment of either family
    takes one pass over the training samples. The rows of inv(L) come
    from numpy's solve of L against the identity.
    """
    if len(training) < 10 * sets.n_branches:
        raise InsufficientDataError(
            f"need at least {10 * sets.n_branches} training samples for "
            f"{sets.n_branches} basis functions, got {len(training)}"
        )
    r2 = _abs2(training.samples)

    def _rms() -> float:
        return float(np.sqrt(np.mean(r2)))

    # mean(|x|^(2p)), once for each p = (m_i + m_j) / 2 within a family.
    ps = {(a + b) // 2 for fam in (sets.main_orders, sets.conj_orders) for a in fam for b in fam}
    mean = {p: float(np.mean(r2**p)) for p in ps}

    def family(orders: tuple[int, ...]) -> list[np.ndarray]:
        moments = np.array([[mean[(mi + mj) // 2] for mj in orders] for mi in orders])
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
        inv_chol = np.linalg.solve(chol, np.eye(len(orders)))
        return [inv_chol[i, : i + 1] for i in range(len(orders))]

    return PolyBasis(ORTHOGONAL, sets, family(sets.main_orders), family(sets.conj_orders))


@record
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
        sets = self.sets
        _check_structure(sets.main_orders, sets.conj_orders, self.taps_main, self.taps_conj)
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


@record
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
    lagged branch correlations summed block by block.

    Column (a, k) is psi_a delayed by k, so every Gram entry is a lagged
    correlation c_ab[d] = sum_m conj(psi_a[m]) psi_b[m + d] at d = k - l,
    and c_ab[-d] = conj(c_ba[d]). The all-ones column contributes the
    branch sums and the row count; A^H b is the same correlation against
    the target, read as zero past its end.

    m runs over ascending blocks of `_NORMAL_BLOCK_LEN` samples. A block
    evaluates the branches over its samples and the l_max - 1 after them,
    and stacks the real parts of the branches and the target, then their
    imaginary parts, as the rows of one real array x. One real product
    x[:, :m] @ x[:, d:d+m].T per lag d gives every sum of Re*Re, Im*Im,
    Re*Im and Im*Re, and conj(u) v = (Re u Re v + Im u Im v) +
    i (Re u Im v - Im u Re v). Nothing held grows with the buffer.
    ||b||^2 is `_power_sum(b)`, a numpy sum in a fixed order: a BLAS dot
    product would split it over as many threads as the CPU mask allows.
    """
    n = len(y)
    l_max = cfg.l_max
    if n < l_max:
        raise InsufficientDataError(f"buffer of {n} samples is shorter than {l_max} taps")
    rows = n + l_max - 1
    b = np.ascontiguousarray(target, dtype=np.complex128)
    if b.ndim != 1 or len(b) > rows:
        raise ConfigurationError(f"target of shape {b.shape} exceeds the {rows} matrix rows")

    slices = cfg.branch_slices()
    nb = len(slices)
    width = min(_NORMAL_BLOCK_LEN, n) + l_max - 1
    x = np.empty((2 * (nb + 1), width))
    parts = x.reshape(2, nb + 1, width)  # [Re, Im] x [branches..., target]
    lagged = np.zeros((l_max, len(x), len(x)))
    sums = np.zeros(nb, dtype=np.complex128)
    for s in range(0, n, _NORMAL_BLOCK_LEN):
        m = min(_NORMAL_BLOCK_LEN, n - s)
        psi = evaluate_branches(y.samples[s : s + m + l_max - 1], cfg.basis)
        t = b[s : s + m + l_max - 1]
        parts[0, :nb, : psi.shape[1]], parts[1, :nb, : psi.shape[1]] = psi.real, psi.imag
        parts[:, :nb, psi.shape[1] :] = 0.0
        parts[0, nb, : len(t)], parts[1, nb, : len(t)] = t.real, t.imag
        parts[:, nb, len(t) :] = 0.0
        sums += psi[:, :m].sum(axis=1)
        for d in range(l_max):
            lagged[d] += x[:, :m] @ x[:, d : d + m].T
    quad = lagged.reshape(l_max, 2, nb + 1, 2, nb + 1)
    # full[d, p, q] = sum_m conj(v_p[m]) v_q[m + d] over the rows v of x as complex.
    full = np.empty((l_max, nb + 1, nb + 1), dtype=np.complex128)
    full.real = quad[:, 0, :, 0] + quad[:, 1, :, 1]
    full.imag = quad[:, 0, :, 1] - quad[:, 1, :, 0]
    # corr[l_max - 1 + d, a, c] = c_ac[d] for d in -(l_max-1)..(l_max-1).
    corr = np.empty((2 * l_max - 1, nb, nb), dtype=np.complex128)
    corr[l_max - 1 :] = full[:, :nb, :nb]
    corr[: l_max - 1] = corr[: l_max - 1 : -1].conj().transpose(0, 2, 1)
    # proj[k, a] = sum_m conj(psi_a[m]) b[m + k]
    proj = full[:, :nb, nb]

    cols = cfg.n_coefficients
    gram = np.empty((cols, cols), dtype=np.complex128)
    rhs = np.empty(cols, dtype=np.complex128)
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
    return NormalEquations(gram, rhs, _power_sum(b))
