"""Indirect-learning training of the predistorter coefficients.

Each iteration drives the simulated transmit chain with a fresh
seed-derived waveform, scales the feedback by the estimated complex chain
gain, regresses the predistorter input on the scaled feedback, and solves
a ridge-stabilized least-squares problem in double precision.

The regression never forms its rows x cols matrix A. Its normal
equations A^H A and A^H b come straight from lagged correlations of the
branch sequences (`basis.build_normal_equations`), and the small
cols x cols system is solved by Cholesky (`_lstsq_ridge`). The data
residual ||A h - b|| follows from those two and ||b||^2.

Plain iterate-and-replace learning is not a descent method: near its
fixed point consecutive fits wander by several dB (near-degenerate
regressor directions, PA behavior outside the model class). So each new
fit is a *candidate*: it replaces the current coefficients only if it does
not worsen the linearization NMSE on a fixed validation stimulus made once
per session. The per-iteration NMSE series is then non-increasing by
construction, and the final coefficients are the best validated ones.

Each piece of work is done once where it can be:
* once per session: the validation stimulus, its complex128 copy and its
  energy sum |x|^2, which every gate's gain and NMSE share;
* once per iteration: the stimulus, its predistortion z and chain output
  s, one complex128 copy of each (z serves both the gain and the target
  of the normal equations; s is divided by the gain in place), the normal
  equations, which evaluate the branch set one block at a time and hold
  nothing as long as the stimulus, and their solve;
* once per gate: the candidate's predistortion and chain output, cast to
  complex128 once, then divided by the gain and reduced to the error in
  place.
The reference lives in `ila_train`'s frame, never in a module-level cache,
so sessions run back to back in one process share nothing.

Overflow follows the block runner's rule: the predistorter and the chain
(`run_tx_chain`) raise DivergenceError. For the kept coefficients, at the
baseline and in each iteration's training pass, that ends training; a
candidate whose validation overflows, or whose coefficients do not fit in
single precision, scores +inf and is rejected.

Everything is deterministic given the caller's waveform factory and the
seed: the stimuli and the solver, so two runs produce bit-identical
reports, on any CPU mask.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .basis import _MOMENT_COND_LIMIT, AphConfig, build_normal_equations
from .blocks import BLOCK_LEN
from .exceptions import (
    ConditioningError,
    ConfigurationError,
    DegenerateInputError,
    DivergenceError,
    InsufficientDataError,
)
from .impairments import TxChain, run_tx_chain
from .predistorter import CoefficientVector, identity_coefficients, predistort_serial
from .waveforms import IqBuffer, _power_sum

# The linearization NMSE's floor, in dB: below it the residual is
# indistinguishable from representation noise.
NMSE_FLOOR_DB = -300.0


@record
class TrainingConfig:
    """Knobs of one training session.

    seed is the base seed of the stimuli: the validation stimulus uses it,
    iteration i uses seed + i.
    """

    n_training_samples: int
    iterations: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.n_training_samples < 1:
            raise ConfigurationError(
                f"n_training_samples must be >= 1, got {self.n_training_samples}"
            )
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@record
class IterationRecord:
    """State after one training iteration (the kept state, not necessarily
    the fresh candidate: `accepted` says whether the candidate replaced it).

    candidate_nmse_db is the fresh candidate's validation NMSE (None when
    its evaluation diverged); ridge_lambda is the lambda its solve used.
    """

    iteration: int
    coefficients: CoefficientVector
    nmse_db: float
    candidate_nmse_db: float | None
    residual_norm: float
    condition_estimate: float
    ridge_lambda: float
    gain: complex
    accepted: bool

    def to_json_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "nmse_db": self.nmse_db,
            "candidate_nmse_db": self.candidate_nmse_db,
            "residual_norm": self.residual_norm,
            "condition_estimate": self.condition_estimate,
            "ridge_lambda": self.ridge_lambda,
            "gain": [self.gain.real, self.gain.imag],
            "accepted": self.accepted,
            "coefficients": [[float(v.real), float(v.imag)] for v in self.coefficients.h],
        }


@record
class TrainingReport:
    """Per-iteration records plus the no-predistortion baseline."""

    records: tuple[IterationRecord, ...]
    baseline_nmse_db: float

    def to_json_list(self) -> list[dict]:
        return [r.to_json_dict() for r in self.records]

    @property
    def nmse_db(self) -> list[float]:
        return [r.nmse_db for r in self.records]


def _gain(a: np.ndarray, b: np.ndarray, a_energy: float) -> complex:
    """The least-squares complex gain argmin_g sum |b - g*a|^2 of
    complex128 samples, given sum |a|^2: sum conj(a) b / sum |a|^2.

    The cross term sum conj(a) b is summed by numpy, one block of
    `BLOCK_LEN` products at a time in ascending order, in one workspace.
    np.vdot would hand it to BLAS, which splits a long dot product over
    as many threads as the CPU mask allows, so its bits would follow the
    mask.
    """
    if a_energy == 0.0:
        raise DegenerateInputError("cannot estimate gain from an all-zero input")
    cross = 0j
    products = np.empty(min(BLOCK_LEN, a.size), dtype=np.complex128)
    for start in range(0, a.size, BLOCK_LEN):
        block = products[: min(BLOCK_LEN, a.size - start)]
        np.conjugate(a[start : start + block.size], out=block)
        np.multiply(block, b[start : start + block.size], out=block)
        cross += complex(np.add.reduce(block))
    return cross / a_energy


def normal_matrix_condition(normal: np.ndarray) -> float:
    """2-norm condition number of a Hermitian normal matrix from its
    eigenvalues; inf when it is not positive definite."""
    eig = np.linalg.eigvalsh(normal)
    return float(eig[-1] / eig[0]) if eig[0] > 0 else float("inf")


def _lstsq_ridge(
    gram: np.ndarray, rhs: np.ndarray, ridge_lambda: float
) -> tuple[np.ndarray, float]:
    """Solve the ridge normal equations (G + lambda I) h = r in double precision.

    G = A^H A and r = A^H b are the normal equations of
    min ||A h - b||^2 + lambda ||h||^2; the solve is a Cholesky
    factorization of G + lambda I and two triangular solves. Returns
    (h, cond(G + lambda I)), the condition number from the eigenvalues,
    which equals the squared condition number of the stacked ridge matrix
    [A; sqrt(lambda) I]. Raises ConditioningError when the factorization
    fails, or when lambda = 0 and the condition number exceeds the
    package's singularity limit (basis._MOMENT_COND_LIMIT): the
    unregularized problem is then numerically rank-deficient.
    """
    normal = gram + ridge_lambda * np.eye(gram.shape[0])
    cond = normal_matrix_condition(normal)
    if ridge_lambda == 0.0 and cond > _MOMENT_COND_LIMIT:
        raise ConditioningError(
            f"regression matrix is numerically singular (cond(A^H A) ~ {cond:.3g})",
            condition_estimate=cond,
        )
    try:
        chol = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as err:
        raise ConditioningError(
            f"normal matrix is not positive definite: {err}", condition_estimate=cond
        ) from err
    h = np.linalg.solve(chol.conj().T, np.linalg.solve(chol, rhs))
    return h, cond


def _single_precision(h: np.ndarray) -> CoefficientVector | None:
    """A solve cast to single precision, or None when a coefficient does
    not fit: that candidate has diverged."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = h.astype(np.complex64)
    return CoefficientVector(h) if np.all(np.isfinite(h)) else None


def _linearization_nmse_db(
    chain: TxChain,
    cfg: AphConfig,
    coeffs: CoefficientVector,
    stimulus: IqBuffer,
    reference: np.ndarray,
    reference_energy: float,
) -> float:
    """NMSE (dB) between the gain-normalized chain output and the stimulus;
    DivergenceError when the predistorter or the chain overflows.

    `reference` is the stimulus x in complex128 and `reference_energy` its
    sum |x|^2, both made once per session. The output s is cast to
    complex128 once, then divided by its gain (`_gain`) and reduced to the
    error in place: sum |s/gain - x|^2 / sum |x|^2 in dB, each sum taken
    by `_power_sum`, floored at NMSE_FLOOR_DB.
    """
    s = run_tx_chain(predistort_serial(stimulus, coeffs, cfg), chain)
    err = s.samples.astype(np.complex128)
    gain = _gain(reference, err, reference_energy)
    if gain == 0:
        return float("inf")
    np.divide(err, gain, out=err)
    np.subtract(err, reference, out=err)
    ratio = _power_sum(err) / reference_energy
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return 10.0 * float(np.log10(ratio))


def ila_train(
    chain: TxChain,
    cfg: AphConfig,
    tcfg: TrainingConfig,
    make_waveform,
) -> tuple[CoefficientVector, TrainingReport]:
    """Train predistorter coefficients against a simulated transmit chain.

    make_waveform(n, seed) -> IqBuffer supplies the stimuli (the CLI passes
    the config's `waveform_factory()`). Iteration i trains on seed+i; the
    validation stimulus uses the base seed and never changes.

    Raises DivergenceError when the kept coefficients' chain overflows, or
    when the untrained chain's NMSE is 0 dB or worse, the score of an
    all-zero output: the drive is then far past the chain model's range
    and no candidate can be trusted.
    """
    n_coeff = cfg.n_coefficients
    m = tcfg.n_training_samples
    if m < 10 * n_coeff:
        raise InsufficientDataError(
            f"n_training_samples={m} is below 10x the coefficient count ({10 * n_coeff})"
        )
    validation = make_waveform(m, tcfg.seed)
    reference = validation.samples.astype(np.complex128)
    reference_energy = _power_sum(reference)

    def gate(candidate: CoefficientVector) -> float:
        return _linearization_nmse_db(
            chain, cfg, candidate, validation, reference, reference_energy
        )

    coeffs = identity_coefficients(cfg)
    baseline_nmse = current_nmse = gate(coeffs)
    if baseline_nmse >= 0.0:
        raise DivergenceError(
            f"baseline NMSE {baseline_nmse:+.2f} dB is no better than a zero output: "
            f"the validation stimulus (RMS {validation.rms():.4g}) drives the chain "
            "far past its model's range; reduce the drive level"
        )

    records: list[IterationRecord] = []
    for i in range(1, tcfg.iterations + 1):
        z = predistort_serial(make_waveform(m, tcfg.seed + i), coeffs, cfg)
        s = run_tx_chain(z, chain)
        target = z.samples.astype(np.complex128)
        feedback = s.samples.astype(np.complex128)
        gain = _gain(target, feedback, _power_sum(target))
        np.divide(feedback, gain, out=feedback)

        regressor = IqBuffer(feedback.astype(np.complex64), s.sample_rate_hz)
        normal = build_normal_equations(regressor, target, cfg)
        # Proportional to the mean Gram diagonal: strong enough to absorb
        # degenerate regressor directions, far too weak to bias a
        # well-posed fit.
        lam = 1e-8 * float(np.trace(normal.gram).real) / len(normal.rhs)
        h, cond = _lstsq_ridge(normal.gram, normal.rhs, lam)
        residual = normal.residual_norm(h)
        candidate = _single_precision(h)

        candidate_nmse = float("inf")
        if candidate is not None:
            try:
                candidate_nmse = gate(candidate)
            except DivergenceError:
                pass
        accepted = candidate_nmse <= current_nmse
        if accepted:
            coeffs = candidate
            current_nmse = candidate_nmse
        records.append(
            IterationRecord(
                iteration=i,
                coefficients=coeffs,
                nmse_db=current_nmse,
                candidate_nmse_db=candidate_nmse if np.isfinite(candidate_nmse) else None,
                residual_norm=residual,
                condition_estimate=cond,
                ridge_lambda=lam,
                gain=gain,
                accepted=accepted,
            )
        )

    return coeffs, TrainingReport(tuple(records), baseline_nmse)
