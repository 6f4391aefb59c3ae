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

Overflow follows the block runner's rule: the predistorter and the chain
(`run_tx_chain`) raise DivergenceError. For the kept coefficients, at the
baseline and in each iteration's training pass, that ends training; a
candidate whose validation overflows, or whose coefficients do not fit in
single precision, scores +inf and is rejected.

Everything is deterministic given the caller's waveform factory and the
seed: the stimuli and the solver, so two runs produce bit-identical
reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import nmse_db
from .basis import _MOMENT_COND_LIMIT, AphConfig, build_normal_equations
from .exceptions import (
    ConditioningError,
    ConfigurationError,
    DegenerateInputError,
    DivergenceError,
    InsufficientDataError,
)
from .impairments import TxChain, run_tx_chain
from .predistorter import CoefficientVector, identity_coefficients, predistort_serial
from .waveforms import IqBuffer


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TrainingReport:
    """Per-iteration records plus the no-predistortion baseline."""

    records: tuple[IterationRecord, ...]
    baseline_nmse_db: float

    def to_json_list(self) -> list[dict]:
        return [r.to_json_dict() for r in self.records]

    @property
    def nmse_db(self) -> list[float]:
        return [r.nmse_db for r in self.records]


def estimate_gain(pa_in: IqBuffer, pa_out: IqBuffer) -> complex:
    """Least-squares complex gain: argmin_g sum |pa_out - g*pa_in|^2."""
    if len(pa_in) != len(pa_out) or len(pa_in) == 0:
        raise ConfigurationError(
            f"buffers must be nonempty and equal length, got {len(pa_in)} vs {len(pa_out)}"
        )
    a = pa_in.samples.astype(np.complex128)
    b = pa_out.samples.astype(np.complex128)
    denom = float(np.sum(a.real**2 + a.imag**2))
    if denom == 0.0:
        raise DegenerateInputError("cannot estimate gain from an all-zero input")
    return complex(np.vdot(a, b) / denom)


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
    chain: TxChain, cfg: AphConfig, coeffs: CoefficientVector, stimulus: IqBuffer
) -> float:
    """NMSE (dB) between the gain-normalized chain output and the stimulus;
    DivergenceError when the predistorter or the chain overflows."""
    s = run_tx_chain(predistort_serial(stimulus, coeffs, cfg), chain)
    gain = estimate_gain(stimulus, s)
    if gain == 0:
        return float("inf")
    return nmse_db(s.samples.astype(np.complex128) / gain, stimulus.samples)


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
    coeffs = identity_coefficients(cfg)
    baseline_nmse = current_nmse = _linearization_nmse_db(chain, cfg, coeffs, validation)
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
        gain = estimate_gain(z, s)

        regressor = IqBuffer(
            (s.samples.astype(np.complex128) / gain).astype(np.complex64), s.sample_rate_hz
        )
        normal = build_normal_equations(regressor, z.samples, cfg)
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
                candidate_nmse = _linearization_nmse_db(chain, cfg, candidate, validation)
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
