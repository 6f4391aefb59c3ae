"""Data-parallel digital predistortion toolkit.

A memory-polynomial predistorter with parallel main and conjugate branch
filter banks, indirect-learning training against a simulated nonlinear
transmit chain, spectral evaluation, and a chunked data-parallel
application engine that is bit-identical to its serial reference.
"""

from .analysis import (
    NMSE_FLOOR_DB,
    Spectrum,
    band_power_db,
    nmse_db,
    suppression_db,
    welch_psd,
    write_spectrum_csv,
)
from .basis import (
    AphConfig,
    BranchSets,
    NormalEquations,
    PolyBasis,
    build_normal_equations,
    evaluate_branches,
    fit_orthogonal_basis,
)
from .bench import BENCH_CSV_HEADER, BenchResult, make_bench_buffer, run_bench, write_bench_csv
from .config import (
    ExperimentConfig,
    coefficients_from_json_dict,
    coefficients_to_json_dict,
    load_experiment_config,
    parse_experiment_config,
)
from .exceptions import (
    ConditioningError,
    ConfigurationError,
    CorrectnessError,
    DegenerateInputError,
    DivergenceError,
    DpdError,
    InsufficientDataError,
)
from .impairments import (
    IqModulatorModel,
    PaModel,
    TxChain,
    iq_modulate,
    pa_evaluate,
    run_tx_chain,
)
from .iqfile import read_iq, write_iq
from .predistorter import (
    CoefficientVector,
    identity_coefficients,
    predistort_parallel,
    predistort_serial,
)
from .training import (
    IterationRecord,
    TrainingConfig,
    TrainingReport,
    estimate_gain,
    ila_train,
)
from .waveforms import (
    CarrierSpec,
    IqBuffer,
    compose_multicarrier,
    generate_carrier,
    normalize_power,
)

__version__ = "0.1.0"
