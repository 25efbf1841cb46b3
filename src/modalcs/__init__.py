"""Mode-shape and frequency estimation from compressive vibration samples.

The pipeline: solve an MDOF system for its modal basis, sample the analytic
response on a uniform or random schedule (optionally compressing with a
random matrix), and recover mode shapes as left singular vectors of the
data matrix.  Companion modules provide the sampling-requirement bounds,
classical baselines (FDD, sparse reconstruction), and the experiment
harness behind the ``modal-cs`` CLI.
"""

from .baselines import (
    CsdCube,
    SparseRecovery,
    fdd_peaks,
    sparse_reconstruct,
    welch_csd,
)
from .bounds import (
    gershgorin_uniform_bound,
    gram_deviation,
    jl_tail_rate,
    mode_error_bound,
    random_requirements,
    uniform_requirements,
)
from .config import (
    EXPERIMENTS,
    ExperimentConfig,
    build_basis,
    preset,
    preset_config,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    InsufficientPeaks,
    InvalidArgument,
    IoError,
    ModalcsError,
    NonPositiveEigenvalue,
    NonUniformSchedule,
    NotSymmetric,
    ParseError,
    RaggedRows,
    ShapeError,
)
from .estimator import (
    ModeEstimate,
    align_and_error,
    estimate_modes,
    frequency_spectra,
)
from .mdof import (
    MdofSystem,
    ModalBasis,
    solve_modes,
)
from .results import (
    ResultTable,
    emit_plot_data,
    load_sensor_csv,
    save_sensor_csv,
    write_result_csv,
)
from .runner import run_experiment
from .sampling import (
    DataMatrix,
    JlMatrix,
    SampleSchedule,
    build_data_matrix,
    build_steering,
    compress,
    draw_jl_matrix,
    random_schedule,
    uniform_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CsdCube",
    "DataMatrix",
    "DimensionMismatch",
    "DomainError",
    "EXPERIMENTS",
    "ExperimentConfig",
    "InsufficientPeaks",
    "InvalidArgument",
    "IoError",
    "JlMatrix",
    "MdofSystem",
    "ModalBasis",
    "ModalcsError",
    "ModeEstimate",
    "NonPositiveEigenvalue",
    "NonUniformSchedule",
    "NotSymmetric",
    "ParseError",
    "RaggedRows",
    "ResultTable",
    "SampleSchedule",
    "ShapeError",
    "SparseRecovery",
    "align_and_error",
    "build_basis",
    "build_data_matrix",
    "build_steering",
    "compress",
    "draw_jl_matrix",
    "emit_plot_data",
    "estimate_modes",
    "fdd_peaks",
    "frequency_spectra",
    "gershgorin_uniform_bound",
    "gram_deviation",
    "jl_tail_rate",
    "load_sensor_csv",
    "mode_error_bound",
    "preset",
    "preset_config",
    "random_requirements",
    "random_schedule",
    "run_experiment",
    "save_sensor_csv",
    "solve_modes",
    "sparse_reconstruct",
    "uniform_requirements",
    "uniform_schedule",
    "welch_csd",
    "write_result_csv",
]
