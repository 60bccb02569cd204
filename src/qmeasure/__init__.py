"""Numerical laboratory for repeated impulsive position measurements on a
1-D harmonic oscillator.

Three independent engines compute the effective uncertainty of each
measurement in a stroboscopic sequence: closed-form Gaussian packet
propagation, a Crank-Nicolson grid solver whose measurement gates are
Strang-split Gaussian filters, and eigenbasis filter-matrix chains.
"""

import os

# the process asks its BLAS for one thread unless the environment names a
# count: a second thread makes no command faster (on 2 cores, the median of
# five alternating processes, each the median of 7 warm runs, read 0.025
# against 0.026 s for `run`, 0.18 against 0.23 s for the default sweep and
# 0.27 against 0.29 s for the step sweep), and the output bytes depend on
# the thread count (engine C's a_tilde at a symmetric peak is 0 on one
# thread and +-1e-14 of roundoff on two); a process that imported numpy
# first keeps numpy's threads
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .collapse import (
    GridCoverageError,
    OutcomeDistribution,
    outcome_distribution,
)
from .gaussian_analytic import (
    GaussianPacket,
    evolve_free,
    evolve_measured,
    impulsive_uncertainty,
    stroboscopic_widths,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    TruncationError,
    ValidationReport,
    config_from_mapping,
    config_hash,
    cross_validate,
    distribution,
    emit,
    emit_distribution,
    load_config,
    run,
    sweep,
    validate_config,
)
from .oscillator import (
    EigenState,
    OscillatorBasis,
    QuadratureError,
    eigenfunction_matrix,
    free_phase_factors,
    gauss_legendre,
    position_moments,
    position_wavefunction,
    project_gaussian,
)
from .pde import (
    BoundaryLeakError,
    GridWavefunction,
    Lattice,
    crank_nicolson_evolve,
    effective_hamiltonian,
    run_stroboscopic,
    sample_gaussian,
)
from .stroboscopic import (
    ChainRecord,
    ChainUnderflowError,
    StroboscopicPlan,
    nth_outcome_distribution,
    qnd_commutator,
    uncertainty_evolution,
)
from .weights import (
    FILTER_KINDS,
    WeightMatrix,
    WeightSpec,
    evaluate_weight,
    measurement_coupling,
    weight_matrix,
)

__version__ = "0.1.0"
