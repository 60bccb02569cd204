"""Numerical laboratory for repeated impulsive position measurements on a
1-D harmonic oscillator.

Three independent engines compute the effective uncertainty of each
measurement in a stroboscopic sequence: closed-form Gaussian packet
propagation, a Crank-Nicolson grid solver whose measurement gates are
Strang-split Gaussian filters, and eigenbasis filter-matrix chains.
"""

import os

# a sweep runs its chains on one thread per CPU (see `harness`), so the
# process asks its BLAS for one thread unless the environment names a count:
# spare BLAS threads contend with the chains for the cores (on 2 cores the
# default sweep took 1.5-1.8 s this way, 2.2-2.7 s with two BLAS threads); a
# process that imported numpy first keeps numpy's threads
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
    critical_time,
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
    Quadrature,
    basis_quadrature,
    eigenfunction,
    eigenfunction_matrix,
    free_phase_factors,
    gauss_legendre,
    level_energies,
    position_moments,
    position_wavefunction,
    project_gaussian,
)
from .pde import (
    BoundaryLeakError,
    GridWavefunction,
    Lattice,
    StepFilterUnsupportedError,
    crank_nicolson_evolve,
    effective_hamiltonian,
    run_stroboscopic,
    sample_gaussian,
)
from .stroboscopic import (
    AsymptoticResult,
    ChainRecord,
    ChainUnderflowError,
    StroboscopicPlan,
    apply_chain,
    asymptotic_uncertainty,
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
