"""Low density limit toolkit: pairing diagrams, finite-epsilon correlation
functions of smeared boson number operators, their limiting coefficients,
free white-noise checks, Poisson statistics, and a symbolic engine for the
limiting generator algebra."""

# The only copy of the version (pyproject.toml and the CLI read it); set
# before the submodule imports so that any of them may import it.
__version__ = "0.1.0"

from .partitions import (
    DiagramClass,
    PairDiagram,
    bell,
    classify,
    enumerate_pair_diagrams,
    enumerate_set_partitions,
    irreducible_diagrams,
    stirling2,
    surviving_diagram,
    touchard,
)
from .spectral import (
    EnergyGrid,
    LimitCoefficient,
    ShellKernel,
    SpectralModel,
    free_moment,
    limit_truncated_coefficient,
    limit_truncated_smeared,
    make_model,
    radial_to_shell,
    rank_one_kernel,
    star_product,
    state_expectation,
)
from .symbols import FrequencyIndex, NumberSymbol, TestFunction, product_integral
from .finite_eps import (
    PairingTerm,
    correlation_fixed_times,
    correlation_smeared,
    convergence_sweep,
    delta_lemma_check,
    pairing_term_smeared,
    resolution_warnings,
    truncated_smeared,
    two_point,
)
from .statistics import (
    CorrelationFamily,
    GridAlignmentError,
    cumulants_from_moments,
    full_from_truncated,
    independence_probe,
    limit_cumulant,
    moments_from_cumulants,
    poisson_cumulants,
    poisson_model,
    poisson_moments,
    reference_box,
    truncated_from_full,
)
from .white_noise import (
    Coefficient,
    VacuumExpectation,
    VacuumTerm,
    WnExpression,
    WnGenerator,
    WnTerm,
    annihilator,
    canonicalize,
    commutator,
    creator,
    evaluate_symbolic,
    gauge,
    normal_order,
    number_symbol_expansion,
    vacuum_expectation,
)
from .report import ConvergenceReport, SweepRow, write_sidecar
from .config import ConfigError, default_config, load_config, model_from_config, symbols_from_config
