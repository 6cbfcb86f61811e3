"""turbox: steady-state quantum-thermoelectric transport and the
minimal-variance boxcar transmission problem.

Public surface re-exported here; see the module docstrings for the
mathematical conventions (natural units, stable Fermi-tail evaluation,
multiplier sign conventions).
"""

from .analysis import (
    LinearResponseFrame,
    LinearTURResult,
    dqd_transmission,
    fano_opt_symmetric,
    fano_sweep,
    linear_tur_bound,
    symmetric_boxcar_width,
    theta_moments,
)
from .boxcar import (
    BoxcarSet,
    Multipliers,
    boxcar_integrals,
    multiplier_jacobian,
    residual,
    solve_boxcar,
)
from .errors import (
    ConvergenceError,
    FeasibilityError,
    FormulaMismatchError,
    NearBifurcationError,
    SingularityError,
    SolverError,
    TurboxError,
    ValidationError,
)
from .inverse import OptimalSolution, optimal_variance, solve_multipliers
from .oracle import (
    DiscreteSolution,
    GridCells,
    boxcar_defect,
    discretize,
    mass_window,
    solve_discrete,
    verify,
)
from .physics import (
    ReservoirPair,
    delta_f,
    epsilon_zero,
    fermi,
    fermi_fluct,
    g_noise,
    g_ratio,
    g_ratio_limits,
)
from .region import (
    CurrentBounds,
    JExtrema,
    RegionMap,
    bifurcation_curves,
    classify_topology,
    compute_region_map,
    current_bounds,
    j_extrema,
)
from .transport import (
    BoxcarTransmission,
    ClosedFormTransmission,
    TabulatedTransmission,
    Transmission,
    TransportSummary,
    currents,
    load_transmission_csv,
    summary,
    variance,
)

__version__ = "0.1.0"
