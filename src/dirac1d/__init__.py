"""Solvers and benchmarks for the 1D two-component Dirac equation.

The governed equation on a periodic interval (a, b), with a small parameter
0 < eps <= 1 scaling the electromagnetic potentials, is

    i dPhi/dt = (-i sigma1 d/dx + sigma3) Phi
                + eps (V(t,x) I2 - A1(t,x) sigma1) Phi.

Eleven schemes are provided, built by `make_stepper`: four time
discretizations (Crank-Nicolson, two semi-implicit, leap-frog) over two
space operators, the centered difference (cnfd, sifd1, sifd2, lffd) and the
Fourier derivative (cnfp, sifp1, sifp2, lffp), the Strang splitting over
the latter (tsfp), and the flow exact in time over either (exfd, exfp);
every reference is a run of tsfp, exfp or exfd.  The harness measures
errors against reference solutions over the long horizon t = T0/eps and
emits convergence tables as CSV.
"""

from .errors import (
    ConfigurationError,
    Dirac1DError,
    SolverError,
    StabilityError,
)
from .grid import (
    SpinorField,
    TorusGrid,
    norm,
    subsample,
)
from .model import (
    DiracProblem,
    PotentialPair,
    ProblemSetup,
    check_bounds,
    current,
    density,
    energy,
    mass,
    preset,
    zero_potentials,
)
from .stepping import SolverDiagnostics, Stepper
from .schemes import (ALL_SCHEMES, UNBOUNDED, EXStepper, StabilityVerdict, TSFPStepper,
                      free_dirac_exact, make_stepper, tau_max, validate)
from .reference import (
    ReferenceCache,
    ReferenceConfig,
    ReferenceSolution,
    load_reference,
    reference_cache_key,
    reference_solution,
    save_reference,
)
from .harness import (
    ConvergenceTable,
    ErrorReport,
    ErrorSeries,
    SchemeConfig,
    SimulationResult,
    compare_over_time,
    convergence_table,
    emit_csv,
    emit_plot_data,
    epsilon_sweep_spatial,
    epsilon_sweep_temporal,
    measure_errors,
    run_simulation,
)
from .expressions import Expression, ExpressionError

__version__ = "0.1.0"
