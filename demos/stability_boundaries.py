"""Step-size limits of the conditionally stable schemes, checked empirically.

For each scheme the closed-form bound tau_max(h, V_max, A_max) is printed,
then the free problem is run just inside (0.95x) and just outside (1.5x)
the bound: inside, the norm stays put; outside, the leap-frog runs blow up
within a few dozen steps.
"""

import numpy as np

from dirac1d import (
    DiracProblem,
    SchemeConfig,
    SpinorField,
    TorusGrid,
    norm,
    run_simulation,
    tau_max,
    validate,
    zero_potentials,
)

grid = TorusGrid(0.0, 2 * np.pi, 64)
rng = np.random.default_rng(0)
smooth = np.stack((np.exp(1j * grid.x) / (2 + np.sin(grid.x)),
                   np.cos(grid.x) / (2 + np.cos(grid.x)) + 0j))
phi0 = SpinorField(grid, smooth + 1e-8 * rng.standard_normal((2, grid.N)))
phi0.values /= norm(phi0, "l2")
problem = DiracProblem(grid, 0.0, zero_potentials(), phi0, T0=1.0)

print(f"free problem, h = pi/{int(round(np.pi/grid.h))}")
for scheme in ("sifd1", "sifp1", "lffd", "lffp"):
    bound = tau_max(scheme, grid.h, 0.0, 0.0)
    print(f"\n{scheme}: tau_max = {bound:.6g}")
    for factor, steps in ((0.95, 10_000), (1.5, 2000)):
        tau = factor * bound
        verdict = validate(scheme, grid.h, tau, 0.0, 0.0)
        result = run_simulation(problem, SchemeConfig(
            scheme, tau, t_final=steps * tau,
            override_stability=True, stop_norm_ratio=1e4))
        where = f" (stopped at step {result.blowup_step})" if result.blew_up else ""
        print(f"  tau = {factor:4.2f}*tau_max  validator: {'ok' if verdict.ok else 'VIOLATED':9s}"
              f" max ||Phi||/||Phi0|| = {result.max_norm_ratio:.3e}{where}")
