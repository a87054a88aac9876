"""End-to-end acceptance checks: conservation, benchmark-table reproduction,
stability boundaries, oracle refinement, time reversal, expanding domains.

Each check prints a PASS/FAIL line (run with `pytest -s` to see them all).
The heavy table reproductions take minutes; everything else is seconds.
"""

import time

import numpy as np
import pytest

import dirac1d.model as model
from dirac1d import (
    ReferenceConfig,
    SchemeConfig,
    SpinorField,
    TorusGrid,
    convergence_table,
    epsilon_sweep_spatial,
    epsilon_sweep_temporal,
    free_dirac_exact,
    make_stepper,
    measure_errors,
    norm,
    preset,
    run_simulation,
    tau_max,
    zero_potentials,
)

pytestmark = pytest.mark.acceptance

PI = np.pi


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def seeded_stability_field(grid, seed=0, noise=1e-8):
    """Smooth unit-norm data plus a tiny broadband seed.

    The seed guarantees every Fourier mode carries energy, so an unstable
    mode grows from the first step rather than from rounding noise, while
    the smooth bulk keeps the neutrally-stable runs representative.
    """
    rng = np.random.default_rng(seed)
    smooth = np.stack((np.exp(1j * grid.x) / (2.0 + np.sin(grid.x)),
                       np.cos(grid.x) / (2.0 + np.cos(grid.x)) + 0j))
    v = smooth + noise * (rng.standard_normal((2, grid.N))
                          + 1j * rng.standard_normal((2, grid.N)))
    f = SpinorField(grid, v)
    f.values /= norm(f, "l2")
    return f


def bandlimited_phi0(x):
    """Trig polynomial with modes |l| <= 2.

    The divisor does not normalize it: on (0, 2 pi) its discrete l2 norm is
    ~1.748, so bounds that scale with the data take norm(phi0, "l2").
    """
    c1 = 0.6 * np.exp(1j * x) + 0.25 * np.exp(-2j * x) + 0.1
    c2 = 0.5 * np.exp(-1j * x) + 0.2 * np.exp(2j * x)
    return np.stack((c1, c2)) / 1.2186057606953941


def free_problem_on(N, phi0_func, T0=2.0):
    grid = TorusGrid(0.0, 2 * PI, N)
    return model.DiracProblem(grid, 0.0, zero_potentials(),
                              SpinorField(grid, phi0_func(grid.x)), T0=T0)


# ---------------------------------------------------------------------------
# 1. conservation: CNFD and CNFP, 1e4 steps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["cnfd", "cnfp"])
def test_conservation_10k_steps(scheme):
    prob = preset("periodic-s51", 1.0).discretize(h=PI / 16)
    config = SchemeConfig(scheme, 0.01, t_final=100.0, record="mass+energy")
    res = run_simulation(prob, config)
    mass_drift = np.abs(res.mass_series - res.mass_series[0]).max() / res.mass_series[0]
    e0 = res.energy_series[0]
    energy_drift = np.abs(res.energy_series - e0).max() / (1.0 + abs(e0))
    ok = report(
        f"conservation {scheme}", mass_drift <= 1e-10 and energy_drift <= 1e-9,
        f"mass drift {mass_drift:.2e} (tol 1e-10), energy drift {energy_drift:.2e} "
        f"(tol 1e-9) over {res.n_steps} steps in {res.wall_time:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. simultaneous-refinement table for CNFD on the torus benchmark
# ---------------------------------------------------------------------------

# baseline wave-function errors e_phi(t = 2/eps) for the torus benchmark,
# ladder (pi/64, 0.05)/2^k; acceptance band is a factor of 2 per cell
CNFD_BASELINE_EPHI = {
    1.0:    [3.40e-2, 8.53e-3, 2.14e-3, 5.34e-4],
    0.25:   [4.02e-2, 1.03e-2, 2.57e-3, 6.43e-4],
    0.0625: [1.19e-1, 3.34e-2, 8.50e-3, 2.13e-3],
}


@pytest.fixture(scope="module")
def cnfd_refinement_table():
    setup = preset("periodic-s51", 1.0)
    t0 = time.perf_counter()
    table = convergence_table(
        setup, "cnfd", [1.0, 0.25, 0.0625], PI / 64, 0.05, 4,
        reference=ReferenceConfig(h_e=PI / 512, tau_e=5e-4, min_space_ratio=1.0),
        workers=2,
    )
    table.wall = time.perf_counter() - t0
    return table


def test_cnfd_table_errors_match_baseline(cnfd_refinement_table):
    table = cnfd_refinement_table
    e = table.errors("e_phi")
    lines, ok = [], True
    for i, eps in enumerate(table.eps_list):
        for k, want in enumerate(CNFD_BASELINE_EPHI[eps]):
            got = e[i, k]
            cell_ok = np.isfinite(got) and want / 2 <= got <= want * 2
            ok &= cell_ok
            lines.append(f"eps={eps:g},k={k}: {got:.3e} vs {want:.2e}")
    # density error at the eps = 1 head cell (baseline 3.67e-2, factor 2)
    rho_got = table.errors("e_rho")[0, 0]
    ok &= 3.67e-2 / 2 <= rho_got <= 3.67e-2 * 2
    lines.append(f"e_rho eps=1,k=0: {rho_got:.3e} vs 3.67e-02")
    assert report("cnfd refinement errors", ok,
                  f"{'; '.join(lines)} ({table.wall:.0f}s)")


def test_cnfd_table_upper_triangle_orders(cnfd_refinement_table):
    table = cnfd_refinement_table
    orders = table.orders("e_phi")
    checked, ok = [], True
    for i, eps in enumerate(table.eps_list):
        start = max(1, table.diagonal_index(eps))
        for k in range(start, table.levels):
            o = orders[i, k]
            ok &= np.isfinite(o) and abs(o - 2.0) <= 0.15
            checked.append(f"eps={eps:g},k={k}: {o:.2f}")
    assert report("cnfd refinement orders", ok,
                  "upper-triangle orders within 2.0 +/- 0.15: " + "; ".join(checked))


# ---------------------------------------------------------------------------
# 3. spectral spatial accuracy pattern for LFFP
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lffp_spatial_table():
    setup = preset("periodic-s51", 1.0)
    t0 = time.perf_counter()
    table = epsilon_sweep_spatial(
        setup, "lffp", [1.0, 0.25, 0.0625], PI / 4, 3, 1e-4,
        reference=ReferenceConfig(), workers=2,
    )
    table.wall = time.perf_counter() - t0
    return table


def test_lffp_spatial_superalgebraic_drop(lffp_spatial_table):
    table = lffp_spatial_table
    e = table.errors("e_phi")
    drops = e[:, 1] / e[:, 2]  # transition into the resolved mesh
    ok = bool(np.all(np.isfinite(e)) and np.all(drops >= 30.0))
    detail = "; ".join(
        f"eps={eps:g}: " + " ".join(f"{v:.3e}" for v in e[i]) + f" (drop {drops[i]:.0f})"
        for i, eps in enumerate(table.eps_list)
    )
    assert report("lffp spatial super-algebraic drop", ok,
                  detail + f" ({table.wall:.0f}s)")


def test_lffp_spatial_eps_uniform_columns(lffp_spatial_table):
    # The spectral spatial error has an upper bound uniform in eps up to
    # t = T0/eps; checked here as: in each h column no eps < 1 row exceeds the
    # eps = 1 row.  The bound is one-sided: on the unresolved meshes
    # (h = pi/4, pi/8) the error falls as eps falls, down to ~0.1x the eps = 1
    # entry.  On the resolved column (h = pi/16) the rows must also agree
    # within a factor 10.
    table = lffp_spatial_table
    e = table.errors("e_phi")
    assert table.eps_list[0] == 1.0
    above = (e[1:] / e[0]).max(axis=0)
    resolved = e[:, -1].max() / e[:, -1].min()
    ok = bool(np.all(np.isfinite(e)) and np.all(above <= 1.0) and resolved < 10.0)
    assert report(
        "lffp spatial eps-uniform columns", ok,
        "per-column max over eps < 1 of e(eps)/e(eps=1): "
        + ", ".join(f"{r:.2f}" for r in above)
        + f" (each <= 1); resolved-column max/min {resolved:.2f} (< 10)",
    )


# ---------------------------------------------------------------------------
# 4. temporal sweep pattern for LFFP at small eps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lffp_temporal_table():
    setup = preset("periodic-s51", 1.0)
    t0 = time.perf_counter()
    table = epsilon_sweep_temporal(
        setup, "lffp", [2.0 ** -6, 2.0 ** -8], 0.01, 5, PI / 16,
        reference=ReferenceConfig(), workers=2,
    )
    table.wall = time.perf_counter() - t0
    return table


def test_lffp_temporal_orders(lffp_temporal_table):
    table = lffp_temporal_table
    orders = table.orders("e_phi")
    checked, ok = [], True
    for i, eps in enumerate(table.eps_list):
        for k in range(max(1, table.diagonal_index(eps)), table.levels):
            o = orders[i, k]
            ok &= np.isfinite(o) and abs(o - 2.0) <= 0.15
            checked.append(f"eps=2^{int(np.log2(eps))},k={k}: {o:.2f}")
    # least-squares slope over the fully-resolved row in log-log
    e = table.errors("e_phi")[0]
    slope = np.polyfit(np.arange(table.levels) * np.log(2.0), -np.log(e), 1)[0]
    ok &= abs(slope - 2.0) <= 0.15
    assert report("lffp temporal orders", ok,
                  "diagonal-and-above orders within 2.0 +/- 0.15: "
                  + "; ".join(checked)
                  + f"; fitted slope {slope:.3f} ({table.wall:.0f}s)")


def test_lffp_temporal_first_cell(lffp_temporal_table):
    got = lffp_temporal_table.errors("e_phi")[0, 0]
    ok = 1.72e-2 / 2 <= got <= 1.72e-2 * 2
    assert report("lffp temporal first cell", ok,
                  f"e_phi(tau=0.01, eps=2^-6) = {got:.3e} vs baseline 1.72e-2 (factor 2)")


# ---------------------------------------------------------------------------
# 5. stability boundaries on the free problem
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["lffd", "lffp"])
def test_leapfrog_cfl_boundary(scheme):
    grid = TorusGrid(0.0, 2 * PI, 64)  # h = pi/32
    phi0 = seeded_stability_field(grid, seed=3)
    prob = model.DiracProblem(grid, 0.0, zero_potentials(), phi0, T0=1.0)
    bound = tau_max(scheme, grid.h, 0.0, 0.0)

    tau_ok = 0.95 * bound
    res = run_simulation(prob, SchemeConfig(scheme, tau_ok, t_final=10_000 * tau_ok,
                                            stop_norm_ratio=10.0))
    stable_ratio = res.max_norm_ratio
    stable = (not res.blew_up) and stable_ratio <= 2.0

    tau_bad = 1.5 * bound
    res_bad = run_simulation(prob, SchemeConfig(scheme, tau_bad, t_final=2000 * tau_bad,
                                                override_stability=True,
                                                stop_norm_ratio=1e4))
    exploded = res_bad.max_norm_ratio >= 1e3
    ok = report(
        f"cfl boundary {scheme}", stable and exploded,
        f"0.95*tau_max: max norm ratio {stable_ratio:.3f} over 1e4 steps (<= 2); "
        f"1.5*tau_max: ratio {res_bad.max_norm_ratio:.2e} by step "
        f"{res_bad.blowup_step} (>= 1e3)",
    )
    assert ok


@pytest.mark.parametrize("scheme,tau_factor", [("sifd1", 0.9), ("sifp1", 0.9)])
def test_semi_implicit_stable_inside_bound(scheme, tau_factor):
    grid = TorusGrid(0.0, 2 * PI, 64)
    phi0 = seeded_stability_field(grid, seed=4)
    prob = model.DiracProblem(grid, 0.0, zero_potentials(), phi0, T0=1.0)
    tau = tau_factor * tau_max(scheme, grid.h, 0.0, 0.0)
    res = run_simulation(prob, SchemeConfig(scheme, tau, t_final=10_000 * tau,
                                            stop_norm_ratio=10.0))
    ok = report(f"stable step {scheme}", (not res.blew_up) and res.max_norm_ratio <= 2.0,
                f"tau = {tau_factor}*tau_max: max norm ratio {res.max_norm_ratio:.3f} "
                "over 1e4 steps (<= 2)")
    assert ok


# ---------------------------------------------------------------------------
# 6. oracle equivalence at eps = 0
# ---------------------------------------------------------------------------

ALL_SCHEMES = ("cnfd", "sifd1", "sifd2", "lffd", "cnfp", "sifp1", "sifp2", "lffp")


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_free_oracle_refinement_drop(scheme):
    errors = []
    for k in range(3):
        N, tau = 16 * 2 ** k, 0.02 / 2 ** k
        prob = free_problem_on(N, bandlimited_phi0)
        res = run_simulation(prob, SchemeConfig(scheme, tau, t_final=2.0, record="none"))
        exact = free_dirac_exact(prob.phi0, 2.0)
        errors.append(measure_errors(res.final, exact).e_phi)
    drops = [errors[k] / errors[k + 1] for k in range(2)]
    ok = all(3.4 <= r <= 4.6 for r in drops)
    assert report(f"free oracle refinement {scheme}", ok,
                  "errors " + " ".join(f"{e:.3e}" for e in errors)
                  + "; drops " + " ".join(f"{r:.2f}" for r in drops)
                  + " (each within 4.0 +/- 0.6)")


def lffp_free_recurrence(phi0, tau, n_steps):
    """LFFP at eps = 0 rebuilt mode by mode: the Taylor launch
    Phi^1 = (I - i tau Gamma_l) Phi^0, then Phi^{n+1} = Phi^{n-1} - 2 i tau
    Gamma_l Phi^n, with Gamma_l = mu_l sigma1 + sigma3."""
    mu = phi0.grid.mu_fft

    def gamma(u):
        return np.stack((mu * u[1] + u[0], mu * u[0] - u[1]))

    prev = np.fft.fft(phi0.values, axis=1)
    curr = prev - 1j * tau * gamma(prev)
    for _ in range(n_steps - 1):
        prev, curr = curr, prev - 2j * tau * gamma(curr)
    return SpinorField(phi0.grid, np.fft.ifft(curr, axis=1))


def test_free_oracle_lffp_pinned_bound():
    # At eps = 0 LFFP must equal the per-mode leap-frog recurrence to rounding.
    # Against the exact free flow that recurrence errs by ~3.4e-8 here: the
    # leap-frog phase error t*tau^2*delta^3/6 per mode (delta = sqrt(1 + mu^2)
    # up to sqrt(5)) alone gives ~2.9e-8 and the Taylor launch's O(tau^2)
    # local error alone ~1.7e-8; they partly cancel.  The a-priori sum of both
    # terms bounds e_phi.
    t, tau = 2.0, 1e-4
    prob = free_problem_on(32, bandlimited_phi0)  # h = pi/16
    res = run_simulation(prob, SchemeConfig("lffp", tau, t_final=t, record="none"))
    dev = measure_errors(res.final, lffp_free_recurrence(prob.phi0, tau, res.n_steps)).e_phi
    err = measure_errors(res.final, free_dirac_exact(prob.phi0, t)).e_phi

    amp = np.abs(np.fft.fft(prob.phi0.values, axis=1)).max(axis=0)
    delta = np.sqrt(1.0 + prob.grid.mu_fft[amp > 1e-12 * amp.max()] ** 2).max()
    phi_norm = norm(prob.phi0, "l2")
    bound = (t * tau ** 2 * delta ** 3 / 6 + tau ** 2 / 2 * delta ** 2) * phi_norm
    ok = dev <= 1e-10 and err <= bound
    assert report(
        "free oracle lffp pinned bound", ok,
        f"h=pi/16, tau=1e-4, t=2: vs per-mode leap-frog recurrence {dev:.3e}"
        f" (<= 1e-10); vs exact free flow {err:.3e} (<= leap-frog bound"
        f" {bound:.3e} = phase t*tau^2*delta^3/6 + launch tau^2*delta^2/2, times"
        f" |Phi0| = {phi_norm:.3f}, max delta = {delta:.3f})",
    )


# ---------------------------------------------------------------------------
# 7. time reversal for the Crank-Nicolson schemes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["cnfd", "cnfp"])
def test_time_reversal_500_steps(scheme):
    prob = preset("periodic-s51", 1.0).discretize(h=PI / 16)
    tau, m = 0.01, 500
    fwd = make_stepper(scheme, prob, tau)
    for _ in range(m):
        fwd.advance()
    back = make_stepper(scheme, model.DiracProblem(prob.grid, prob.epsilon, prob.potentials,
                                                   fwd.phi.copy(), T0=prob.T0), -tau)
    for _ in range(m):
        back.advance()
    err = norm(SpinorField(prob.grid, back.phi.values - prob.phi0.values), "l2")
    rel = err / norm(prob.phi0, "l2")
    ok = report(f"time reversal {scheme}", rel <= 1e-10,
                f"forward {m} + reversed {m} steps: relative return error {rel:.2e} "
                "(tol 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 8. expanding-domain wavepacket benchmark
# ---------------------------------------------------------------------------

WAVEPACKET_BASELINE = {1.0: (0, 3.87e-2), 0.25: (1, 2.95e-2)}  # eps -> (level, e_phi)


@pytest.fixture(scope="module")
def wavepacket_table():
    setup = preset("whole-space-s52", 1.0)
    t0 = time.perf_counter()
    table = convergence_table(
        setup, "cnfd", [1.0, 0.25], 1.0 / 16.0, 0.05, 4,
        reference=ReferenceConfig(h_e=1.0 / 512.0, tau_e=1e-4),
        workers=2,
    )
    table.wall = time.perf_counter() - t0
    return table


def test_wavepacket_diagonal_cells(wavepacket_table):
    table = wavepacket_table
    e = table.errors("e_phi")
    lines, ok = [], True
    for i, eps in enumerate(table.eps_list):
        level, want = WAVEPACKET_BASELINE[eps]
        got = e[i, level]
        ok &= np.isfinite(got) and want / 2 <= got <= want * 2
        lines.append(f"eps={eps:g},k={level}: {got:.3e} vs {want:.2e}")
    assert report("wavepacket diagonal cells", ok,
                  "; ".join(lines) + f" ({table.wall:.0f}s)")


def test_wavepacket_orders_above_diagonal(wavepacket_table):
    table = wavepacket_table
    orders = table.orders("e_phi")
    checked, ok = [], True
    for i, eps in enumerate(table.eps_list):
        for k in range(table.diagonal_index(eps) + 1, table.levels):
            o = orders[i, k]
            ok &= np.isfinite(o) and 1.85 <= o <= 2.05
            checked.append(f"eps={eps:g},k={k}: {o:.2f}")
    assert report("wavepacket orders above diagonal", ok,
                  "orders in [1.85, 2.05] (stated band 1.9-2.0 at table rounding): "
                  + "; ".join(checked))


# ---------------------------------------------------------------------------
# supplementary invariants at acceptance scale
# ---------------------------------------------------------------------------

def test_lffp_spatial_floor_below_1e8():
    # fixed tiny tau, eps = 1: by h = pi/32 the spatial error of the spectral
    # scheme on the torus benchmark is below 1e-8
    setup = preset("periodic-s51", 1.0)
    ref_cfg = ReferenceConfig(h_e=PI / 128, tau_e=2.5e-6)
    table = epsilon_sweep_spatial(setup, "lffp", [1.0], PI / 32, 1, 2e-5,
                                  reference=ref_cfg)
    got = table.cell(0, 0).e_phi
    ok = report("lffp spatial floor", got < 1e-8,
                f"e_phi(h=pi/32, tau=2e-5, t=2) = {got:.3e} (< 1e-8)")
    assert ok
