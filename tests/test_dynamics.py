"""Propagation, phase-plane projection and screened-Poisson checks.

The symmetry-breaking runs (sigma=1 antisymmetric states kicked along the
unstable direction with amplitude 1e-3) come from the session fixture; their
measured story: onset of |z| >= 0.5 at t = 207 for mu=0.19 and t = 117 for
mu=0.25, growth-rate fits matching the linearization to 1e-4 relative, and a
two-mode residual share that roughly quadruples through the breaking.
"""

import math
import numpy as np
import pytest
import scipy.linalg.lapack

from cqdw.config import DT_SCALE_LIMIT
from cqdw.continuation import StationaryProblem
from cqdw.discretization import (
    ConvolutionPlan,
    Kernel,
    PotentialParams,
    potential_profile,
    reflect,
)
from cqdw.dynamics import (
    DEFAULT_DT,
    FIXED_POINT_TOL,
    MAX_FIXED_POINT,
    DynamicsError,
    KineticInverse,
    density_imbalance,
    evolve,
    growth_rate,
    onset_time,
    perturb_state,
    project_phase_plane,
    solve_screened_poisson,
)


def test_stable_state_is_an_equilibrium(branch_suite, collect):
    """A converged stable profile must hold still to 1e-6 over t in [0, 100]."""
    entry = branch_suite["sigma1"]
    state = entry["anti"].states[2]
    run = collect(evolve(entry["problem"], state.psi.astype(complex), state.mu, 100.0))
    grid = entry["problem"].grid
    ref = run.snapshots[0]
    scale = math.sqrt(grid.norm_sq(ref))
    dev = max(math.sqrt(grid.norm_sq(psi - ref)) for psi in run.snapshots)
    assert dev / scale <= 1e-6
    drift = np.max(np.abs(run.norm_series - run.norm_series[0])) / run.norm_series[0]
    assert drift <= 1e-8


def test_linear_mode_rotates_at_its_detuning(branch_suite, basis, collect):
    """A tiny u0 seed picks up exactly the phase exp(-i (omega0 - mu) t)."""
    entry = branch_suite["sigma1"]
    grid = entry["problem"].grid
    eps, mu, t_end = 1e-6, 0.19, 10.0
    run = collect(evolve(entry["problem"], (eps * basis.u0).astype(complex), mu, t_end))
    got = grid.inner(basis.u0, run.snapshots[-1])
    expected = eps * np.exp(-1j * (basis.omega0 - mu) * run.times[-1])
    assert abs(got - expected) / eps <= 1e-7


def test_vacuum_stays_vacuum(branch_suite, collect):
    entry = branch_suite["sigma1"]
    n = entry["problem"].grid.n_points
    run = collect(evolve(entry["problem"], np.zeros(n, dtype=complex), 0.2, 3.0))
    assert np.all(run.norm_series == 0.0)
    assert np.all(run.snapshots == 0.0)
    assert onset_time(run) is None


def test_norm_conservation_on_breaking_runs(breaking_runs):
    """Accepted runs must conserve the discrete norm to 1e-8 relative."""
    _, runs = breaking_runs
    for item in runs.values():
        series = item["run"].norm_series
        assert np.max(np.abs(series - series[0])) / series[0] <= 1e-8


def test_symmetry_breaking_onset_windows(breaking_runs):
    """Order-unity imbalance develops at t ~ 200 (mu=0.19) and ~ 100 (mu=0.25)."""
    _, runs = breaking_runs
    onset19 = onset_time(runs[0.19]["run"])
    onset25 = onset_time(runs[0.25]["run"])
    assert onset19 is not None and 150.0 <= onset19 <= 300.0
    assert onset25 is not None and 70.0 <= onset25 <= 150.0
    assert onset25 < onset19


def test_onset_insensitive_to_halving_dt(breaking_runs, collect):
    """Halving dt moves the breaking time by no more than 5%."""
    entry, runs = breaking_runs
    item = runs[0.25]
    init = perturb_state(
        entry["problem"].grid, item["state"], amplitude=1e-3, direction=item["mode"].direction
    )
    fine = collect(evolve(entry["problem"], init, 0.25, 150.0, dt=2.5e-3))
    t_ref = onset_time(item["run"])
    t_fine = onset_time(fine)
    assert abs(t_fine - t_ref) / t_ref <= 0.05


def test_growth_rate_matches_linearization(breaking_runs):
    """The fitted imbalance growth rate reproduces max Re lambda within 10%."""
    _, runs = breaking_runs
    for item in runs.values():
        fitted = growth_rate(item["run"])
        assert abs(fitted - item["rate"]) / item["rate"] <= 0.10
        assert item["mode"].frequency == 0.0  # breaking mode is a real pair


def test_mirror_equivariance(breaking_runs, collect):
    """Evolving the reflected field equals reflecting the evolved field."""
    entry, runs = breaking_runs
    item = runs[0.19]
    init = perturb_state(
        entry["problem"].grid, item["state"], amplitude=1e-3, direction=item["mode"].direction
    )
    forward = collect(evolve(entry["problem"], init, 0.19, 30.0))
    mirrored = collect(evolve(entry["problem"], reflect(init), 0.19, 30.0))
    gap = max(
        np.max(np.abs(reflect(f) - m))
        for f, m in zip(forward.snapshots, mirrored.snapshots)
    )
    assert gap <= 1e-8


def test_random_kick_breaks_later_than_eigen_kick(breaking_runs, collect):
    """White noise spreads 1e-3 over ~800 directions, delaying the onset."""
    entry, runs = breaking_runs
    item = runs[0.25]
    init = perturb_state(entry["problem"].grid, item["state"], rng=np.random.default_rng(0))
    run = collect(evolve(entry["problem"], init, 0.25, 200.0))
    t_random = onset_time(run)
    t_eigen = onset_time(item["run"])
    assert t_random is not None and t_random > t_eigen


def test_projection_of_stationary_states(branch_suite, collect):
    """Symmetric parents sit at (0, 0), antisymmetric parents at (0, pi)."""
    entry = branch_suite["sigma1"]
    for family, theta_ref in (("sym", 0.0), ("anti", math.pi)):
        state = entry[family].states[0]
        series = collect(evolve(entry["problem"], state.psi.astype(complex), state.mu, 5.0))
        assert series.defined.all()
        assert np.max(np.abs(series.z)) <= 1e-9
        assert np.max(np.abs(np.abs(series.theta) - theta_ref)) <= 1e-9


def test_projection_of_breaking_run(breaking_runs):
    """The trajectory leaves the saddle and sheds share out of the subspace."""
    _, runs = breaking_runs
    run = series = runs[0.19]["run"]
    assert series.defined.all()
    assert abs(abs(series.theta[0]) - math.pi) <= 2e-3  # starts at the saddle
    imbalance = run.imbalance
    assert np.max(np.abs(imbalance)) >= 0.8  # deep self-trapped swing
    # projection and raw density agree on the imbalance while it is moderate
    moderate = np.abs(imbalance) < 0.3
    assert np.nanmax(np.abs(series.z - imbalance)[moderate]) <= 0.05
    # leakage out of the two-mode subspace grows through the breaking
    early = series.residual_fraction[np.searchsorted(run.times, 50.0)]
    apex = series.residual_fraction[np.argmax(np.abs(imbalance))]
    assert apex >= 2.0 * early


def test_projection_flags_vanishing_coefficients(branch_suite, collect):
    entry = branch_suite["sigma1"]
    n = entry["problem"].grid.n_points
    series = collect(evolve(entry["problem"], np.zeros(n, dtype=complex), 0.2, 2.0))
    assert not series.defined.any()
    assert np.all(np.isnan(series.theta))


def test_projection_rejects_a_run_on_another_grid(breaking_runs, basis):
    _, runs = breaking_runs
    run = runs[0.25]["run"]
    with pytest.raises(DynamicsError, match="different grids"):
        project_phase_plane(basis, run.times[0], run.snapshots[0][:-1], run.norm_series[0])


def test_snapshot_cadence(breaking_runs, branch_suite, collect):
    _, runs = breaking_runs
    run = runs[0.25]["run"]
    assert np.allclose(run.times, np.arange(151.0))
    assert len(run.snapshots) == 151 and len(run.norm_series) == 151
    # phase-plane cadence: 0.2 sampling is a snapshot_dt choice, not a new API
    entry = branch_suite["sigma1"]
    state = entry["anti"].states[0]
    fine = collect(evolve(
        entry["problem"], state.psi.astype(complex), state.mu, 2.0, snapshot_dt=0.2
    ))
    assert np.allclose(np.diff(fine.times), 0.2)
    assert len(fine.snapshots) == 11


def test_evolve_validation(branch_suite):
    entry = branch_suite["sigma1"]
    problem = entry["problem"]
    n = problem.grid.n_points
    psi = np.zeros(n, dtype=complex)
    with pytest.raises(DynamicsError, match="shape"):
        evolve(problem, psi[:-1], 0.2, 1.0)


def test_midpoint_passes_per_step(breaking_runs):
    """The cubic extrapolated start converges in one pass on almost every step."""
    _, runs = breaking_runs
    for item in runs.values():
        run = item["run"]
        steps = round(float(run.times[-1]) / DEFAULT_DT)
        assert run.fixed_point_passes / steps <= 1.1
        assert 1 <= run.max_passes_per_step <= MAX_FIXED_POINT + 1


def test_extrapolated_start_matches_single_steps(breaking_runs, collect):
    """400 steps in one call equal 400 one-step calls, which start from psi_n.

    Only the multi-step call has the history for the extrapolated start, so
    the one-step chain is an independent reference for the fixed point.
    """
    entry, runs = breaking_runs
    item = runs[0.25]
    init = perturb_state(
        entry["problem"].grid, item["state"], amplitude=1e-3, direction=item["mode"].direction
    )
    dt = DEFAULT_DT
    whole = collect(evolve(entry["problem"], init, 0.25, 400 * dt, snapshot_dt=400 * dt))
    psi = init
    chained_passes = 0
    for _ in range(400):
        step = collect(evolve(entry["problem"], psi, 0.25, dt, snapshot_dt=dt))
        psi = step.snapshots[-1]
        chained_passes += step.fixed_point_passes
    assert np.max(np.abs(whole.snapshots[-1] - psi)) <= 1e-11
    assert whole.fixed_point_passes < chained_passes


@pytest.mark.parametrize("steps", [1, 2, 3, 4])
def test_each_start_of_the_ramp_matches_single_steps(breaking_runs, collect, steps):
    """Steps 1-4 start from psi_n, then the linear, quadratic and cubic
    extrapolation; each must land on the fixed point of the one-step chain."""
    entry, runs = breaking_runs
    item = runs[0.25]
    init = perturb_state(
        entry["problem"].grid, item["state"], amplitude=1e-3, direction=item["mode"].direction
    )
    dt = DEFAULT_DT
    whole = collect(evolve(entry["problem"], init, 0.25, steps * dt, snapshot_dt=steps * dt))
    psi = init
    for _ in range(steps):
        psi = collect(evolve(entry["problem"], psi, 0.25, dt, snapshot_dt=dt)).snapshots[-1]
    assert np.max(np.abs(whole.snapshots[-1] - psi)) <= 1e-11


def test_tridiagonal_failure_names_the_time(breaking_runs, monkeypatch):
    entry, runs = breaking_runs
    state = runs[0.25]["state"]

    def non_finite(self, density):
        return np.full_like(density, np.nan)

    monkeypatch.setattr(StationaryProblem, "nonlinear_potential_density", non_finite)
    with pytest.raises(DynamicsError, match=r"midpoint iteration stalled at t=0\.0050"):
        list(evolve(entry["problem"], state.psi.astype(complex), 0.25, 1.0))


def dense_kinetic_matrix(n: int, dx: float, dt: float) -> np.ndarray:
    """A = I + i dt/2 T with T = tridiag(-1/(2 dx^2), 1/dx^2, -1/(2 dx^2))."""
    a = np.zeros((n, n), dtype=complex)
    a.flat[:: n + 1] = 1.0 + 0.5j * dt / dx**2
    a.flat[1:: n + 1] = a.flat[n:: n + 1] = -0.25j * dt / dx**2
    return a


@pytest.mark.parametrize("n, dt, taps", [
    (401, DEFAULT_DT, 35),  # the default grid and step
    (401, DT_SCALE_LIMIT * 0.1**2, 49),  # dt/dx^2 on the config's cap
    (7, DEFAULT_DT, 35),  # the extension wraps the 16-node period more than twice
    (401, 1e-3 * 0.1**2, 11),  # the direct small root would lose digits here
])
def test_kinetic_inverse_matches_the_dense_solve(n, dt, taps):
    inverse = KineticInverse(n, 0.1, dt)
    assert len(inverse.taps) == taps
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = np.linalg.solve(dense_kinetic_matrix(n, 0.1, dt), rhs)
    assert np.max(np.abs(inverse.apply(rhs) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_midpoint_step_with_a_frozen_potential_keeps_the_norm(grid):
    """With V - mu frozen, the converged pass map is the Cayley step of a
    Hermitian H, which is unitary: dx sum |psi|^2 holds to rounding."""
    dt = DEFAULT_DT
    inverse = KineticInverse(grid.n_points, grid.spacing, dt)
    frozen = potential_profile(grid, PotentialParams()) - 0.25
    x = grid.points
    psi = np.exp(-((x - 2.0) ** 2)) * np.exp(1.5j * x)
    base = (2.0 - inverse.diagonal) * psi
    base[:-1] -= inverse.off_diagonal * psi[1:]
    base[1:] -= inverse.off_diagonal * psi[:-1]
    psi_next = psi
    for _ in range(MAX_FIXED_POINT):
        cand = inverse.apply(base - 1j * dt * frozen * 0.5 * (psi + psi_next))
        gap, psi_next = np.max(np.abs(cand - psi_next)), cand
    assert gap <= FIXED_POINT_TOL
    n0 = np.sum(np.abs(psi) ** 2)
    assert abs(np.sum(np.abs(psi_next) ** 2) - n0) <= 1e-14 * n0


def test_non_finite_initial_field_aborts(branch_suite):
    problem = branch_suite["sigma1"]["problem"]
    psi = np.zeros(problem.grid.n_points, dtype=complex)
    psi[problem.grid.center_index] = np.nan
    with pytest.raises(DynamicsError, match="not finite"):
        evolve(problem, psi, 0.2, 1.0)


def test_runaway_amplitude_aborts(breaking_runs):
    """A field far outside the scheme's reach stalls the midpoint iteration."""
    entry, runs = breaking_runs
    state = runs[0.19]["state"]
    with pytest.raises(DynamicsError, match="stalled"):
        list(evolve(entry["problem"], (1e6 * state.psi).astype(complex), 0.19, 1.0))


def test_perturbation_protocol(breaking_runs):
    """Kicks carry grid norm amplitude * ||psi|| in either protocol."""
    entry, runs = breaking_runs
    state = runs[0.19]["state"]
    grid = entry["problem"].grid
    target = 1e-3 * math.sqrt(state.norm)
    random_kick = perturb_state(grid, state) - state.psi
    assert abs(math.sqrt(grid.norm_sq(random_kick)) - target) <= 1e-12
    # unseeded calls are deterministic and repeatable
    again = perturb_state(grid, state) - state.psi
    assert np.array_equal(random_kick, again)
    mode = runs[0.19]["mode"]
    eigen_kick = perturb_state(grid, state, direction=mode.direction) - state.psi
    assert abs(math.sqrt(grid.norm_sq(eigen_kick)) - target) <= 1e-12
    overlap = abs(grid.inner(mode.direction, eigen_kick)) / math.sqrt(grid.norm_sq(eigen_kick))
    assert overlap >= 1.0 - 1e-12
    with pytest.raises(DynamicsError, match="zero norm"):
        perturb_state(grid, state, direction=np.zeros(grid.n_points))
    with pytest.raises(DynamicsError, match="shape"):
        perturb_state(grid, state, direction=np.zeros(grid.n_points - 1))


def test_observable_validation(branch_suite, collect):
    """A run that never leaves its stationary state has no linear window to fit."""
    entry = branch_suite["sigma1"]
    state = entry["anti"].states[2]
    run = collect(evolve(entry["problem"], state.psi.astype(complex), state.mu, 3.0))
    with pytest.raises(DynamicsError, match="linear window"):
        growth_rate(run)


def test_screened_poisson_matches_kernel_convolution(grid):
    """The fitted tridiagonal solve equals the exponential-kernel quadrature."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        intensity = rng.uniform(0.0, 1.0, grid.n_points)
        d = float(rng.uniform(0.05, 2.0))
        sigma0 = float(rng.uniform(0.2, 3.0))
        m = solve_screened_poisson(grid, intensity, d, sigma0)
        plan = ConvolutionPlan(Kernel("exponential", math.sqrt(d)), grid)
        ref = plan.apply(sigma0 * (intensity - intensity**2))
        worst = max(worst, float(np.max(np.abs(m - ref))))
    assert worst <= 1e-6


def test_screened_poisson_edge_cases(grid):
    zero = solve_screened_poisson(grid, np.zeros(grid.n_points), 0.3, 2.0)
    assert np.all(zero == 0.0)
    # weak constant intensity: absorption plateaus at sigma0 * S to O(S^2)
    s_val = 1e-3
    flat = solve_screened_poisson(grid, np.full(grid.n_points, s_val), 0.25, 1.0)
    interior = np.abs(grid.points) <= 10.0
    assert np.max(np.abs(flat[interior] / s_val - 1.0)) <= 5e-3
    with pytest.raises(DynamicsError, match="shape"):
        solve_screened_poisson(grid, np.zeros(grid.n_points - 1), 0.3, 1.0)


def test_screened_poisson_solve_failure_is_reported(grid, monkeypatch):
    def singular(dl, d, du, b, **_):
        return dl, d, du, b, 3

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", singular)
    with pytest.raises(DynamicsError, match=r"dgtsv info=3"):
        solve_screened_poisson(grid, np.zeros(grid.n_points), 0.3, 1.0)


def test_density_imbalance_conventions(grid, basis):
    """Left-heavy fields give z > 0; definite-parity fields give z = 0."""
    assert density_imbalance(grid, np.zeros(grid.n_points)) == 0.0
    assert abs(density_imbalance(grid, basis.u1)) <= 1e-12
    left_heavy = basis.phi_left
    assert density_imbalance(grid, left_heavy) >= 0.9