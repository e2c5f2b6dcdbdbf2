"""Stationary-state Newton solves, arclength branch tracing, pitchforks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from cqdw.continuation import (
    ASYMMETRIC,
    FOLD,
    MERGE,
    PITCHFORK,
    BranchEvent,
    ContinuationError,
    NewtonError,
    StationaryProblem,
    _newton,
    classify_symmetry,
    continue_branch,
    detect_pitchfork,
    newton_solve,
    seed_daughter,
    seed_from_mode,
)
from cqdw.discretization import (
    EXPONENTIAL,
    GAUSSIAN,
    Kernel,
    PotentialParams,
    ReflectionSector,
    kernel_eval,
    parity_residuals,
    potential_profile,
    reflect,
)
from cqdw.twomode import ANTISYMMETRIC, SYMMETRIC, parent_mu

# Bifurcation events on the default grid (dx = 0.1, half-width 20), frozen
# from the implementation. Pitchforks are bisected until the bracket spans a
# (psi, mu) arclength of 1e-4 (1 + sqrt N), finer than these tolerances.
PITCHFORKS_REF = {
    "sigma01": {
        "anti": [(0.168624, 0.14005), (0.380929, 5.23345)],
        "sym": [(0.359259, 5.65602)],
    },
    "sigma1": {
        "anti": [(0.168555, 0.14681), (0.373909, 5.25033)],
        "sym": [(0.355199, 5.70303)],
    },
}
FOLDS_REF = {
    "sigma01": {"anti": (0.381032, 5.33665), "sym": (0.359303, 5.58926)},
}
MU_TOL = 2e-4
NORM_TOL = 2e-2


@pytest.fixture(scope="module")
def problem1(branch_suite):
    return branch_suite["sigma1"]["problem"]


# --- residual and Jacobian ------------------------------------------------------


def test_residual_of_zero_field_is_zero(problem1):
    r = problem1.residual(np.zeros(problem1.grid.n_points), 0.23)
    assert np.all(r == 0.0)


def test_residual_near_linear_mode_is_cubic_order(problem1, basis):
    # At mu = omega0 the linear part cancels and only the nonlinearity remains.
    r_small = np.max(np.abs(problem1.residual(1e-3 * basis.u0, basis.omega0)))
    r_large = np.max(np.abs(problem1.residual(1e-2 * basis.u0, basis.omega0)))
    assert r_small < 5e-9
    assert 300.0 < r_large / r_small < 3000.0


def test_residual_matches_direct_quadrature(problem1):
    grid = problem1.grid
    x = grid.points
    psi = 0.8 * np.exp(-((x - 1.0) ** 2) / 2.0) + 0.3 * np.exp(-((x + 2.0) ** 2) / 3.0)
    mu = 0.21
    v = potential_profile(grid, problem1.potential)
    lap = np.zeros_like(psi)
    lap[1:-1] = psi[2:] - 2.0 * psi[1:-1] + psi[:-2]
    lap[0] = psi[1] - 2.0 * psi[0]
    lap[-1] = psi[-2] - 2.0 * psi[-1]
    conv_sq = np.array(
        [np.sum(kernel_eval(problem1.kernel, xi - x) * psi**2) for xi in x]
    ) * grid.spacing
    conv_q = np.array(
        [np.sum(kernel_eval(problem1.kernel, xi - x) * psi**4) for xi in x]
    ) * grid.spacing
    direct = (
        -0.5 * lap / grid.spacing**2
        + v * psi
        - mu * psi
        + (problem1.s * conv_sq + problem1.delta * conv_q) * psi
    )
    assert np.max(np.abs(problem1.residual(psi, mu) - direct)) <= 1e-10


@pytest.mark.parametrize(
    "kernel",
    [Kernel(GAUSSIAN, 1.0), Kernel(EXPONENTIAL, 1.0)],
    ids=lambda k: k.family,
)
def test_jacobian_matches_finite_differences(grid, kernel):
    problem = StationaryProblem(grid, PotentialParams(), kernel, s=1, delta=-1)
    x = grid.points
    psi = 0.7 * np.exp(-((x - 0.8) ** 2)) + 0.2 * np.exp(-((x + 1.5) ** 2) / 2.0)
    mu = 0.19
    jac = problem.jacobian(psi, mu)
    h = 1e-6
    for center, width in ((-3.0, 1.0), (0.5, 0.7), (2.0, 1.8)):
        direction = np.exp(-((x - center) ** 2) / width**2)
        fd = (problem.residual(psi + h * direction, mu)
              - problem.residual(psi - h * direction, mu)) / (2.0 * h)
        assert np.max(np.abs(jac @ direction - fd)) <= 1e-6


@pytest.mark.parametrize("family", ["sym", "anti"])
def test_sector_linearization_matches_fold(branch_suite, family):
    # Assembled from the folds made at construction, each sector block must
    # equal the fold of the whole-grid blocks, for either parity of psi.
    problem = branch_suite["sigma1"]["problem"]
    state = min(branch_suite["sigma1"][family].states, key=lambda s: abs(s.norm - 2.0))
    l_minus, l_plus = problem.linearization(state.psi, state.mu)
    for parity in ("even", "odd"):
        sector = ReflectionSector(parity, problem.grid.n_points)
        ld, lp = problem.linearization(state.psi, state.mu, sector)
        assert np.abs(ld - sector.fold(l_minus)).max() <= 1e-12
        assert np.abs(lp - sector.fold(l_plus)).max() <= 1e-12


# --- Newton ---------------------------------------------------------------------


def test_seed_converges_to_small_norm_symmetric_state(branch_suite, basis):
    problem = branch_suite["sigma01"]["problem"]
    state = seed_from_mode(problem, basis.u0, basis.omega0)
    assert state.mu == pytest.approx(basis.omega0 + 0.005)
    assert state.symmetry == SYMMETRIC
    assert 0.0 < state.norm < 0.2
    assert state.residual <= 1e-10


def test_converged_state_reconverges_immediately(problem1, branch_suite):
    state = branch_suite["sigma1"]["anti"].states[5]
    again = newton_solve(problem1, state.psi, state.mu)
    # Residual is already below tolerance, so no correction step is taken.
    assert np.max(np.abs(again.psi - state.psi)) == 0.0
    assert again.newton_iterations == 0


def test_newton_converges_quadratically(problem1, branch_suite):
    state = branch_suite["sigma1"]["anti"].states[12]
    x = problem1.grid.points
    guess = state.psi + 0.05 * np.exp(-((x - 1.2) ** 2))
    solved = newton_solve(problem1, guess, state.mu)
    assert solved.residual <= 1e-10
    assert solved.mu == state.mu  # held exactly, not solved for
    # Replay the iteration to inspect the residual sequence.
    psi = guess.copy()
    history = []
    for _ in range(12):
        r = problem1.residual(psi, state.mu)
        history.append(float(np.max(np.abs(r))))
        if history[-1] <= 1e-10:
            break
        psi += np.linalg.solve(problem1.jacobian(psi, state.mu), -r)
    assert len(history) <= 7
    assert solved.newton_iterations == len(history) - 1
    for r_now, r_next in zip(history, history[1:]):
        if 1e-8 <= r_now <= 1e-3:
            assert r_next <= 1e4 * r_now**2


def test_newton_failure_reports_residual_history(problem1):
    x = problem1.grid.points
    guess = 4.0 * np.cos(0.7 * x) * np.exp(-(x**2) / 40.0)
    with pytest.raises(NewtonError, match="iterations") as info:
        newton_solve(problem1, guess, 0.2, max_iter=3)
    assert "trivial" not in str(info.value)
    assert len(info.value.residual_history) == 4
    assert all(math.isfinite(r) for r in info.value.residual_history)


def test_arclength_failure_reports_residual_history(problem1):
    # The same guess as above, held on the arclength hyperplane through it.
    x = problem1.grid.points
    guess = 4.0 * np.cos(0.7 * x) * np.exp(-(x**2) / 40.0)
    t_psi = guess / math.sqrt(problem1.norm(guess))
    with pytest.raises(NewtonError) as info:
        _newton(problem1, guess, 0.2, t_psi, 0.0, max_iter=3)
    history = info.value.residual_history
    assert "trivial" not in str(info.value)
    assert 2 <= len(history) <= 4
    assert all(math.isfinite(r) for r in history)


def test_newton_stops_once_it_diverges(branch_suite):
    # Above the sigma=1 symmetric pitchfork no daughter exists; a kicked
    # parent there must be given up within a few steps, not after max_iter.
    pf = branch_suite["sigma1"]["sym_pitchforks"][0]
    guess = pf.state.psi + 1e-3 * math.sqrt(pf.state.norm) * pf.direction
    with pytest.raises(NewtonError, match="diverging") as info:
        newton_solve(branch_suite["sigma1"]["problem"], guess, pf.state.mu + 5e-3)
    assert "trivial" not in str(info.value)
    assert len(info.value.residual_history) <= 6


def test_daughter_seed_jacobian_budget(branch_suite, monkeypatch):
    entry = branch_suite["sigma1"]
    calls = []
    jacobian = StationaryProblem.jacobian

    def counted(self, psi, mu, sector=None):
        calls.append(mu)
        return jacobian(self, psi, mu, sector)

    monkeypatch.setattr(StationaryProblem, "jacobian", counted)
    state = seed_daughter(entry["problem"], entry["sym_pitchforks"][0])
    assert state.symmetry == ASYMMETRIC
    assert len(calls) <= 5


def test_parent_trace_assembles_no_whole_grid_jacobian(branch_suite, basis, monkeypatch):
    # Seed, arclength steps, tangent, pitchfork test and its bisection all
    # solve an even parent in its reflection sectors.
    entry = branch_suite["sigma1"]
    problem = entry["problem"]
    sizes = []
    jacobian = StationaryProblem.jacobian

    def recorded(self, psi, mu, sector=None):
        jac = jacobian(self, psi, mu, sector)
        sizes.append(len(jac))
        return jac

    monkeypatch.setattr(StationaryProblem, "jacobian", recorded)
    seed = seed_from_mode(problem, basis.u0, basis.omega0)
    branch = continue_branch(problem, seed, entry["scan"], problem.s)
    assert len(detect_pitchfork(problem, branch)) == 1
    assert len(sizes) > len(branch.states)
    assert max(sizes) <= problem.grid.n_points // 2 + 1


def test_daughter_seed_rejects_a_definite_parity_landing(branch_suite):
    # A direction of the parent's own parity never leaves the parent branch,
    # so branch switching must refuse the symmetric state it lands on.
    entry = branch_suite["sigma1"]
    state = entry["sym"].states[10]
    fake = replace(
        entry["sym_pitchforks"][0],
        state=state,
        direction=state.psi / math.sqrt(state.norm),
    )
    with pytest.raises(ContinuationError, match="landed on a symmetric state"):
        seed_daughter(entry["problem"], fake)


def test_newton_flags_trivial_collapse(problem1, basis):
    # Below omega0 no nontrivial state exists for the focusing sign; the
    # iteration lands on zero and must say so rather than return it.
    with pytest.raises(NewtonError, match="trivial zero state"):
        newton_solve(problem1, 0.01 * basis.u0, basis.omega0 - 0.01)


def test_guess_shape_validated(problem1):
    with pytest.raises(ContinuationError, match="shape"):
        newton_solve(problem1, np.zeros(7), 0.2)


def test_mirror_closure(ssb_daughter):
    entry, _, branch = ssb_daughter
    state = branch.states[len(branch.states) // 2]
    mirrored = newton_solve(entry["problem"], reflect(state.psi), state.mu)
    assert mirrored.symmetry == ASYMMETRIC
    assert mirrored.norm == pytest.approx(state.norm, abs=1e-10)
    assert np.max(np.abs(mirrored.psi - reflect(state.psi))) <= 1e-8


# --- symmetry labels and plumbing ------------------------------------------------


def test_classify_symmetry_labels(grid, basis):
    assert classify_symmetry(grid, basis.u0) == SYMMETRIC
    assert classify_symmetry(grid, basis.u1) == ANTISYMMETRIC
    assert classify_symmetry(grid, basis.u0 + 0.3 * basis.u1) == ASYMMETRIC


def test_state_bookkeeping(branch_suite):
    state = branch_suite["sigma1"]["sym"].states[3]
    problem = branch_suite["sigma1"]["problem"]
    assert state.norm == pytest.approx(problem.grid.norm_sq(state.psi), rel=1e-12)
    assert state.residual <= 1e-10
    assert state.psi.shape == (problem.grid.n_points,)


def test_event_kind_validated():
    with pytest.raises(ContinuationError, match="event"):
        BranchEvent("cusp", 0.2, 1.0)


# --- branch tracing -------------------------------------------------------------


def test_every_branch_state_is_converged(branch_suite):
    for key in ("sigma01", "sigma1"):
        for name in ("sym", "anti"):
            branch = branch_suite[key][name]
            assert all(s.residual <= 1e-10 for s in branch.states)
            assert all(s.symmetry == branch.states[0].symmetry for s in branch.states)


def test_parent_states_are_exactly_even_or_odd(branch_suite):
    # The sector solves lift every step as exact mirror images.
    for entry in branch_suite.values():
        for name, sign in (("sym", 1.0), ("anti", -1.0)):
            states = entry[name].states + [pf.state for pf in entry[f"{name}_pitchforks"]]
            assert all(np.array_equal(s.psi, sign * s.psi[::-1]) for s in states)


def test_antisymmetric_branch_bends_rightward_at_small_norm(branch_suite):
    branch = branch_suite["sigma01"]["anti"]
    small = [(s.norm, s.mu) for s in branch.states if s.norm <= 0.5]
    assert len(small) >= 4
    norms, mus = zip(*small)
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert all(b > a for a, b in zip(mus, mus[1:]))


def test_parent_branches_fold_once(branch_suite):
    for key, names in (("sigma01", ("sym", "anti")), ("sigma1", ("sym", "anti"))):
        for name in names:
            folds = [e for e in branch_suite[key][name].events if e.kind == FOLD]
            assert len(folds) == 1
    fold = [e for e in branch_suite["sigma01"]["anti"].events if e.kind == FOLD][0]
    mu_ref, norm_ref = FOLDS_REF["sigma01"]["anti"]
    assert fold.mu == pytest.approx(mu_ref, abs=5e-4)
    assert fold.norm == pytest.approx(norm_ref, abs=0.1)


def test_norm_cap_terminates_parent_scans(branch_suite):
    for key in ("sigma01", "sigma1", "sigma8", "dual1"):
        for name in ("sym", "anti"):
            branch = branch_suite[key][name]
            assert branch.termination == "norm_cap"
            assert max(s.norm for s in branch.states) > 6.0
            assert all(s.norm <= 6.0 for s in branch.states[:-1])


def test_two_mode_norm_agreement_at_small_norm(branch_suite, make_params):
    # The reduction predicts the branch to within 5% in N while N <= 0.5.
    for key, sigma in (("sigma01", 0.1), ("sigma1", 1.0)):
        for name, family in (("sym", SYMMETRIC), ("anti", ANTISYMMETRIC)):
            params = make_params(sigma=sigma)
            branch = branch_suite[key][name]
            checked = 0
            for state in branch.states:
                if not (1e-3 < state.norm <= 0.5):
                    continue
                n_reduced = brentq(
                    lambda n: parent_mu(replace(params, N=n), family) - state.mu,
                    1e-9,
                    1.0,
                )
                assert abs(state.norm - n_reduced) <= 0.05 * n_reduced
                checked += 1
            assert checked >= 3


# --- pitchfork detection --------------------------------------------------------


def test_pitchforks_located(branch_suite):
    for key, table in PITCHFORKS_REF.items():
        for name, refs in table.items():
            found = branch_suite[key][f"{name}_pitchforks"]
            assert len(found) == len(refs)
            for pf, (mu_ref, norm_ref) in zip(found, refs):
                assert pf.event.kind == PITCHFORK
                assert pf.event.mu == pytest.approx(mu_ref, abs=MU_TOL)
                assert pf.event.norm == pytest.approx(norm_ref, abs=NORM_TOL)
                assert pf.state.residual <= 1e-10
                assert 1 <= pf.bisections < 60


def test_pitchfork_direction_has_breaking_parity(branch_suite):
    grid = branch_suite["sigma01"]["problem"].grid
    ssb = branch_suite["sigma01"]["anti_pitchforks"][0]
    r_even, r_odd = parity_residuals(grid, ssb.direction)
    assert r_even <= 1e-9  # antisymmetric parent breaks into an even direction
    sym_pf = branch_suite["sigma01"]["sym_pitchforks"][0]
    r_even, r_odd = parity_residuals(grid, sym_pf.direction)
    assert r_odd <= 1e-9
    assert grid.norm_sq(ssb.direction) == pytest.approx(1.0, rel=1e-12)


def test_pitchfork_needs_parity_parent(ssb_daughter):
    entry, _, branch = ssb_daughter
    with pytest.raises(ContinuationError, match="parent"):
        detect_pitchfork(entry["problem"], branch)


def test_daughter_seed_is_solidly_asymmetric(ssb_daughter):
    entry, pf, branch = ssb_daughter
    seed = branch.states[0]
    assert seed.symmetry == ASYMMETRIC
    assert abs(seed.mu - pf.event.mu) <= 6e-3
    assert abs(seed.norm - pf.event.norm) <= 0.2
    r_even, r_odd = parity_residuals(entry["problem"].grid, seed.psi)
    assert min(r_even, r_odd) > 1e-3


def test_asymmetric_branch_closes_onto_parent(ssb_daughter):
    # Grown from the symmetry-breaking point, the branch passes two folds and
    # merges back into the antisymmetric parent at the restoring point.
    entry, _, branch = ssb_daughter
    assert branch.termination == "merge"
    folds = [e for e in branch.events if e.kind == FOLD]
    merges = [e for e in branch.events if e.kind == MERGE]
    assert len(folds) == 2
    assert len(merges) == 1
    restoring = entry["anti_pitchforks"][1]
    assert merges[0].mu == pytest.approx(restoring.event.mu, abs=5e-4)
    assert merges[0].norm == pytest.approx(restoring.event.norm, abs=2e-3)
    assert all(s.symmetry == ASYMMETRIC for s in branch.states[:-1])


def test_asymmetric_branch_spans_the_window(ssb_daughter):
    entry, pf, branch = ssb_daughter
    restoring = entry["anti_pitchforks"][1]
    norms = np.array([s.norm for s in branch.states])
    mus = [s.mu for s in branch.states]
    assert norms.max() > 5.0
    assert min(mus) >= pf.event.mu - 5e-3
    assert max(mus) <= entry["scan"].mu_max
    # Norm grows monotonically from birth to merge along the loop.
    assert norms[-1] == pytest.approx(restoring.event.norm, abs=5e-2)
