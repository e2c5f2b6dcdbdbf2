"""Tests for the reduced two-mode model.

Reference values were frozen from a converged run on the default grid
(half-width 20, dx 0.1). Independent oracles: a symbolic Hamilton
derivation for the vector field, finite-difference Jacobians for the
stability eigenvalues, and a textbook RK4 for the orbit integrator.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from scipy.optimize import brentq

from cqdw.discretization import GAUSSIAN, Kernel
from cqdw.overlaps import compute_overlaps
from cqdw.twomode import (
    ANTISYMMETRIC,
    ASYMMETRIC,
    CENTER,
    RESTORING,
    SADDLE,
    SSB,
    SYMMETRIC,
    CriticalNorms,
    ModeParams,
    TwoModeError,
    TwoModeState,
    asymmetric_z,
    coalescence_sigma,
    critical_norms,
    fixed_point_census,
    fixed_point_stability,
    hamiltonian,
    integrate_orbit,
    parent_mu,
    predicted_bifurcations,
    reduced_rhs,
)

# frozen critical norms N(f = -+2 omega), gaussian kernel, (s, delta) = (1, -1)
NORMS_REF = {
    0.1: {"n1": 4.903261877, "n2": 0.130219747, "n3": 4.649560137},
    1.0: {"n1": 4.979613998, "n2": 0.137173932, "n3": 4.712621017},
    8.0: {"n1": 3.099565390},
}
# frozen parent-branch chemical potentials at those norms
MU_REF = {
    0.1: {"n2": 0.167310374, "n3": 0.371647331, "n1": 0.348754155},
    1.0: {"n2": 0.167316679, "n3": 0.363913051, "n1": 0.341021103},
    8.0: {"n1": 0.260047779},
}
Z_REF_N5 = 0.509019455  # asymmetric imbalance at sigma=1, N=5
FROZEN_TOL = 1e-7


@pytest.fixture(scope="module")
def lobe_params(basis, overlaps_sigma1):
    return ModeParams.from_overlaps(overlaps_sigma1, basis, 1, -1, 5.0)


@pytest.fixture(scope="module")
def lobe_orbit(lobe_params):
    # starts just off the symmetric saddle, inside one asymmetric lobe
    return integrate_orbit(TwoModeState(0.01, 0.0), lobe_params, t_end=1500.0, dt=0.05)


# ---------------------------------------------------------------------------
# parameters and states


def test_mode_params_validation():
    good = dict(N=1.0, eta0=0.1, eta1=0.0, eta4=0.02, omega=0.01, Omega=0.14)
    ModeParams(s=1, delta=-1, **good)
    for bad_omega in (0.0, -1.0):
        with pytest.raises(TwoModeError):
            ModeParams(s=1, delta=-1, **{**good, "omega": bad_omega})


def test_mode_params_derived_quantities():
    p = ModeParams(s=1, delta=-1, N=2.0, eta0=0.3, eta1=0.05, eta4=0.04,
                   omega=0.01, Omega=0.14)
    assert p.eta_z == pytest.approx(0.25)
    assert p.eta_amp == pytest.approx(0.35)
    assert p.omega0 == pytest.approx(0.13)
    assert p.omega1 == pytest.approx(0.15)
    assert p.coupling() == pytest.approx(1 * 0.25 * 2 - 0.04 * 4)
    assert p.coupling(1.0) == pytest.approx(0.25 - 0.04)
    assert replace(p, N=3.0).N == 3.0


def test_from_overlaps_regime_filter(basis, overlaps_sigma01, overlaps_sigma8):
    narrow = ModeParams.from_overlaps(overlaps_sigma01, basis, 1, -1, 1.0)
    assert narrow.eta1 == 0.0
    assert narrow.eta0 == overlaps_sigma01.eta0
    assert narrow.eta4 == overlaps_sigma01.eta4

    wide = ModeParams.from_overlaps(overlaps_sigma8, basis, 1, -1, 1.0)
    assert wide.eta1 == overlaps_sigma8.eta1

    widest = ModeParams.from_overlaps(
        compute_overlaps(basis, Kernel(GAUSSIAN, 12.0)), basis, 1, -1, 1.0)
    assert widest.eta4 == 0.0
    assert widest.eta1 > 0.0


def test_state_validation():
    TwoModeState(1.0, 0.0)
    TwoModeState(-1.0, 2.0)
    with pytest.raises(TwoModeError):
        TwoModeState(1.0000001, 0.0)


def test_critical_norms_type_checks_ordering():
    with pytest.raises(TwoModeError):
        CriticalNorms(n0=2.0, n1=1.0, n2=None, n3=None)
    norms = CriticalNorms(n0=None, n1=4.9, n2=0.1, n3=4.7)
    assert norms.present() == {"n1": 4.9, "n2": 0.1, "n3": 4.7}


# ---------------------------------------------------------------------------
# vector field and Hamiltonian structure


def test_rhs_fixed_point_examples(make_params):
    p = make_params(1.0, N=1.0)
    assert reduced_rhs(TwoModeState(0.0, 0.0), p) == (0.0, 0.0)
    dz, dtheta = reduced_rhs(TwoModeState(0.0, math.pi), p)
    assert abs(dz) < 1e-17
    assert dtheta == 0.0


def test_rhs_quarter_phase_point(make_params):
    p = make_params(1.0, N=1.0)
    dz, dtheta = reduced_rhs(TwoModeState(0.1, math.pi / 2), p)
    assert dz == pytest.approx(2 * p.omega * math.sqrt(0.99), rel=1e-14)
    assert dtheta == pytest.approx(-p.coupling() * 0.1, abs=1e-15)


def test_rhs_matches_symbolic_hamilton_equations(make_params):
    # dz/dt = -dH/dtheta, dtheta/dt = +dH/dz, derived symbolically
    p = make_params(1.0, N=5.0)
    z_s, th_s = sp.symbols("z theta", real=True)
    h_sym = 2 * p.omega * sp.sqrt(1 - z_s**2) * sp.cos(th_s) \
        - sp.Rational(1, 2) * p.coupling() * z_s**2
    dz_fn = sp.lambdify((z_s, th_s), -sp.diff(h_sym, th_s), "math")
    dth_fn = sp.lambdify((z_s, th_s), sp.diff(h_sym, z_s), "math")
    rng = np.random.default_rng(11)
    for _ in range(25):
        z = rng.uniform(-0.95, 0.95)
        theta = rng.uniform(-math.pi, math.pi)
        dz, dtheta = reduced_rhs(TwoModeState(z, theta), p)
        assert dz == pytest.approx(dz_fn(z, theta), abs=1e-12)
        assert dtheta == pytest.approx(dth_fn(z, theta), abs=1e-12)


def test_hamilton_structure_at_random_points(make_params):
    p = make_params(1.0, N=5.0)
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(1000):
        z = rng.uniform(-0.95, 0.95)
        theta = rng.uniform(-math.pi, math.pi)
        dz, dtheta = reduced_rhs(TwoModeState(z, theta), p)
        dh_dtheta = (hamiltonian(TwoModeState(z, theta + h), p)
                     - hamiltonian(TwoModeState(z, theta - h), p)) / (2 * h)
        dh_dz = (hamiltonian(TwoModeState(z + h, theta), p)
                 - hamiltonian(TwoModeState(z - h, theta), p)) / (2 * h)
        assert dz == pytest.approx(-dh_dtheta, abs=1e-6)
        assert dtheta == pytest.approx(dh_dz, abs=1e-6)


def test_hamiltonian_at_trivial_points(make_params):
    p = make_params(1.0, N=1.0)
    assert hamiltonian(TwoModeState(0.0, 0.0), p) == pytest.approx(2 * p.omega)
    assert hamiltonian(TwoModeState(0.0, math.pi), p) == pytest.approx(-2 * p.omega)


def test_rhs_rejects_singular_rim(make_params):
    p = make_params(1.0, N=1.0)
    with pytest.raises(TwoModeError):
        reduced_rhs(TwoModeState(1.0, 0.3), p)
    with pytest.raises(TwoModeError):
        reduced_rhs(TwoModeState(-1.0, 0.3), p)


# ---------------------------------------------------------------------------
# fixed points and critical norms


def test_asymmetric_states_frozen_value(make_params):
    states = asymmetric_z(make_params(1.0, N=5.0))
    assert len(states) == 2
    assert states[0].z == pytest.approx(Z_REF_N5, abs=FROZEN_TOL)
    assert states[1].z == -states[0].z
    # f(5) < 0: the pair attaches to the symmetric parent at theta = 0
    assert states[0].theta == 0.0


def test_asymmetric_states_gap_and_boundary(make_params):
    assert asymmetric_z(make_params(1.0, N=4.9)) == []
    # exact |f| = 2 omega constructed in floats: z = 0 boundary states
    p = ModeParams(s=1, delta=-1, N=0.5, eta0=0.2, eta1=0.0, eta4=0.0,
                   omega=0.05, Omega=0.3)
    states = asymmetric_z(p)
    assert len(states) == 2
    assert states[0].z == 0.0
    assert states[0].theta == math.pi  # f > 0: antisymmetric parent


def test_asymmetric_theta_attachment_flips_with_signs(make_params):
    for s, delta, theta in ((1, -1, 0.0), (-1, 1, math.pi)):
        states = asymmetric_z(make_params(1.0, s=s, delta=delta, N=5.0))
        assert states[0].theta == theta


@pytest.mark.parametrize("sigma", [0.1, 1.0, 8.0])
def test_critical_norms_frozen_tables(make_params, sigma):
    norms = critical_norms(make_params(sigma, N=1.0))
    expected = NORMS_REF[sigma]
    assert norms.n0 is None
    present = norms.present()
    assert set(present) == set(expected)
    for label, value in expected.items():
        assert present[label] == pytest.approx(value, abs=FROZEN_TOL), label


def test_critical_norms_case3_degenerates_to_linear(basis):
    overlaps = compute_overlaps(basis, Kernel(GAUSSIAN, 12.0))
    p = ModeParams.from_overlaps(overlaps, basis, 1, -1, 1.0)
    assert p.eta4 == 0.0
    norms = critical_norms(p)
    assert norms.n0 is None and norms.n1 is None and norms.n3 is None
    assert norms.n2 == pytest.approx(2 * p.omega / p.eta_z, rel=1e-12)


def test_critical_norm_pair_coalescence(basis):
    # the antisymmetric-parent pair merges where eta_z^2 = 8 eta4 omega
    def gap(sigma):
        ov = compute_overlaps(basis, Kernel(GAUSSIAN, sigma))
        e = ov.eta0 - ov.eta1
        return e * e - 8 * ov.eta4 * basis.omega

    sigma_star = brentq(gap, 7.0, 8.0, xtol=1e-5)
    assert sigma_star == pytest.approx(7.5091, abs=5e-3)

    below = compute_overlaps(basis, Kernel(GAUSSIAN, sigma_star - 0.05))
    above = compute_overlaps(basis, Kernel(GAUSSIAN, sigma_star + 0.05))
    norms_below = critical_norms(ModeParams.from_overlaps(below, basis, 1, -1, 1.0))
    norms_above = critical_norms(ModeParams.from_overlaps(above, basis, 1, -1, 1.0))
    assert norms_below.n2 is not None and norms_below.n3 is not None
    assert norms_above.n2 is None and norms_above.n3 is None
    assert norms_above.n1 is not None

    found = coalescence_sigma(basis, GAUSSIAN, 1, -1, 7.0, 8.0)
    assert abs(found - sigma_star) <= 1e-4


@pytest.mark.parametrize("lo, hi", [(0.2, 7.0), (8.0, 12.0)])
def test_coalescence_sigma_needs_a_straddling_bracket(basis, lo, hi):
    # the pair exists on all of [0.2, 7.0] and nowhere on [8.0, 12.0]
    assert coalescence_sigma(basis, GAUSSIAN, 1, -1, lo, hi) is None


def test_duality_swaps_critical_norm_pairs(make_params):
    norms = critical_norms(make_params(1.0, N=1.0))
    dual = critical_norms(make_params(1.0, s=-1, delta=1, N=1.0))
    assert dual.n0 == pytest.approx(norms.n2, rel=1e-14)
    assert dual.n1 == pytest.approx(norms.n3, rel=1e-14)
    assert dual.n3 == pytest.approx(norms.n1, rel=1e-14)
    assert dual.n2 is None and norms.n0 is None


def test_census_counts_across_the_norm_axis(make_params):
    # asymmetric pair exists for N in (n2, n3) and again for N > n1
    for n, count in ((0.05, 2), (1.0, 4), (4.9, 2), (5.0, 4)):
        census = fixed_point_census(make_params(1.0, N=n))
        assert len(census) == count, n
        families = [fp.family for fp in census]
        assert families[:2] == [SYMMETRIC, ANTISYMMETRIC]
        assert all(f == ASYMMETRIC for f in families[2:])


def test_census_stability_assignments(make_params):
    census = {fp.family: fp for fp in fixed_point_census(make_params(1.0, N=1.0))}
    assert census[SYMMETRIC].stability == CENTER
    assert census[ANTISYMMETRIC].stability == SADDLE
    census5 = fixed_point_census(make_params(1.0, N=5.0))
    by_family = {}
    for fp in census5:
        by_family.setdefault(fp.family, []).append(fp)
    assert by_family[SYMMETRIC][0].stability == SADDLE
    assert by_family[ANTISYMMETRIC][0].stability == CENTER
    assert all(fp.stability == CENTER for fp in by_family[ASYMMETRIC])
    assert all(fp.lambda_sq < 0 for fp in by_family[ASYMMETRIC])


def test_lambda_sq_matches_finite_difference_jacobian(make_params):
    # lambda^2 = -det J for the trace-free linearization of reduced_rhs
    h = 1e-5
    for n in (0.05, 1.0, 5.0):
        p = make_params(1.0, N=n)
        for fp in fixed_point_census(p):
            z0, th0 = fp.state.z, fp.state.theta

            def rhs(z, theta):
                return np.array(reduced_rhs(TwoModeState(z, theta), p))

            col_z = (rhs(z0 + h, th0) - rhs(z0 - h, th0)) / (2 * h)
            col_th = (rhs(z0, th0 + h) - rhs(z0, th0 - h)) / (2 * h)
            jac = np.column_stack([col_z, col_th])
            assert abs(np.trace(jac)) < 1e-8
            assert fp.lambda_sq == pytest.approx(-np.linalg.det(jac),
                                                 rel=1e-4, abs=1e-9)


def test_antisymmetric_lambda_crossings_are_the_critical_norms(make_params):
    p = make_params(0.1, N=1.0)
    norms = critical_norms(p)

    def lam_sq_anti(n):
        return 2 * p.omega * p.coupling(n) - 4 * p.omega ** 2

    crossing_lo = brentq(lam_sq_anti, 0.05, 0.5, xtol=1e-12)
    crossing_hi = brentq(lam_sq_anti, 3.0, 4.7, xtol=1e-12)
    assert crossing_lo == pytest.approx(norms.n2, abs=1e-9)
    assert crossing_hi == pytest.approx(norms.n3, abs=1e-9)
    assert crossing_lo == pytest.approx(NORMS_REF[0.1]["n2"], abs=FROZEN_TOL)
    assert crossing_hi == pytest.approx(NORMS_REF[0.1]["n3"], abs=FROZEN_TOL)


def test_pitchfork_exchange_alignment(make_params):
    # lambda^2 zero of the antisymmetric point and the empty->nonempty
    # transition of asymmetric_z land on the same norm
    p = make_params(1.0, N=1.0)
    n_lambda = brentq(
        lambda n: 2 * p.omega * p.coupling(n) - 4 * p.omega ** 2,
        0.1, 0.2, xtol=1e-14)
    lo, hi = 0.1, 0.2
    assert asymmetric_z(replace(p, N=lo)) == []
    assert asymmetric_z(replace(p, N=hi)) != []
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if asymmetric_z(replace(p, N=mid)):
            hi = mid
        else:
            lo = mid
    assert abs(n_lambda - hi) < 1e-8


def test_asymmetric_branch_is_neutral_to_elliptic(make_params):
    # lambda^2 <= 0 across the existence window, touching 0 at its ends
    p = make_params(0.1, N=1.0)
    norms = critical_norms(p)
    for n in np.linspace(norms.n2 + 1e-4, norms.n3 - 1e-4, 40):
        census = fixed_point_census(replace(p, N=float(n)))
        asym = [fp for fp in census if fp.family == ASYMMETRIC]
        assert len(asym) == 2
        assert all(fp.lambda_sq < 0 for fp in asym)
    for n_edge in (norms.n2, norms.n3):
        f = p.coupling(n_edge)
        assert 4 * p.omega ** 2 - f * f == pytest.approx(0.0, abs=1e-9)


def test_stability_rejects_non_fixed_points(make_params):
    p = make_params(1.0, N=5.0)
    with pytest.raises(TwoModeError):
        fixed_point_stability(TwoModeState(0.3, 0.7), p)


# ---------------------------------------------------------------------------
# chemical-potential maps


def test_parent_mu_frozen_values(make_params):
    for sigma in (0.1, 1.0, 8.0):
        p = make_params(sigma, N=1.0)
        norms = critical_norms(p).present()
        family_of = {"n0": SYMMETRIC, "n1": SYMMETRIC,
                     "n2": ANTISYMMETRIC, "n3": ANTISYMMETRIC}
        for label, mu_ref in MU_REF[sigma].items():
            value = parent_mu(p, family_of[label], norms[label])
            assert value == pytest.approx(mu_ref, abs=FROZEN_TOL), (sigma, label)


def test_parent_mu_rejects_asymmetric_family(make_params):
    with pytest.raises(TwoModeError):
        parent_mu(make_params(1.0, N=1.0), ASYMMETRIC)


def test_dual_parent_mu_mirrors_about_mean_energy(make_params):
    # (s, delta) -> (-s, -delta) with the parent swapped maps mu to 2 Omega - mu
    p = make_params(1.0, N=1.0)
    dual = make_params(1.0, s=-1, delta=1, N=1.0)
    for n in (0.137173932, 4.712621017, 4.979613998):
        mu_anti = parent_mu(p, ANTISYMMETRIC, n)
        mu_dual_sym = parent_mu(dual, SYMMETRIC, n)
        assert mu_anti + mu_dual_sym == pytest.approx(2 * p.Omega, abs=1e-12)


def test_dual_bifurcation_predictions_frozen(make_params):
    events = predicted_bifurcations(make_params(1.0, s=-1, delta=1, N=1.0))
    assert [(e.family, e.kind) for e in events] == [
        (SYMMETRIC, SSB), (SYMMETRIC, RESTORING), (ANTISYMMETRIC, SSB)]
    assert events[0].mu == pytest.approx(0.121164568, abs=FROZEN_TOL)
    assert events[1].mu == pytest.approx(-0.075431804, abs=FROZEN_TOL)
    assert events[2].mu == pytest.approx(-0.052539856, abs=FROZEN_TOL)


def test_predicted_bifurcations_structure(make_params):
    events = predicted_bifurcations(make_params(1.0, N=1.0))
    assert [(e.family, e.kind) for e in events] == [
        (ANTISYMMETRIC, SSB), (ANTISYMMETRIC, RESTORING), (SYMMETRIC, SSB)]
    assert [e.norm for e in events] == sorted(e.norm for e in events)

    wide = predicted_bifurcations(make_params(8.0, N=1.0))
    assert len(wide) == 1
    assert wide[0].family == SYMMETRIC and wide[0].kind == SSB
    assert wide[0].norm == pytest.approx(NORMS_REF[8.0]["n1"], abs=FROZEN_TOL)
    assert wide[0].mu == pytest.approx(MU_REF[8.0]["n1"], abs=FROZEN_TOL)

    dual_wide = predicted_bifurcations(make_params(8.0, s=-1, delta=1, N=1.0))
    assert len(dual_wide) == 1
    assert dual_wide[0].family == ANTISYMMETRIC
    assert dual_wide[0].mu == pytest.approx(0.028433468, abs=FROZEN_TOL)


# ---------------------------------------------------------------------------
# orbit integration


def test_orbit_holds_at_asymmetric_center(lobe_params):
    center = asymmetric_z(lobe_params)[0]
    orbit = integrate_orbit(center, lobe_params, t_end=50.0, dt=0.05)
    assert np.max(np.abs(orbit.z - center.z)) < 1e-8
    assert np.max(np.abs(orbit.theta - center.theta)) < 1e-8


def test_orbit_holds_at_antisymmetric_center(make_params):
    p = make_params(1.0, N=0.05)
    orbit = integrate_orbit(TwoModeState(0.0, math.pi), p, t_end=50.0, dt=0.05)
    assert np.max(np.abs(orbit.z)) < 1e-10
    assert np.max(np.abs(orbit.theta - math.pi)) < 1e-10


def test_lobe_orbit_escapes_and_encircles_center(lobe_params, lobe_orbit):
    z_center = asymmetric_z(lobe_params)[0].z
    assert np.max(lobe_orbit.z) > z_center + 0.01
    assert np.min(lobe_orbit.z) > 1e-3  # never leaves the positive lobe
    crossings = np.sum(np.diff(np.sign(lobe_orbit.z - z_center)) != 0)
    assert crossings >= 2
    assert np.max(np.abs(lobe_orbit.theta)) < math.pi / 2


def test_lobe_orbit_conserves_hamiltonian(lobe_params, lobe_orbit):
    scale = max(abs(lobe_orbit.hamiltonian[0]), 2 * lobe_params.omega)
    drift = np.max(np.abs(lobe_orbit.hamiltonian - lobe_orbit.hamiltonian[0]))
    assert drift <= 1e-8 * scale
    assert lobe_orbit.dt == pytest.approx(0.05)


def test_orbit_mirror_antisymmetry(lobe_params):
    fwd = integrate_orbit(TwoModeState(0.01, 0.0), lobe_params, t_end=300.0, dt=0.05)
    mir = integrate_orbit(TwoModeState(-0.01, 0.0), lobe_params, t_end=300.0, dt=0.05)
    # exact: the step is built from sign-symmetric roundings (module docstring);
    # theta[0] is the shared start 0.0
    assert np.array_equal(mir.z, -fwd.z)
    assert np.array_equal(mir.theta[1:], -fwd.theta[1:])
    assert np.array_equal(mir.hamiltonian, fwd.hamiltonian)
    assert mir.halvings == fwd.halvings


def test_orbit_step_halving_on_drift(lobe_params):
    orbit = integrate_orbit(TwoModeState(0.3, 0.5), lobe_params, t_end=60.0, dt=5.0)
    assert orbit.dt < 5.0
    assert orbit.dt == 5.0 / 2**orbit.halvings
    scale = max(abs(orbit.hamiltonian[0]), 2 * lobe_params.omega)
    assert np.max(np.abs(orbit.hamiltonian - orbit.hamiltonian[0])) <= 1e-8 * scale
    assert len(orbit.t) == int(round(60.0 / orbit.dt)) + 1


def _rk4_reference(initial, p, t_end, dt):
    """Textbook RK4 on the public reduced_rhs and hamiltonian, restarted at
    half the step until every step keeps |H - H0| <= 1e-8 max(|H0|, 2 omega)."""
    h0 = hamiltonian(initial, p)
    while True:
        z, theta, h = [initial.z], [initial.theta], [h0]
        for _ in range(max(1, int(round(t_end / dt)))):
            s = TwoModeState(z[-1], theta[-1])
            k1 = reduced_rhs(s, p)
            k2 = reduced_rhs(TwoModeState(s.z + 0.5 * dt * k1[0], s.theta + 0.5 * dt * k1[1]), p)
            k3 = reduced_rhs(TwoModeState(s.z + 0.5 * dt * k2[0], s.theta + 0.5 * dt * k2[1]), p)
            k4 = reduced_rhs(TwoModeState(s.z + dt * k3[0], s.theta + dt * k3[1]), p)
            z.append(s.z + dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6)
            theta.append(s.theta + dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6)
            h.append(hamiltonian(TwoModeState(z[-1], theta[-1]), p))
            if abs(h[-1] - h0) > 1e-8 * max(abs(h0), 2 * p.omega):
                break
        else:
            return dt, np.array(z), np.array(theta), np.array(h)
        dt *= 0.5


@pytest.mark.parametrize("z0, theta0, t_end, dt, final_dt", [
    (0.01, 0.0, 15.0, 0.05, 0.05),       # inside the lobe, 300 steps
    (-0.4, math.pi, 20.0, 0.05, 0.05),   # around the antisymmetric center, 400 steps
    (0.3, 0.5, 60.0, 5.0, 1.25),         # drifts at dt = 5 and 2.5, 48 steps at 1.25
    (0.0, 0.0, 15.0, 0.05, 0.05),        # the symmetric fixed point, filled at once
])
def test_orbit_matches_public_rk4_bit_for_bit(lobe_params, z0, theta0, t_end, dt, final_dt):
    start = TwoModeState(z0, theta0)
    orbit = integrate_orbit(start, lobe_params, t_end=t_end, dt=dt)
    ref_dt, z, theta, h = _rk4_reference(start, lobe_params, t_end, dt)
    assert orbit.dt == ref_dt == final_dt
    assert np.array_equal(orbit.z, z)
    assert np.array_equal(orbit.theta, theta)
    assert np.array_equal(orbit.hamiltonian, h)
    for k in range(orbit.t.size):
        state = TwoModeState(orbit.z[k], orbit.theta[k])
        assert orbit.hamiltonian[k] == hamiltonian(state, lobe_params)


def test_orbit_aborts_at_singular_rim():
    # zero imbalance force: along theta = pi/2 the exact orbit reaches z = 1
    p = ModeParams(s=1, delta=-1, N=1.0, eta0=0.1, eta1=0.1, eta4=0.0,
                   omega=0.011454673, Omega=0.144240623)
    assert p.coupling() == 0.0
    with pytest.raises(TwoModeError, match=r"\|z\| = 1"):
        integrate_orbit(TwoModeState(0.5, math.pi / 2), p, t_end=60.0, dt=0.05)


def test_orbit_singularity_inside_a_step_is_diagnosed():
    # zero imbalance force, theta = pi/2: every step up to t = 44 ends inside
    # |z| < 1, and the next one crosses the rim at an intermediate RK stage
    p = ModeParams(s=1, delta=-1, N=1.0, eta0=0.1, eta1=0.1, eta4=0.0,
                   omega=0.011454673, Omega=0.144240623)
    start = TwoModeState(0.5, math.pi / 2)
    inside = integrate_orbit(start, p, t_end=44.0, dt=2.0)
    assert inside.dt == 2.0 and abs(inside.z[-1]) < 1
    with pytest.raises(TwoModeError, match=r"singularity near t = 44: ") as info:
        integrate_orbit(start, p, t_end=60.0, dt=2.0)
    assert isinstance(info.value.__cause__, TwoModeError)
    assert "theta equation is singular" in str(info.value.__cause__)


def test_orbit_stops_at_the_first_non_finite_hamiltonian():
    # a NaN coupling makes theta, then z and H, NaN on the first step; no
    # smaller step can mend that, so the run stops there instead of halving
    p = ModeParams(s=1, delta=-1, N=1.0, eta0=math.nan, eta1=0.0, eta4=0.0,
                   omega=0.011454673, Omega=0.144240623)
    assert math.isnan(p.coupling())
    with pytest.raises(TwoModeError) as info:
        integrate_orbit(TwoModeState(0.01, 0.0), p, t_end=60.0, dt=0.05)
    assert str(info.value) == "orbit Hamiltonian is nan at t = 0.05: z = nan, theta = nan"


@pytest.mark.parametrize("eta0, norm", [(math.inf, 1.0), (1e308, 5.0)])
def test_orbit_names_an_infinite_coupling(eta0, norm):
    # an infinite f makes theta infinite at the first stage, and sin(inf)
    # raises the ValueError that the rim handler catches; the orbit names f
    # before its first step instead (eta0 = 1e308 overflows only in f)
    p = ModeParams(s=1, delta=-1, N=norm, eta0=eta0, eta1=0.0, eta4=0.0,
                   omega=0.011454673, Omega=0.144240623)
    assert math.isfinite(p.eta_z) == (eta0 != math.inf)
    with pytest.raises(TwoModeError) as info:
        integrate_orbit(TwoModeState(0.01, 0.0), p, t_end=60.0, dt=0.05)
    assert str(info.value) == (f"orbit coupling f(N) is inf at N = {norm}: "
                               f"eta_z = {p.eta_z}, eta4 = 0.0")


def test_orbit_drift_error_names_the_last_step_tried():
    # a huge finite coupling drifts at every step size; from dt = 0.01 the
    # eighth halving, 0.01 / 2^8, is the last step tried
    p = ModeParams(s=1, delta=-1, N=1.0, eta0=1e300, eta1=0.0, eta4=0.0,
                   omega=0.011454673, Omega=0.144240623)
    with pytest.raises(TwoModeError) as info:
        integrate_orbit(TwoModeState(0.01, 0.0), p, t_end=60.0, dt=0.01)
    assert str(info.value) == "Hamiltonian drift above 1e-08 even at dt = 3.90625e-05"


def test_orbit_argument_validation(lobe_params):
    with pytest.raises(TwoModeError):
        integrate_orbit(TwoModeState(1.0, 0.0), lobe_params, t_end=1.0, dt=0.01)
