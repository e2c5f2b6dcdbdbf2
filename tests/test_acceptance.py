"""Acceptance gate: the headline numbers and property contracts in one file.

Each criterion is one test that prints a single `criterion NN PASS/FAIL` line
(run with `pytest tests/test_acceptance.py -s` to see every line, or read the
assertion message on failure, which carries the same text). Quantitative
criteria compare recomputed values against external reference anchors at the
stated tolerances; property criteria assert internal consistency. Two
criteria miss their anchors and fail; the printed details show both numbers
so the discrepancies stay auditable:

- 03: N1 = 4.9796 against 4.9862, and z(N=5) = 0.509 against 0.4318, one
  0.13% shift in N1 seen twice (z^2 grows like N - N1 just past N1); it is
  not the grid (z = 0.504 at dx = 0.025), and keeping eta1 (N1 = 4.920) or
  adding eta5 (N1 = 5.001) does not reach the anchor either.
- 07: no antisymmetric SSB at sigma = 8 against 0.1981; projecting the
  quintic term consistently (eta4 - eta5 in f, eta4 + eta5 in the parent mu)
  predicts 0.19812, but moves criterion 03's coalescence sigma from 7.509 to
  9.152, so the two anchors disagree under either reduction.
"""

import math

import numpy as np
from scipy.optimize import brentq

from cqdw.discretization import ConvolutionPlan, Kernel, kernel_eval
from cqdw.dynamics import growth_rate, onset_time, solve_screened_poisson
from cqdw.overlaps import compute_overlaps, recompute_thresholds
from cqdw.stability import build_bdg, solve_bdg
from cqdw.twomode import (
    ANTISYMMETRIC,
    RESTORING,
    SSB,
    SYMMETRIC,
    TwoModeState,
    asymmetric_z,
    coalescence_sigma,
    critical_norms,
    fixed_point_stability,
    integrate_orbit,
    predicted_bifurcations,
)

from bdg_reference import parent_block_spectrum, quartet_defect


def box(value: float, target: float, tol: float, label: str):
    ok = abs(value - target) <= tol
    return ok, f"{label}={value:.6g} vs {target:g}+-{tol:g}"


def report(num: int, label: str, checks):
    ok = all(flag for flag, _ in checks)
    status = "PASS" if ok else "FAIL"
    failed = [d for flag, d in checks if not flag]
    shown = failed if failed else [d for _, d in checks]
    line = f"criterion {num:02d} {status}: {label} [{'; '.join(shown)}]"
    print(line)
    assert ok, line


def test_criterion_01_linear_spectrum(basis):
    report(1, "linear doublet frequencies", [
        box(basis.omega0, 0.13282, 5e-4, "omega0"),
        box(basis.omega1, 0.15571, 5e-4, "omega1"),
    ])


def test_criterion_02_regime_thresholds(basis):
    gauss = recompute_thresholds(basis, "gaussian")
    expo = recompute_thresholds(basis, "exponential")
    report(2, "recomputed regime thresholds", [
        box(gauss.sigma_b, 2.96, 0.05, "gaussian sigma_b"),
        box(gauss.sigma_c, 9.15, 0.15, "gaussian sigma_c"),
        box(expo.sigma_b, 1.56, 0.05, "exponential sigma_b"),
        box(expo.sigma_c, 7.01, 0.15, "exponential sigma_c"),
    ])


def test_criterion_03_critical_norms(basis, make_params):
    n1 = critical_norms(make_params(1.0, N=1.0)).n1
    z_at_5 = max(abs(s.z) for s in asymmetric_z(make_params(1.0, N=5.0)))
    report(3, "critical norms at sigma=1", [
        box(n1, 4.9862, 1e-3, "N1"),
        box(z_at_5, 0.4318, 1e-3, "z(N=5)"),
        box(coalescence_sigma(basis, "gaussian", 1, -1, 0.2, 12.0), 7.52, 0.1, "coalescence sigma"),
    ])


def test_criterion_04_stability_windows(make_params):
    def lam(n: float) -> float:
        state = TwoModeState(0.0, math.pi)
        return fixed_point_stability(state, make_params(0.1, N=n)).lambda_sq

    lower = brentq(lam, 0.05, 1.0, xtol=1e-12)
    upper = brentq(lam, 1.0, 6.0, xtol=1e-12)

    def exists(n: float) -> bool:
        # only the theta = pi family; a second asymmetric pair born from the
        # symmetric parent appears on theta = 0 above N1 and must not count
        return any(abs(s.theta - math.pi) <= 1e-9
                   for s in asymmetric_z(make_params(0.1, N=n)))

    def boundary(a: float, b: float) -> float:
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            if exists(mid) == exists(b):
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)

    # On theta = pi the pair exists where z^2 = 1 - 4 omega^2/f^2 >= 0, i.e.
    # f >= 2 omega, and lambda^2_anti = 2 omega (f - 2 omega): the asymmetric
    # pair exists exactly where the antisymmetric lambda^2 > 0, so its onset
    # and endpoint are the two crossings.  The former onset/endpoint anchors
    # 0.03 +- 0.01 and 4.75 +- 0.05 are dropped: their boxes are disjoint
    # from the crossing boxes below, so no program that obeys the reduction
    # could meet all four.
    birth = boundary(0.05, 1.0)
    death = boundary(1.0, 6.0)
    onset_gap = birth - lower
    endpoint_gap = death - upper
    report(4, "stability windows at sigma=0.1", [
        box(lower, 0.14, 0.02, "lambda^2 crossing (lower)"),
        box(upper, 4.63, 0.05, "lambda^2 crossing (upper)"),
        (abs(onset_gap) <= 1e-9, f"asym onset - lower crossing={onset_gap:.3g} vs 1e-9"),
        (abs(endpoint_gap) <= 1e-9,
         f"asym endpoint - upper crossing={endpoint_gap:.3g} vs 1e-9"),
    ])


def test_criterion_05_bifurcations_focusing(branch_suite):
    checks = []
    for key, anchors in (
        ("sigma01", (0.1686, 0.381, 0.359)),
        ("sigma1", (0.168, 0.374, 0.355)),
    ):
        entry = branch_suite[key]
        anti = entry["anti_pitchforks"]
        sym = entry["sym_pitchforks"]
        checks.append(box(anti[0].event.mu, anchors[0], 2e-3, f"{key} anti SSB"))
        checks.append(box(anti[1].event.mu, anchors[1], 5e-3, f"{key} anti restore"))
        checks.append(box(sym[0].event.mu, anchors[2], 5e-3, f"{key} sym pitchfork"))
    wide = branch_suite["sigma8"]
    checks.append(box(wide["anti_pitchforks"][0].event.mu, 0.195, 3e-3, "sigma8 anti SSB"))
    n_anti = len(wide["anti_pitchforks"])
    checks.append((n_anti == 2, f"sigma8 restoring merge found ({n_anti - 1} event)"))
    n_sym = len(wide["sym_pitchforks"])
    checks.append((n_sym == 0, f"sigma8 sym pitchforks in scan window: {n_sym}"))
    report(5, "branch bifurcations, focusing signs", checks)


def test_criterion_06_bifurcations_defocusing(branch_suite):
    entry = branch_suite["dual1"]
    sym = entry["sym_pitchforks"]
    anti = entry["anti_pitchforks"]
    report(6, "branch bifurcations, opposite signs", [
        box(sym[0].event.mu, 0.1212, 2e-3, "sym SSB"),
        box(sym[1].event.mu, -0.0727, 3e-3, "sym restore"),
        box(anti[0].event.mu, -0.0465, 3e-3, "anti pitchfork"),
    ])


def test_criterion_07_reduction_predictions(make_params):
    checks = []
    for sigma, anchors in ((0.1, (0.1679, 0.3723, 0.3492)),
                           (1.0, (0.1673, 0.364, 0.342))):
        events = predicted_bifurcations(make_params(sigma, N=1.0))
        table = {(e.family, e.kind): e.mu for e in events}
        checks.append(box(table[(ANTISYMMETRIC, SSB)], anchors[0], 1e-3,
                          f"sigma={sigma} anti SSB"))
        checks.append(box(table[(ANTISYMMETRIC, RESTORING)], anchors[1], 1e-3,
                          f"sigma={sigma} anti restore"))
        checks.append(box(table[(SYMMETRIC, SSB)], anchors[2], 1e-3,
                          f"sigma={sigma} sym SSB"))
    wide = {(e.family, e.kind): e.mu for e in predicted_bifurcations(make_params(8.0, N=1.0))}
    if (ANTISYMMETRIC, SSB) in wide:
        checks.append(box(wide[(ANTISYMMETRIC, SSB)], 0.1981, 1e-3, "sigma=8 anti SSB"))
    else:
        others = ", ".join(f"{fam} {kind} at {mu:.6g}" for (fam, kind), mu in wide.items())
        checks.append((False, f"sigma=8 anti SSB vs 0.1981: no such prediction ({others})"))
    dual = {(e.family, e.kind): e.mu
            for e in predicted_bifurcations(make_params(1.0, s=-1, delta=1, N=1.0))}
    checks.append(box(dual[(SYMMETRIC, SSB)], 0.1212, 1e-3, "dual sym SSB"))
    checks.append(box(dual[(SYMMETRIC, RESTORING)], -0.0755, 1e-3, "dual sym restore"))
    checks.append(box(dual[(ANTISYMMETRIC, SSB)], -0.0526, 1e-3, "dual anti event"))
    report(7, "reduction-predicted bifurcations", checks)


def test_criterion_08_breaking_onset_windows(breaking_runs):
    _, runs = breaking_runs
    t19 = onset_time(runs[0.19]["run"])
    t25 = onset_time(runs[0.25]["run"])
    report(8, "symmetry-breaking onset times", [
        (t19 is not None and 150.0 <= t19 <= 300.0,
         f"onset(mu=0.19)={t19} vs [150, 300]"),
        (t25 is not None and 70.0 <= t25 <= 150.0,
         f"onset(mu=0.25)={t25} vs [70, 150]"),
    ])


def test_criterion_09_conservation(breaking_runs, make_params):
    _, runs = breaking_runs
    drift = 0.0
    for entry in runs.values():
        series = entry["run"].norm_series
        drift = max(drift, float(np.max(np.abs(series - series[0])) / series[0]))
    h_drift = 0.0
    p = make_params(1.0, N=5.0)
    for z0, theta0 in ((0.01, 0.0), (0.5, 0.0), (0.3, math.pi), (-0.6, math.pi)):
        orbit = integrate_orbit(TwoModeState(z0, theta0), p, t_end=400.0)
        href = orbit.hamiltonian[0]
        h_drift = max(h_drift, float(
            np.max(np.abs(orbit.hamiltonian - href)) / max(abs(href), 1e-12)))
    report(9, "norm and Hamiltonian conservation", [
        (drift <= 1e-8, f"field norm drift={drift:.3g} vs 1e-8"),
        (h_drift <= 1e-8, f"orbit H drift={h_drift:.3g} vs 1e-8"),
    ])


def test_criterion_10_spectral_symmetries(branch_suite, parent_sweeps, breaking_runs):
    # The zero pair is the one the solver measures.  Its +-l roots form
    # quartets by construction, so the quartet defect is measured on the
    # parent-sector block M, which holds the phase mode, at the same states.
    spectra = [s for table in parent_sweeps.values() for sweep in table.values()
               for s in sweep]
    cases = [(branch_suite[key]["problem"], state) for key, table in parent_sweeps.items()
             for family in table for state in branch_suite[key][family].states]
    _, runs = breaking_runs
    problem = branch_suite["sigma1"]["problem"]
    spectra += [solve_bdg(build_bdg(problem, entry["state"])) for entry in runs.values()]
    cases += [(problem, entry["state"]) for entry in runs.values()]
    worst_quartet = max(quartet_defect(parent_block_spectrum(build_bdg(*case)))
                        for case in cases)
    worst_zero = max(float(np.abs(s.eigenvalues).min()) for s in spectra)
    report(10, "linearization quartet and zero mode", [
        (worst_quartet <= 1e-8,
         f"quartet defect={worst_quartet:.3g} over {len(spectra)} states"),
        (worst_zero <= 1e-6, f"largest min|lambda|={worst_zero:.3g} vs 1e-6"),
    ])


def test_criterion_11_oracle_equivalence(grid, basis):
    rng = np.random.default_rng(11)
    conv_err = 0.0
    for kernel in (Kernel("gaussian", 1.0), Kernel("exponential", 1.7)):
        f = rng.standard_normal(grid.n_points)
        fast = ConvolutionPlan(kernel, grid).apply(f)
        diff = grid.points[:, None] - grid.points[None, :]
        slow = kernel_eval(kernel, diff) @ f * grid.spacing
        conv_err = max(conv_err, float(np.max(np.abs(fast - slow))))

    kernel = Kernel("gaussian", 1.0)
    overlaps = compute_overlaps(basis, kernel)
    pl, pr = basis.phi_left, basis.phi_right
    ll, rr, lr = pl * pl, pr * pr, pl * pr
    pairs = [(ll, ll), (ll, rr), (ll, lr), (lr, lr),
             (ll * ll, ll), (ll * ll, rr), (ll * ll, lr), (ll * rr, ll),
             (ll * rr, lr), (ll * lr, ll), (ll * lr, rr), (ll * lr, lr)]
    eta_err = 0.0
    w = grid.weights
    dense = kernel_eval(kernel, grid.points[:, None] - grid.points[None, :])
    for i, (f, g) in enumerate(pairs):
        double_integral = float(w @ (g * (dense @ (w * f))))
        eta_err = max(eta_err, abs(overlaps[i] - double_integral))

    d, sigma0 = 0.25, 1.0
    intensity = 0.64 * np.exp(-2.0 * grid.points**2)
    solved = solve_screened_poisson(grid, intensity, d, sigma0)
    ref = ConvolutionPlan(Kernel("exponential", math.sqrt(d)), grid).apply(
        sigma0 * (intensity - intensity**2))
    sp_err = float(np.max(np.abs(solved - ref)))
    report(11, "independent-route oracles", [
        (conv_err <= 1e-8, f"fft vs quadrature={conv_err:.3g} vs 1e-8"),
        (eta_err <= 1e-8, f"eta vs double integral={eta_err:.3g} vs 1e-8"),
        (sp_err <= 1e-6, f"screened-Poisson vs convolution={sp_err:.3g} vs 1e-6"),
    ])


def test_criterion_12_pitchfork_consistency(make_params, branch_suite, parent_sweeps):
    checks = []
    for sigma in (0.1, 1.0):
        def lam(n: float) -> float:
            state = TwoModeState(0.0, math.pi)
            return fixed_point_stability(state, make_params(sigma, N=n)).lambda_sq

        crit = critical_norms(make_params(sigma, N=1.0))
        for target, bracket, label in ((crit.n2, (0.05, 1.0), "n2"),
                                       (crit.n3, (1.0, 6.0), "n3")):
            crossing = brentq(lam, *bracket, xtol=1e-13)
            gap = abs(crossing - target)
            checks.append((gap <= 1e-8,
                           f"sigma={sigma} {label} endpoint gap={gap:.3g}"))

    for key in ("sigma01", "sigma1"):
        entry = branch_suite[key]
        for family in ("sym", "anti"):
            branch = entry[family]
            spectra = parent_sweeps[key][family]
            inside = [i for i, st in enumerate(branch.states) if st.norm <= 6.0]
            flips = [(branch.states[i - 1].norm, branch.states[i].norm)
                     for i in inside[1:]
                     if spectra[i - 1].unstable_count != spectra[i].unstable_count]
            pitchforks = entry[f"{family}_pitchforks"]
            matched = all(
                any(min(a, b) <= pf.event.norm <= max(a, b) for pf in pitchforks)
                for a, b in flips)
            checks.append((
                matched and len(flips) == len(pitchforks),
                f"{key} {family}: {len(flips)} stability changes, "
                f"{len(pitchforks)} pitchforks, bracketed={matched}"))
    report(12, "pitchforks carry every stability change", checks)


def test_criterion_13_growth_rate_match(breaking_runs):
    _, runs = breaking_runs
    checks = []
    for mu, entry in sorted(runs.items()):
        fitted = growth_rate(entry["run"])
        rel = abs(fitted - entry["rate"]) / entry["rate"]
        checks.append((rel <= 0.10,
                       f"mu={mu}: fit {fitted:.5f} vs BdG {entry['rate']:.5f} "
                       f"({100 * rel:.2f}%)"))
    report(13, "measured growth matches linearization", checks)
