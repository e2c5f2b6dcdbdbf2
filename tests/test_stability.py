import numpy as np
import pytest
import sympy as sp

from cqdw.continuation import make_state
from cqdw.discretization import kernel_eval, parity_residuals
from cqdw.stability import (
    DEFAULT_THRESHOLD,
    StabilityError,
    _dominant_eigenpair,
    build_bdg,
    dominant_unstable_mode,
    solve_bdg,
    sweep_branch,
)
from cqdw.twomode import ModeParams, TwoModeState, critical_norms, fixed_point_stability

from bdg_reference import block, block_spectrum, exchange_block, full_blocks, quartet_defect

# Event locations frozen from the continuation suite (sigma = 0.1 scan):
# the antisymmetric parent breaks symmetry at N = 0.1398, restores it at
# N = 5.2545 and folds at N = 5.3366; the symmetric parent folds at
# N = 5.5893 strictly before its pitchfork at N = 5.6591.
SSB_N = 0.1398
RESTORE_N = 5.2545
SYM_FOLD_N = 5.5893
SYM_PF_N = 5.6591


def nearest_index(branch, norm):
    return int(np.argmin([abs(s.norm - norm) for s in branch.states]))


def nearest_state(branch, norm):
    return branch.states[nearest_index(branch, norm)]


@pytest.fixture(scope="module")
def entry01(branch_suite):
    return branch_suite["sigma01"]


@pytest.fixture(scope="module")
def bdg_mid(entry01):
    """Operator at an antisymmetric state inside the unstable window."""
    state = nearest_state(entry01["anti"], 1.0)
    return entry01["problem"], state, build_bdg(entry01["problem"], state)


# --- operator assembly ------------------------------------------------------


def test_vacuum_spectrum_is_shifted_linear_spectrum(entry01, basis):
    problem = entry01["problem"]
    mu = 0.1
    vacuum = make_state(problem, np.zeros(problem.grid.n_points), mu, 0, 0.0)
    spectrum = solve_bdg(build_bdg(problem, vacuum))
    for omega_k in (basis.omega0, basis.omega1):
        target = 1j * (omega_k - mu)
        assert np.abs(spectrum.eigenvalues - target).min() <= 1e-9
        assert np.abs(spectrum.eigenvalues + target).min() <= 1e-9
    assert spectrum.unstable_count == 0


def test_block_annihilates_phase_mode(bdg_mid):
    _, state, op = bdg_mid
    psi = op.psi
    vec = np.concatenate([psi, -psi])
    defect = np.abs(block(op) @ vec).max() / np.abs(psi).max()
    assert defect <= 1e-8


def test_entries_match_direct_quadrature(bdg_mid):
    problem, state, op = bdg_mid
    grid = problem.grid
    x, dx = grid.points, grid.spacing
    psi = op.psi
    x_block = exchange_block(op)
    l_minus, _ = full_blocks(op)
    dense_l = problem.operator.to_dense()
    for i in range(0, grid.n_points, 37):
        row = kernel_eval(problem.kernel, x[i] - x) * dx
        exchange = (problem.s * psi[i] * row * psi
                    + 2.0 * problem.delta * psi[i] * row * psi**3)
        assert np.abs(x_block[i] - exchange).max() <= 1e-10
        local = dense_l[i].copy()
        local[i] += -op.mu + problem.s * row @ psi**2 + problem.delta * row @ psi**4
        assert np.abs(l_minus[i] - local).max() <= 1e-10
        assert np.abs(l_minus[i] + x_block[i] - (local + exchange)).max() <= 1e-10


def test_sum_block_equals_newton_jacobian(bdg_mid):
    # The u-equation operator Ld + 2X of each sector block must coincide with
    # the fold of the whole-grid continuation Jacobian; the sector blocks are
    # assembled from pre-folded matrices, not by folding.
    problem, state, op = bdg_mid
    jac = problem.jacobian(op.psi, op.mu)
    assert [form.sector.parity for form in op.forms] == ["odd", "even"]
    for form in op.forms:
        assert np.abs(form.l_plus - form.sector.fold(jac)).max() <= 1e-12


def test_exchange_block_is_not_symmetric(bdg_mid):
    # The quintic exchange couples psi_i to psi_j^3, so X has no reason to
    # be symmetric; solvers must not assume it ever again.
    _, _, op = bdg_mid
    x_block = exchange_block(op)
    assert np.abs(x_block - x_block.T).max() > 1e-6


def test_build_requires_converged_state(entry01, basis):
    problem = entry01["problem"]
    stray_psi = 0.5 * basis.u1
    stray = make_state(problem, stray_psi, 0.2, 0,
                       float(np.max(np.abs(problem.residual(stray_psi, 0.2)))))
    assert stray.residual > 1e-10
    with pytest.raises(StabilityError, match="not converged"):
        build_bdg(problem, stray)


def test_build_refuses_a_nan_residual(entry01, basis):
    """A NaN residual fails the convergence guard, which names it, rather than
    reaching the eigensolver."""
    problem = entry01["problem"]
    state = make_state(problem, 0.5 * basis.u1, 0.2, 0, float("nan"))
    with pytest.raises(StabilityError, match="not converged: residual nan "):
        build_bdg(problem, state)


def test_linearization_matches_symbolic_toy_grid():
    # Independent derivation on a 5-point grid: substitute
    # psi = p + a e^{Lt} + conj(b) e^{conj(L)t} into the discrete flow with
    # generic kernels, potential and signs, take the first-order terms, and
    # read off the blocks coupling to a and b.
    n = 5
    dx, mu = sp.symbols("dx mu", positive=True)
    s_s, d_s = sp.symbols("s delta", real=True)
    p = sp.symbols("p0:5", real=True)
    v = sp.symbols("v0:5", real=True)
    a = sp.symbols("a0:5", real=True)
    b = sp.symbols("b0:5", real=True)
    ac = sp.symbols("ac0:5", real=True)
    bc = sp.symbols("bc0:5", real=True)
    r1 = sp.symbols("r1_0:5", real=True)
    r2 = sp.symbols("r2_0:5", real=True)
    e1, e2 = sp.symbols("E1 E2")

    psi = [p[i] + a[i] * e1 + bc[i] * e2 for i in range(n)]
    psis = [p[i] + ac[i] * e2 + b[i] * e1 for i in range(n)]
    dens = [psi[i] * psis[i] for i in range(n)]
    dens_sq = [q**2 for q in dens]

    def conv(r, g, i):
        return dx * sum(r[abs(i - j)] * g[j] for j in range(n))

    def lap(f, i):
        left = f[i - 1] if i > 0 else 0
        right = f[i + 1] if i < n - 1 else 0
        return (left - 2 * f[i] + right) / dx**2

    flow = [-lap(psi, i) / 2 + (v[i] - mu) * psi[i]
            + s_s * conv(r1, dens, i) * psi[i]
            + d_s * conv(r2, dens_sq, i) * psi[i]
            for i in range(n)]
    # The first-order coefficient of e1 is d/de1 at e1 = e2 = 0; differentiating
    # before expanding keeps the quartic density products unexpanded.
    zero = {e1: 0, e2: 0}
    rows = [sp.expand(sp.diff(f, e1).subs(zero)) for f in flow]
    # conj equation i d(psi*)/dt = -conj(flow): formal conjugation swaps
    # a <-> ac, b <-> bc, e1 <-> e2, so its e1 coefficient is the swapped
    # e2 coefficient of -flow.
    swap = {a[i]: ac[i] for i in range(n)}
    swap.update({ac[i]: a[i] for i in range(n)})
    swap.update({b[i]: bc[i] for i in range(n)})
    swap.update({bc[i]: b[i] for i in range(n)})
    conj_rows = [sp.expand(-sp.diff(f, e2).subs(zero).subs(swap, simultaneous=True))
                 for f in flow]

    for i in range(n):
        for j in range(n):
            x_ij = (s_s * p[i] * dx * r1[abs(i - j)] * p[j]
                    + 2 * d_s * p[i] * dx * r2[abs(i - j)] * p[j]**3)
            if i == j:
                ld_ij = (1 / dx**2 + v[i] - mu
                         + s_s * conv(r1, [q**2 for q in p], i)
                         + d_s * conv(r2, [q**4 for q in p], i))
            elif abs(i - j) == 1:
                ld_ij = -1 / (2 * dx**2)
            else:
                ld_ij = sp.Integer(0)
            assert sp.expand(rows[i].coeff(a[j]) - (ld_ij + x_ij)) == 0
            assert sp.expand(rows[i].coeff(b[j]) - x_ij) == 0
            assert sp.expand(conj_rows[i].coeff(a[j]) + x_ij) == 0
            assert sp.expand(conj_rows[i].coeff(b[j]) + (ld_ij + x_ij)) == 0

    # the exchange block is manifestly nonsymmetric: its quintic part
    # carries the factor 2 and couples p_i to p_j^3
    x01 = rows[0].coeff(b[1])
    x10 = rows[1].coeff(b[0])
    gap = sp.expand(x01 - x10 - 2 * d_s * dx * r2[1] * p[0] * p[1] * (p[1]**2 - p[0]**2))
    assert gap == 0


# --- eigensolvers -----------------------------------------------------------


def test_quartet_symmetry(bdg_mid):
    _, _, op = bdg_mid
    for eigenvalues in (solve_bdg(op).eigenvalues, block_spectrum(op)):
        assert quartet_defect(eigenvalues) <= 1e-8


def test_phase_zero_mode_present(entry01, ssb_daughter):
    problem = entry01["problem"]
    _, _, daughter = ssb_daughter
    sample = [nearest_state(entry01["anti"], 0.3),
              nearest_state(entry01["sym"], 2.0),
              nearest_state(daughter, 3.0)]
    for state in sample:
        spectrum = solve_bdg(build_bdg(problem, state))
        assert np.abs(spectrum.eigenvalues).min() <= 1e-6


@pytest.fixture(scope="module")
def parity_states(entry01, bdg_mid, ssb_daughter):
    """Operators at an even parent, an odd parent, the vacuum and a daughter."""
    problem = entry01["problem"]
    vacuum = make_state(problem, np.zeros(problem.grid.n_points), 0.1, 0, 0.0)
    return {"even": build_bdg(problem, nearest_state(entry01["sym"], 2.0)),
            "odd": bdg_mid[2],
            "vacuum": build_bdg(problem, vacuum),
            "daughter": build_bdg(problem, nearest_state(ssb_daughter[2], 3.0))}


@pytest.mark.parametrize("name", ["even", "odd", "vacuum", "daughter"])
def test_parity_split_matches_whole_block(parity_states, name):
    # The default route solves the two reflection sectors of a state with
    # parity, or the whole grid without it, in deflated product form; it must
    # reproduce the whole 2n x 2n block.
    op = parity_states[name]
    split = solve_bdg(op)
    whole = block_spectrum(op)
    assert len(split.eigenvalues) == len(whole)
    for ref, other in ((whole, split.eigenvalues), (split.eigenvalues, whole)):
        for lam in ref[np.abs(ref) > 1e-3]:
            assert np.abs(other - lam).min() <= 1e-8
    assert split.unstable_count == np.count_nonzero(whole.real > DEFAULT_THRESHOLD)
    if split.max_real_part > DEFAULT_THRESHOLD:
        assert abs(split.max_real_part - whole.real.max()) <= 1e-8
    if np.any(op.psi):
        # the phase zero pair, which rounding splits on the block, is bounded
        # on both routes as in criterion 10
        for values in (split.eigenvalues, whole):
            assert np.abs(values).min() <= 1e-6


def test_asymmetric_state_keeps_whole_spectrum(entry01, ssb_daughter):
    _, _, daughter = ssb_daughter
    op = build_bdg(entry01["problem"], nearest_state(daughter, 3.0))
    assert min(parity_residuals(op.grid, op.psi)) > 1e-3
    assert len(solve_bdg(op).eigenvalues) == 2 * op.grid.n_points


def test_spectrum_is_sorted_by_real_part(bdg_mid):
    _, _, op = bdg_mid
    spectrum = solve_bdg(op)
    reals = spectrum.eigenvalues.real
    assert np.all(np.diff(reals) <= 1e-12)
    assert spectrum.max_real_part == reals[0]


# --- stability along branches -----------------------------------------------


def transitions(branch, spectra):
    out = []
    for i in range(1, len(branch.states)):
        if spectra[i - 1].unstable_count != spectra[i].unstable_count:
            out.append((branch.states[i - 1], branch.states[i]))
    return out


def test_antisym_branch_destabilizes_between_pitchforks(entry01, parent_sweeps):
    branch = entry01["anti"]
    spectra = parent_sweeps["sigma01"]["anti"]
    # ignore the terminal overshoot state: the scan contract is N <= cap,
    # and an oscillatory quartet opens just beyond it (N = 6.03)
    inside = [i for i, st in enumerate(branch.states) if st.norm <= 6.0]
    flips = [(branch.states[i - 1], branch.states[i]) for i in inside[1:]
             if spectra[i - 1].unstable_count != spectra[i].unstable_count]
    assert len(flips) == 2
    assert flips[0][0].norm < SSB_N < flips[0][1].norm
    assert flips[1][0].norm < RESTORE_N < flips[1][1].norm
    for target, count in ((0.05, 0), (1.0, 1), (5.5, 0)):
        assert spectra[nearest_index(branch, target)].unstable_count == count
    # the one unstable eigenvalue in the window is a real pair
    lead = spectra[nearest_index(branch, 1.0)].eigenvalues[0]
    assert lead.real > 1e-3
    assert abs(lead.imag) <= 1e-8


def test_sym_branch_destabilizes_at_pitchfork_not_fold(entry01, parent_sweeps):
    branch = entry01["sym"]
    spectra = parent_sweeps["sigma01"]["sym"]
    flips = transitions(branch, spectra)
    assert len(flips) == 1
    a, z = flips[0]
    assert a.norm < SYM_PF_N < z.norm
    # the fold precedes the pitchfork on this branch and does not destabilize
    fold_idx = nearest_index(branch, SYM_FOLD_N)
    assert abs(branch.states[fold_idx].norm - SYM_FOLD_N) <= 1e-3
    assert spectra[fold_idx].unstable_count == 0


def test_sigma1_transitions_only_at_pitchforks(branch_suite, parent_sweeps):
    entry = branch_suite["sigma1"]
    for family in ("sym", "anti"):
        branch = entry[family]
        pitchforks = entry[f"{family}_pitchforks"]
        flips = transitions(branch, parent_sweeps["sigma1"][family])
        assert len(flips) == len(pitchforks)
        for (a, z), pf in zip(flips, pitchforks):
            lo, hi = sorted((a.norm, z.norm))
            assert lo <= pf.event.norm <= hi


@pytest.fixture(scope="module")
def daughter_sweep(entry01, ssb_daughter):
    """`solve_bdg` spectra along the sigma=0.1 daughter, aligned with its states."""
    return sweep_branch(entry01["problem"], ssb_daughter[2].states)


def test_daughter_branch_secondary_instabilities(daughter_sweep):
    # The reduced model calls every asymmetric state a center, but the PDE
    # daughter does not stay stable. Along the arclength it is stable up to
    # N = 3.585, where an oscillatory quartet opens just below a fold in N
    # near 3.617. The branch turns back to a second fold near 3.357 carrying
    # real pairs, climbs again, and stays unstable (quartets again past
    # N ~ 3.63) until N = 4.916, before handing its stability back at the
    # merge.
    spectra = daughter_sweep
    counts = [sp_.unstable_count for sp_ in spectra]
    assert counts[0] == 0
    assert counts[-1] == 0
    assert max(counts) >= 2
    assert max(counts) <= 3
    first = next(i for i, c in enumerate(counts) if c)
    assert counts[first] >= 2
    lead = spectra[first].eigenvalues[0]
    assert abs(lead.imag) > 0.1
    for spectrum in spectra:
        assert np.abs(spectrum.eigenvalues).min() <= 1e-6


# --- reduced-model growth comparison ----------------------------------------


def antisym_lambda_sq(overlaps, basis, norm):
    p = ModeParams.from_overlaps(overlaps, basis, 1, -1, norm)
    return fixed_point_stability(TwoModeState(0.0, np.pi), p).lambda_sq


def test_growth_rate_matches_reduction_at_low_norm(entry01, overlaps_sigma01, basis):
    problem = entry01["problem"]
    for target in (0.2, 0.3, 0.45):
        state = nearest_state(entry01["anti"], target)
        spectrum = solve_bdg(build_bdg(problem, state))
        lam_sq = antisym_lambda_sq(overlaps_sigma01, basis, state.norm)
        # both sides unstable, and the PDE rate within 20% of sqrt(lambda^2)
        assert lam_sq > 0
        assert spectrum.max_real_part > DEFAULT_THRESHOLD
        reduced_rate = np.sqrt(lam_sq)
        assert abs(spectrum.max_real_part - reduced_rate) / reduced_rate <= 0.20


def test_stable_side_binary_agreement(entry01, overlaps_sigma01, basis):
    problem = entry01["problem"]
    for target in (0.05, 0.09):
        state = nearest_state(entry01["anti"], target)
        spectrum = solve_bdg(build_bdg(problem, state))
        lam_sq = antisym_lambda_sq(overlaps_sigma01, basis, state.norm)
        # both sides stable: no reduced rate and no PDE growth
        assert lam_sq <= 0
        assert spectrum.max_real_part <= DEFAULT_THRESHOLD
        assert spectrum.max_real_part <= 1e-6


def test_growth_rates_vanish_at_ssb(entry01, overlaps_sigma01, basis):
    problem = entry01["problem"]
    pf_state = entry01["anti_pitchforks"][0].state
    spectrum = solve_bdg(build_bdg(problem, pf_state))
    assert spectrum.max_real_part <= 1e-3
    crit = critical_norms(ModeParams.from_overlaps(overlaps_sigma01, basis, 1, -1, 1.0))
    lam_sq = antisym_lambda_sq(overlaps_sigma01, basis, crit.n2)
    assert abs(lam_sq) <= 1e-10


# --- dominant mode extraction -------------------------------------------------


@pytest.fixture(scope="module")
def unstable_daughter(entry01, ssb_daughter, daughter_sweep):
    """Operator at an unstable daughter state mid-branch (a real pair).

    Three segments of the daughter pass N = 3.4 (see the census above), so
    the state is the one nearest N = 3.4 among those whose leading pair is
    real and unstable: a shift of the arclength steps can move it along its
    segment but not onto another one.
    """
    states = ssb_daughter[2].states
    real_unstable = [
        i for i, spectrum in enumerate(daughter_sweep)
        if spectrum.unstable_count and abs(spectrum.eigenvalues[0].imag) <= 1e-8
    ]
    assert real_unstable, "no daughter state has a real unstable leading pair"
    index = min(real_unstable, key=lambda i: abs(states[i].norm - 3.4))
    return build_bdg(entry01["problem"], states[index])


def test_dominant_mode_matches_block_rate(bdg_mid):
    _, _, op = bdg_mid
    mode = dominant_unstable_mode(op)
    assert mode.rate == pytest.approx(block_spectrum(op).real.max(), abs=1e-8)
    assert mode.frequency <= 1e-8
    grid_norm = np.sqrt(op.grid.integrate(np.abs(mode.direction) ** 2))
    assert grid_norm == pytest.approx(1.0, abs=1e-12)


def test_dominant_mode_breaks_parity(bdg_mid):
    # On an antisymmetric parent, the fastest instability points toward the
    # asymmetric daughter: both quadratures of the perturbation are even.
    _, _, op = bdg_mid
    mode = dominant_unstable_mode(op)
    r_even_re, _ = parity_residuals(op.grid, mode.direction.real)
    r_even_im, _ = parity_residuals(op.grid, mode.direction.imag)
    assert r_even_re <= 1e-6
    assert r_even_im <= 1e-6


def test_dominant_mode_requires_instability(entry01, ssb_daughter):
    # Stable states on every route: the parity sectors of an antisymmetric and
    # of a symmetric parent, and the whole block of an asymmetric daughter.
    # The phase zero mode must stay below the threshold, as in solve_bdg.
    problem = entry01["problem"]
    _, _, daughter = ssb_daughter
    for state in (nearest_state(entry01["anti"], 0.05),
                  nearest_state(entry01["sym"], 0.98),
                  nearest_state(daughter, 1.0)):
        op = build_bdg(problem, state)
        assert solve_bdg(op).unstable_count == 0
        with pytest.raises(StabilityError, match="no growth"):
            dominant_unstable_mode(op)


def test_dominant_mode_on_asymmetric_state_matches_block(unstable_daughter):
    # The whole-grid route on an unstable daughter state mid-branch.
    op = unstable_daughter
    whole = block_spectrum(op)
    lead = whole[np.argmax(whole.real)]
    assert lead.real > 1e-3
    mode = dominant_unstable_mode(op)
    assert mode.rate == pytest.approx(lead.real, abs=1e-8)
    assert mode.frequency == pytest.approx(abs(lead.imag), abs=1e-8)


@pytest.mark.parametrize("name", ["odd", "daughter", "quartet"])
def test_dominant_mode_is_an_eigenvector(entry01, ssb_daughter, bdg_mid, unstable_daughter, name):
    # (p, q) must solve l p = Ld q and l q = -Lplus p: real pairs on an odd
    # parent (sector route) and on a daughter (whole-grid route), and an
    # oscillatory quartet further up the daughter.
    if name == "odd":
        op = bdg_mid[2]
    elif name == "daughter":
        op = unstable_daughter
    else:
        op = build_bdg(entry01["problem"], nearest_state(ssb_daughter[2], 4.33))
    lam, p, q = _dominant_eigenpair(op)
    assert (abs(lam.imag) > 0.1) == (name == "quartet")
    l_minus, l_plus = full_blocks(op)
    assert np.linalg.norm(lam * p - l_minus @ q) <= 1e-8 * np.linalg.norm(lam * p)
    assert np.linalg.norm(lam * q + l_plus @ p) <= 1e-8 * np.linalg.norm(lam * q)


def test_sweep_is_aligned(entry01, parent_sweeps):
    branch = entry01["anti"]
    spectra = parent_sweeps["sigma01"]["anti"]
    assert len(spectra) == len(branch.states)
    assert DEFAULT_THRESHOLD == 1e-6
    for spectrum in spectra:
        assert spectrum.unstable_count == np.count_nonzero(
            spectrum.eigenvalues.real > DEFAULT_THRESHOLD)
