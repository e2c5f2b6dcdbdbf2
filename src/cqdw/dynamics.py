"""Time integration of the nonlocal cubic-quintic flow and phase-plane views.

The propagated equation keeps the chemical potential inside the generator,

    i dpsi/dt = (L - mu) psi + [ R * (s |psi|^2 + delta |psi|^4) ] psi,

so converged stationary profiles are genuine fixed points rather than
phase-rotating solutions. Discretization in x is exactly the stationary one
(tridiagonal Dirichlet operator plus the same convolution plan):
a Newton-converged profile is then an equilibrium of the discrete flow up to
its own residual, which is what makes the no-perturbation contract testable.

Stepping is the implicit midpoint rule in Cayley form,

    (I + i dt/2 H_mid) psi_next = (I - i dt/2 H_mid) psi,
    H_mid = T + V - mu + W_mid,   W_mid = R * (s rho + delta rho^2),
    rho = |psi_mid|^2,   psi_mid = (psi + psi_next)/2,

with T the kinetic tridiagonal. The converged step is unitary and second
order in dt. It is solved by a short fixed point iteration that keeps only
the constant kinetic matrix A = I + i dt/2 T implicit:

    A psi_next = (I - i dt/2 T) psi - i dt (V - mu + W_mid) psi_mid,

so each pass is one convolution for W_mid (a direct sum over the kernel's
reach, or an FFT for a kernel wider than half the box; see
`discretization.ConvolutionPlan`) and one apply of A^-1 by its closed-form
lattice Green's function (`KineticInverse`, a 2K+1-tap filter), and no
linear solve can fail. ||A^-1||_2 <= 1, so a pass contracts the
error by about (dt/2) max|V - mu + W| (0.0044 at dt = 5e-3 on the default
double well). V stays on the right: shifting part of it into A's diagonal
would move V - mu away from zero where psi lives and slow the passes. Near
config.DT_SCALE_LIMIT on a coarse grid, where dt max V can approach 1, the
factor nears 1/2; a step that has not met FIXED_POINT_TOL within
MAX_FIXED_POINT passes then ends the run in the stall diagnostic, never in
an unconverged step; a pass whose update is not finite or beyond
4 sqrt(N(0)/dx), twice what a unitary step can move a value, ends it at once
in the divergence diagnostic, before the field can overflow. The iteration
starts from the cubic extrapolation 4 psi_n - 6 psi_{n-1} + 4 psi_{n-2} -
psi_{n-3} (psi_n, then the linear and the quadratic one, on the first three
steps), whose O(dt^4) error leaves one pass per step where a start from
psi_n needs four. The start only changes how soon the iteration meets
FIXED_POINT_TOL, not the fixed point it converges to. Each run reports its
pass count in fixed_point_passes and max_passes_per_step.

`evolve` streams its samples: the run it returns steps as it is iterated and
hands out (t, psi, N) at each sample time, keeping no trajectory. A caller
reduces each sample as it arrives, `project_phase_plane` to its PhaseSeries
row (the phase-plane scalars, N and the density imbalance), and collects
whole trajectories only where it needs them.

Norm bookkeeping: the inner product in which this H is symmetric (and the
step exactly unitary) is the uniform-weight sum dx sum |psi_i|^2, so that is
the N(t) reported and guarded to 1e-8 relative on every accepted run. It
differs from the trapezoid quadrature used elsewhere only through the two
half-weighted box-edge densities: nothing (1e-30ish) for localized states,
and still below 1e-8 x N unless emitted radiation builds up order 1e-4
amplitude at the artificial wall. The drift that remains after this
bookkeeping is mostly the rounding of the Green's function taps. They carry
the same rounding at every step, so it adds up linearly rather than as a
random walk: about 1.6e-16 per step on the default grid (4.8e-12 over
30,000 steps), still 2,000 times below the 1e-8 guard.

The screened-Poisson helper inverts (1 - d d^2/dx^2) with decaying boundary
conditions by one real tridiagonal solve, the doublet's L D L^T substitution
(`spectrum.solve_tridiagonal`). The three-point stencil is exponentially
fitted: for the sampled unit-mass exponential kernel the discrete Green's
function is a geometric sequence, so the fitted tridiagonal solve reproduces
the quadrature convolution identically instead of to O(dx^2). The corner
rows close the system with the exact decay ratio of that sequence, which is
what "decaying boundary conditions" means on a finite grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuation import StationaryProblem, StationaryState
from .discretization import Grid, potential_profile
from .spectrum import LinearBasis, solve_tridiagonal

DEFAULT_DT = 5e-3
SNAPSHOT_DT = 1.0
NORM_DRIFT_TOL = 1e-8
FIXED_POINT_TOL = 1e-13
MAX_FIXED_POINT = 12
THETA_FLOOR = 1e-12
DEFAULT_SEED = 0


class DynamicsError(RuntimeError):
    """Propagation aborted or a dynamics contract was violated."""


class KineticInverse:
    """(I + i dt/2 T)^-1 on the Dirichlet grid of n points, by its Green's function.

    T = tridiag(-1/(2 dx^2), 1/dx^2, -1/(2 dx^2)) is the kinetic part of the
    operator, so A = I + i dt/2 T = tridiag(e, d, e) is a constant Toeplitz
    matrix with d = 1 + i dt/(2 dx^2) and e = -i dt/(4 dx^2). On the infinite
    lattice its inverse is the convolution with g_k = rho^|k| / (e (rho - r)),
    where r is the larger-modulus root of x^2 + (d/e) x + 1 = 0 and rho = 1/r
    the smaller. rho is taken as 1/r because the small root itself,
    (-b + sqrt(b^2 - 4))/2 with b = d/e, cancels: |b| grows as dt/dx^2
    shrinks, and at dt/dx^2 = 1e-2 (1e-4) its taps miss the dense solve by
    3e-14 (2e-12), where 1/r stays at rounding. |d| > 2|e|, so |rho| < 1 and
    A is never singular. The taps are cut at
    K = ceil(ln eps / ln|rho|), where they fall below the rounding of g_0
    (K = 17 at dt/dx^2 = 1/2, K <= 24 under config.DT_SCALE_LIMIT).

    The Dirichlet zeros sit at the ghost nodes 0 and n+1 of an odd
    2(n+1)-periodic extension of the right-hand side: g is even, so the
    convolution keeps that oddness and vanishes on the ghost nodes, which makes
    its middle n values the Dirichlet solution. The extension is one gather,
    whatever the reach, so it also holds on grids shorter than the filter.
    """

    def __init__(self, n: int, dx: float, dt: float):
        dx2 = dx * dx
        self.diagonal = 1.0 + 0.5j * dt * (1.0 / dx2)
        self.off_diagonal = 0.5j * dt * (-0.5 / dx2)
        b = self.diagonal / self.off_diagonal
        root = np.sqrt(b * b - 4.0)
        r = max((-b + root) / 2.0, (-b - root) / 2.0, key=abs)
        rho = 1.0 / r
        reach = math.ceil(math.log(np.finfo(float).eps) / math.log(abs(rho)))
        powers = rho ** np.arange(reach + 1)
        self.taps = np.concatenate((powers[:0:-1], powers)) / (self.off_diagonal * (rho - r))
        # lattice node j of the extension, folded into one period [0, 2n+2)
        j = np.arange(1 - reach, n + reach + 1) % (2 * n + 2)
        self._source = np.where(j <= n, j - 1, 2 * n + 1 - j) % n
        self._sign = np.where(j % (n + 1) == 0, 0.0, np.where(j <= n, 1.0, -1.0))
        self._extended = np.empty(len(j), dtype=complex)

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs as a fresh array."""
        np.take(rhs, self._source, out=self._extended)
        np.multiply(self._extended, self._sign, out=self._extended)
        return np.convolve(self._extended, self.taps, "valid")


class EvolutionRun:
    """One accepted evolution, stepped as it is iterated.

    Iterating yields (t, psi, N) at each of `times`: the field on the grid (a
    fresh array, which the caller may keep) and the scheme's conserved
    discrete norm dx sum |psi|^2, whose drift |N(t) - N(0)|/N(0) <= 1e-8 is
    checked before the sample is handed out. So the run holds one field and
    the step's scratch, not its trajectory; a caller keeps what it reduces
    each sample to. fixed_point_passes counts the midpoint passes over the
    steps taken so far, max_passes_per_step the most that any one step took;
    once the samples run out, both are the whole run's. A run is iterated once.
    """

    def __init__(self, problem: StationaryProblem, psi: np.ndarray, mu: float, dt: float,
                 steps_per_frame: int, times: np.ndarray):
        self.times = times
        self.fixed_point_passes = self.max_passes_per_step = 0
        self._start = problem, psi, mu, dt, steps_per_frame

    def __iter__(self):
        problem, psi, mu, dt, steps_per_frame = self._start
        grid = problem.grid
        n = grid.n_points
        inverse = KineticInverse(n, grid.spacing, dt)
        v_minus_mu = potential_profile(grid, problem.potential) - mu
        # I - i dt/2 T = tridiag(-e, 2 - d, -e), the conjugate of A's bands
        explicit, hop = 2.0 - inverse.diagonal, inverse.off_diagonal
        minus_dt_i = -1j * dt

        n0 = _invariant_norm(grid, psi)
        reach = 4.0 * math.sqrt(n0 / grid.spacing)  # the module docstring's divergence bound
        yield self.times[0], psi, n0

        # Scratch for the step, filled by the operations of the expression beside
        # each block in the same order, so the bits are the expressions'. The
        # inverse's result is a fresh array each pass: it becomes psi and history.
        start = np.empty(n, dtype=complex)  # the extrapolated psi_next
        work = np.empty(n, dtype=complex)
        base = np.empty(n, dtype=complex)
        mid = np.empty(n, dtype=complex)
        rhs = np.empty(n, dtype=complex)
        dens = np.empty(n)
        square = np.empty(n)
        magnitude = np.empty(n)

        t = 0.0
        # the predictor's memory: history = [h0, h1, h2] = psi_{n-1}, psi_{n-2}, psi_{n-3}
        history: list[np.ndarray] = []
        for frame in range(1, len(self.times)):
            for _ in range(steps_per_frame):
                psi_next = start
                if len(history) == 3:
                    # 4.0 * (psi + h1) - 6.0 * h0 - h2
                    np.add(psi, history[1], out=start)
                    np.multiply(4.0, start, out=start)
                    np.multiply(6.0, history[0], out=work)
                    np.subtract(start, work, out=start)
                    np.subtract(start, history[2], out=start)
                elif len(history) == 2:
                    # 3.0 * (psi - h0) + h1
                    np.subtract(psi, history[0], out=start)
                    np.multiply(3.0, start, out=start)
                    np.add(start, history[1], out=start)
                elif history:
                    # 2.0 * psi - h0
                    np.multiply(2.0, psi, out=start)
                    np.subtract(start, history[0], out=start)
                else:
                    psi_next = psi
                # base = (I - i dt/2 T) psi; the potential part is per pass
                np.multiply(explicit, psi, out=base)
                np.multiply(hop, psi, out=work)
                base[:-1] -= work[1:]
                base[1:] -= work[:-1]
                for attempt in range(MAX_FIXED_POINT + 1):
                    # mid = 0.5 * (psi + psi_next); dens = mid.real**2 + mid.imag**2
                    np.add(psi, psi_next, out=mid)
                    np.multiply(0.5, mid, out=mid)
                    np.multiply(mid.real, mid.real, out=dens)
                    np.multiply(mid.imag, mid.imag, out=square)
                    np.add(dens, square, out=dens)
                    # rhs = base - i dt (V - mu + W(dens)) mid
                    potential = problem.nonlinear_potential_density(dens)
                    np.add(v_minus_mu, potential, out=potential)
                    np.multiply(minus_dt_i, potential, out=rhs)
                    np.multiply(rhs, mid, out=rhs)
                    np.add(base, rhs, out=rhs)
                    cand = inverse.apply(rhs)
                    np.subtract(cand, psi_next, out=work)
                    gap = float(np.abs(work, out=magnitude).max())
                    if not gap <= reach:
                        raise DynamicsError(
                            f"midpoint iteration diverged at t={t + dt:.4f}, pass {attempt + 1}: "
                            f"update {gap:.3e} beyond {reach:.3e} = 4 sqrt(N(0)/dx); "
                            "reduce dt or the field amplitude")
                    psi_next = cand
                    # gap <= TOL * max(1, max|cand|), taking max|cand| only when gap > TOL
                    if gap <= FIXED_POINT_TOL or gap <= FIXED_POINT_TOL * float(
                            np.abs(cand, out=magnitude).max()):
                        break
                else:
                    raise DynamicsError(
                        f"midpoint iteration stalled at t={t + dt:.4f} "
                        f"(last update {gap:.3e}); reduce dt or the field amplitude"
                    )
                self.fixed_point_passes += attempt + 1
                self.max_passes_per_step = max(self.max_passes_per_step, attempt + 1)
                history = [psi, *history[:2]]
                psi = psi_next
                t += dt
            n_t = _invariant_norm(grid, psi)
            if abs(n_t - n0) > NORM_DRIFT_TOL * max(n0, 1e-300):
                raise DynamicsError(
                    f"norm drift breach at t={t:.4f}: N={n_t!r} vs N(0)={n0!r} "
                    f"(relative {abs(n_t - n0) / max(n0, 1e-300):.3e} > {NORM_DRIFT_TOL})"
                )
            yield self.times[frame], psi, n_t


@dataclass(frozen=True)
class PhaseSeries:
    """Per-sample scalars of a run, in the order of its samples.

    z and theta are the two-mode phase-plane coordinates, theta wrapped to
    (-pi, pi]; samples where either projection magnitude falls below the
    floor carry defined=False and NaN angles. residual_fraction is the share
    of N(t) outside the two-mode subspace, norm_series the run's N(t) and
    imbalance the density imbalance (N_L - N_R)/N.
    """

    times: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    residual_fraction: np.ndarray
    defined: np.ndarray
    norm_series: np.ndarray
    imbalance: np.ndarray


def _invariant_norm(grid: Grid, psi: np.ndarray) -> float:
    """dx sum |psi|^2: the quadrature the unitary step conserves exactly."""
    return float(grid.spacing * np.sum(np.abs(psi) ** 2))


def evolve(
    problem: StationaryProblem,
    initial: np.ndarray,
    mu: float,
    t_end: float,
    dt: float = DEFAULT_DT,
    snapshot_dt: float = SNAPSHOT_DT,
) -> EvolutionRun:
    """Propagate `initial` under the flow at chemical potential mu.

    The run hands out a sample (with N(t)) every `snapshot_dt`, a whole
    multiple of dt, as it steps; t_end is truncated to the last full sample.
    dt, snapshot_dt and t_end are the config's, whose rules (including the
    step-size cap config.DT_SCALE_LIMIT) `validate_config` checks. A
    misshapen or non-finite initial field is rejected here; a relative norm
    drift beyond 1e-8, or a stalled or diverging (non-finite included) midpoint
    iteration aborts the run with diagnostics before the sample it would spoil.
    """
    grid = problem.grid
    steps_per_frame = int(round(snapshot_dt / dt))
    frames = int(math.floor(t_end / snapshot_dt + 1e-9))

    psi = np.array(initial, dtype=complex)
    if psi.shape != (grid.n_points,):
        raise DynamicsError(f"initial data has shape {psi.shape}, grid has {grid.n_points} points")
    if not np.all(np.isfinite(psi.view(float))):
        raise DynamicsError("initial field is not finite")
    return EvolutionRun(problem, psi, mu, dt, steps_per_frame, snapshot_dt * np.arange(frames + 1))


def perturb_state(
    grid: Grid,
    state: StationaryState,
    amplitude: float = 1e-3,
    rng: np.random.Generator | None = None,
    direction: np.ndarray | None = None,
) -> np.ndarray:
    """Stationary profile plus a kick of grid norm amplitude*||psi||.

    With `direction` (a BdG eigenvector, say) the kick lies along it; otherwise
    it is complex white noise from `rng` (a fixed default seed keeps unseeded
    calls deterministic). The direction is re-normalized defensively.
    """
    if direction is not None:
        kick = np.asarray(direction, dtype=complex)
        if kick.shape != (grid.n_points,):
            raise DynamicsError(f"direction has shape {kick.shape}, expected ({grid.n_points},)")
    else:
        if rng is None:
            rng = np.random.default_rng(DEFAULT_SEED)
        kick = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    scale = math.sqrt(grid.norm_sq(kick))
    if scale == 0.0:
        raise DynamicsError("perturbation direction has zero norm")
    kick = kick * (amplitude * math.sqrt(state.norm) / scale)
    return state.psi + kick


def project_phase_plane(basis: LinearBasis, t: float, psi: np.ndarray, n_t: float) -> tuple:
    """The PhaseSeries row of one sample (t, psi, N(t)) of a run.

    c_{L,R} = <phi_{L,R}, psi>, z = (|c_L|^2 - |c_R|^2)/N_proj with
    N_proj = |c_L|^2 + |c_R|^2, theta = arg c_L - arg c_R. The residual
    fraction 1 - N_proj/N(t) measures leakage out of the two-mode subspace.
    """
    grid = basis.grid
    if psi.shape != (grid.n_points,):
        raise DynamicsError("run sample and basis live on different grids")
    c_left = grid.inner(basis.phi_left, psi)
    c_right = grid.inner(basis.phi_right, psi)
    n_proj = abs(c_left) ** 2 + abs(c_right) ** 2
    residual = 1.0 - n_proj / n_t if n_t > 0.0 else math.nan
    imbalance = density_imbalance(grid, psi)
    if min(abs(c_left), abs(c_right)) < THETA_FLOOR:
        return t, math.nan, math.nan, residual, False, n_t, imbalance
    z = (abs(c_left) ** 2 - abs(c_right) ** 2) / n_proj
    theta = np.angle(c_left * np.conj(c_right))
    return t, z, theta, residual, True, n_t, imbalance


def density_imbalance(grid: Grid, values: np.ndarray) -> float:
    """Left/right population imbalance (N_L - N_R)/N from the density alone.

    The x = 0 node belongs to both halves equally and cancels from the
    difference; zero field gives 0 by convention.
    """
    dens = np.abs(np.asarray(values)) ** 2 * grid.weights
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    x = grid.points
    return float(dens[x < 0].sum() - dens[x > 0].sum()) / total


def onset_time(series: PhaseSeries) -> float | None:
    """First sample time with |z_density| >= 0.5, None if never reached."""
    hits = np.flatnonzero(np.abs(series.imbalance) >= 0.5)
    if hits.size == 0:
        return None
    return float(series.times[hits[0]])


def growth_rate(series: PhaseSeries) -> float:
    """Exponential rate of the density imbalance over its linear window.

    Fits log|z_density(t)| on the samples between floor 1e-3 and ceiling 0.05,
    cut at the first ceiling crossing so saturated data never enters the fit.
    At least three samples are required.
    """
    floor, ceiling = 1e-3, 0.05
    a = np.abs(series.imbalance)
    above = np.flatnonzero(a >= ceiling)
    stop = above[0] if above.size else a.size
    mask = (a[:stop] >= floor) & (a[:stop] > 0.0)
    if mask.sum() < 3:
        raise DynamicsError(
            f"only {int(mask.sum())} samples in the linear window [{floor}, {ceiling}]"
        )
    slope = np.polyfit(series.times[:stop][mask], np.log(a[:stop][mask]), 1)[0]
    return float(slope)


def solve_screened_poisson(
    grid: Grid, intensity: np.ndarray, d: float, sigma0: float
) -> np.ndarray:
    """Saturable absorption profile m from m - d m_xx = sigma0 (I - I^2).

    `intensity` is the beam intensity I = |u|^2 on the grid. The stencil
    tridiag(-1, r + 1/r, -1), r = exp(-dx/sqrt(d)), is exponentially fitted to
    the kernel range sqrt(d) and closed by the decaying corners 1/r, so the
    result coincides with the quadrature convolution of the source against
    the unit-mass exponential kernel (the Green's function of the continuum
    operator) to rounding. r < 1, so every L D L^T pivot is >= 1/r - r > 0
    and the solve cannot fail.
    """
    intensity = np.asarray(intensity, dtype=float)
    if intensity.shape != (grid.n_points,):
        raise DynamicsError(f"intensity has shape {intensity.shape}, expected ({grid.n_points},)")
    source = sigma0 * (intensity - intensity**2)
    ell = math.sqrt(d)
    ratio = math.exp(-grid.spacing / ell)  # decay of the discrete Green's sequence
    diag = [ratio + 1.0 / ratio] * grid.n_points
    diag[0] = diag[-1] = diag[0] - ratio
    rhs = (grid.spacing / (2.0 * ell)) * (1.0 / ratio - ratio) * source
    return np.array(solve_tridiagonal(diag, [-1.0] * (grid.n_points - 1), rhs.tolist()))
