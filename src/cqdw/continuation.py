"""Stationary states and branch tracing for the nonlocal cubic-quintic model.

A stationary state solves L psi - mu psi + [R * (s psi^2 + delta psi^4)] psi
= 0 with L the linear double-well operator and R the one nonlocal response
that carries both the cubic and the quintic terms. States can be taken real;
Newton's method with the exact dense Jacobian (including the nonlocal
Frechet terms) converges quadratically from nearby guesses.
Branches are traced in (psi, mu) with pseudo-arclength steps so folds are
crossed without parameter switching, inside the mu window and norm cap of the
run config's `scan` section. Every branch grows out of the linear doublet,
where mu = omega_k + s c N, so a trace leaves its seed in the mu direction of
the cubic sign s. Pitchforks (a sign change of the Jacobian determinant on the
parity subspace the daughter breaks into) and merges (a sign change of the
daughter's asymmetry) are refined by one arclength-resolved bisection;
daughters are seeded by branch switching along the critical direction.

Every state comes out of one Newton loop, `_newton`. With t_psi=None it
holds mu fixed and solves with the Jacobian alone (seeds, the last solve of a
walk to a given mu, the BdG polish); otherwise it keeps (psi, mu) on a
pseudo-arclength hyperplane and solves the Jacobian bordered by the
hyperplane's normal (tracing, bisection, branch switching; Keller 1977).

At an even or odd state every linear problem splits into an even and an
odd reflection sector of about n/2 unknowns, and the Jacobian is assembled
directly on one: Newton and the tangent solve in the state's own
sector, the pitchfork test in the other.  The state stays a grid array,
exactly even or odd.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .config import ScanConfig
from .discretization import (
    ConvolutionPlan,
    Grid,
    Kernel,
    PotentialParams,
    ReflectionSector,
    kernel_matrix,
    parity_residuals,
    reflect,
)
from .spectrum import discretize_operator
from .twomode import ANTISYMMETRIC, ASYMMETRIC, SYMMETRIC

PITCHFORK = "pitchfork"
FOLD = "fold"
MERGE = "merge"

# Converged states satisfy max|F| <= this bound.
RESIDUAL_TOL = 1e-10
# Reflection residual below which a state counts as even or odd.
PARENT_PARITY_TOL = 1e-6
# Newton iterates whose norm falls below this are the trivial solution.
TRIVIAL_NORM = 1e-8
MAX_NEWTON_ITER = 40
# Offset of seed_from_mode's state from its linear eigenvalue.
SEED_DELTA_MU = 5e-3

# Arclength step bounds and step budget of continue_branch.
_DS_MIN = 1e-3
_DS_INIT = 1e-2
_DS_MAX = 5e-2
_MAX_STEPS = 3000
_GROW = 1.4
_SHRINK = 0.5
_FAST_ITERS = 4
# Daughter predictor offset along the critical direction, in units of
# sqrt(N_c): the seed is solidly asymmetric (parity residual about 0.05) and
# stays within 6e-3 of mu_c.
_SWITCH_AMPLITUDE = 0.05


class ContinuationError(RuntimeError):
    """Raised for invalid stationary problems or failed branch operations."""


class NewtonError(ContinuationError):
    """Newton failure diagnostic carrying the residual history."""

    def __init__(self, message: str, residual_history: list[float]):
        super().__init__(message)
        self.residual_history = residual_history


def reflection_sectors(
    grid: Grid, symmetry: str
) -> tuple[ReflectionSector, ReflectionSector]:
    """(parent, breaking) sectors of an even or odd state.

    The parent sector has the state's own parity; a pitchfork adds a
    component of the other one.
    """
    n = grid.n_points
    if symmetry == SYMMETRIC:
        return ReflectionSector("even", n), ReflectionSector("odd", n)
    if symmetry == ANTISYMMETRIC:
        return ReflectionSector("odd", n), ReflectionSector("even", n)
    raise ContinuationError(f"reflection sectors need an even or odd parent, got {symmetry}")


class StationaryProblem:
    """Grid, potential, kernel and signs with cached dense operators.

    The quadrature kernel matrix and the dense linear operator are built
    once and folded onto both reflection sectors; the whole-grid Jacobian
    keeps the kernel matrix and rebuilds its linear part from the tridiagonal
    form.  Residuals use the convolution plan.
    """

    def __init__(self, grid: Grid, potential: PotentialParams, kernel: Kernel, s: int, delta: int):
        self.grid = grid
        self.potential = potential
        self.kernel = kernel
        self.s = s
        self.delta = delta
        self.operator = discretize_operator(grid, potential)
        self._k = kernel_matrix(kernel, grid)
        self._plan = ConvolutionPlan(kernel, grid)
        even, odd = ReflectionSector("even", grid.n_points), ReflectionSector("odd", grid.n_points)
        m = grid.n_points // 2
        dense_l = self.operator.to_dense()
        # The folds of L and K onto both sectors, the odd ones in the leading
        # m x m corner. One block, not four arrays: malloc gives a block this
        # size its own mapping, while four 0.3 MiB arrays fragment the heap
        # (2 MiB more peak memory over a mu-walk and an evolution).
        folds = np.zeros((4, m + 1, m + 1))
        folds[0] = even.fold(dense_l)
        folds[1, :m, :m] = odd.fold(dense_l)
        folds[2] = even.fold(self._k)
        folds[3, :m, :m] = odd.fold(self._k)
        self._sector_l = {"even": folds[0], "odd": folds[1, :m, :m]}
        # The exchange term of a psi with parity maps sector S onto the sector
        # of parity S * psi, so its fold takes K folded onto that image sector,
        # keyed here by (S, parity of psi).  An odd psi vanishes at the centre,
        # which only the even sector has: that row and column stay zero.
        self._sector_k = {("even", "even"): folds[2], ("odd", "even"): folds[3, :m, :m],
                          ("even", "odd"): folds[3], ("odd", "odd"): folds[2, :m, :m]}

    def nonlinear_potential(self, psi: np.ndarray) -> np.ndarray:
        """Pointwise R * (s psi^2 + delta psi^4) for a real profile."""
        return self.nonlinear_potential_density(psi**2)

    def nonlinear_potential_density(self, density: np.ndarray) -> np.ndarray:
        """Same contraction from rho = |psi|^2, usable for complex fields.

        s and delta are +-1, so s rho + delta rho^2 is one add or subtract of
        rho and rho^2, negated when both are -1: two ufuncs in place of four,
        with the same bits (negation is exact and rounding is symmetric).
        """
        source = density * density
        if self.s == self.delta:
            np.add(density, source, out=source)
            if self.s < 0:
                np.negative(source, out=source)
        elif self.s > 0:
            np.subtract(density, source, out=source)
        else:
            np.subtract(source, density, out=source)
        return self._plan.apply(source)

    def residual(self, psi: np.ndarray, mu: float) -> np.ndarray:
        psi = np.asarray(psi, dtype=float)
        return self.operator.matvec(psi) - mu * psi + self.nonlinear_potential(psi) * psi

    def linearization(
        self, psi: np.ndarray, mu: float, sector: ReflectionSector | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Local part Ld and dense Frechet derivative Lplus at a real state.

        Ld = L - mu + diag(R * (s psi^2 + delta psi^4)). Besides this local
        part, differentiating through the convolution gives
        psi_i K[i,j] (2 s psi_j + 4 delta psi_j^3), which is not symmetric;
        downstream eigen/determinant logic must not assume symmetry. Newton
        uses Lplus, the linear stability analysis both.

        Given a reflection sector, psi must be even or odd (its parity is the
        sign of <psi, reflect(psi)>) and both blocks come in the sector's
        coordinates, B.T Ld B and B.T Lplus B.  Every diagonal factor is even
        or odd, so they are assembled from the folds made at construction and
        the sector's half of the grid values, without an n x n matrix.
        """
        psi = np.asarray(psi, dtype=float)
        potential = self.nonlinear_potential(psi) - mu
        weight = 2.0 * self.s * psi + 4.0 * self.delta * psi**3
        if sector is None:
            local, kernel = self.operator.to_dense(), self._k
        else:
            m = self.grid.n_points // 2
            parity = "odd" if psi[:m] @ reflect(psi)[:m] < 0 else "even"
            local = self._sector_l[sector.parity].copy()
            kernel = self._sector_k[sector.parity, parity]
        size = len(local)
        local.flat[:: size + 1] += potential[:size]
        jac = kernel * weight[:size]
        jac *= psi[:size, None]
        jac += local
        return local, jac

    def jacobian(
        self, psi: np.ndarray, mu: float, sector: ReflectionSector | None = None
    ) -> np.ndarray:
        """Lplus of `linearization`: the Newton matrix."""
        return self.linearization(psi, mu, sector)[1]

    def norm(self, psi: np.ndarray) -> float:
        return self.grid.norm_sq(np.asarray(psi))


def classify_symmetry(grid: Grid, psi: np.ndarray) -> str:
    """Label by reflection residual: even, odd, or neither.

    Residuals at most 1e-6 count as the parent parity; anything measurably
    off both parities is asymmetric. Converged daughter states sit well above
    1e-3 except in the immediate vicinity of their birth.
    """
    r_even, r_odd = parity_residuals(grid, np.asarray(psi))
    if r_even <= PARENT_PARITY_TOL:
        return SYMMETRIC
    if r_odd <= PARENT_PARITY_TOL:
        return ANTISYMMETRIC
    return ASYMMETRIC


@dataclass(frozen=True)
class StationaryState:
    """Converged real stationary profile, on the problem's grid, with its labels."""

    psi: np.ndarray
    mu: float
    norm: float
    symmetry: str
    residual: float
    newton_iterations: int  # steps of the Newton, corrector or branch-switching solve behind it


@dataclass(frozen=True)
class BranchEvent:
    kind: str
    mu: float
    norm: float

    def __post_init__(self):
        if self.kind not in (PITCHFORK, FOLD, MERGE):
            raise ContinuationError(f"unknown event kind {self.kind!r}")


@dataclass
class Branch:
    """Ordered states plus the events met while tracing.

    `termination` records why tracing stopped: mu_range, norm_cap, max_steps,
    merge, or newton_failure (partial results are still returned).
    `rejected_steps` counts the steps whose corrector failed and were retried
    shorter; each state carries its own corrector iterations.
    """

    states: list[StationaryState] = field(default_factory=list)
    events: list[BranchEvent] = field(default_factory=list)
    termination: str = ""
    rejected_steps: int = 0

    def symmetry(self) -> str:
        return self.states[0].symmetry if self.states else ""


def make_state(
    problem: StationaryProblem, psi: np.ndarray, mu: float, iterations: int, residual: float
) -> StationaryState:
    """Label (psi, mu); `residual` is its max|F|, as `_newton` returns it."""
    psi = np.asarray(psi, dtype=float)
    return StationaryState(
        psi=psi,
        mu=float(mu),
        norm=problem.norm(psi),
        symmetry=classify_symmetry(problem.grid, psi),
        residual=residual,
        newton_iterations=iterations,
    )


def newton_solve(
    problem: StationaryProblem,
    guess: np.ndarray,
    mu: float,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_NEWTON_ITER,
) -> StationaryState:
    """Solve the stationary equation at fixed mu: `_newton` with t_psi=None.

    Raises NewtonError as `_newton` does. An even or odd guess is solved in
    its own reflection sector, so the state comes out exactly even or odd,
    and its mu is the mu passed in.
    """
    psi = np.array(np.real(guess), dtype=float)
    if psi.shape != (problem.grid.n_points,):
        raise ContinuationError(
            f"guess has shape {psi.shape}, expected ({problem.grid.n_points},)"
        )
    return make_state(problem, *_newton(problem, psi, mu, None, 0.0, tol, max_iter))


def seed_from_mode(
    problem: StationaryProblem, mode: np.ndarray, omega_k: float
) -> StationaryState:
    """Converge the small-amplitude state branching from a linear mode.

    Near the linear limit mu = omega_k + s c N with c the self-overlap of the
    mode density through the kernel, so the state sits at mu = omega_k +
    s SEED_DELTA_MU, on the nontrivial side, and the guess amplitude is
    matched to that offset.
    """
    mode = np.asarray(mode, dtype=float)
    density = mode**2
    c = float(problem.grid.integrate(density * problem._plan.apply(density)))
    c /= problem.norm(mode) ** 2
    amp_sq = SEED_DELTA_MU / c / problem.norm(mode)
    guess = math.sqrt(amp_sq) * mode
    return newton_solve(problem, guess, omega_k + problem.s * SEED_DELTA_MU)


def _weighted_dot(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    return float(grid.integrate(f * g))


def _own_sector(grid: Grid, psi: np.ndarray) -> tuple[ReflectionSector | None, np.ndarray]:
    """The reflection sector a solve from psi runs in, and psi projected onto it.

    An even or odd psi (by `classify_symmetry`) keeps its parity, so each step
    solves on that sector and is lifted back as exact mirror images; a psi
    without parity gets None, the whole grid.
    """
    symmetry = classify_symmetry(grid, psi)
    if symmetry == ASYMMETRIC:
        return None, psi
    sector = reflection_sectors(grid, symmetry)[0]
    return sector, sector.project(psi)


def _restrict(sector: ReflectionSector | None, vector: np.ndarray) -> np.ndarray:
    return vector if sector is None else sector.restrict(vector)


def _lift(sector: ReflectionSector | None, vector: np.ndarray) -> np.ndarray:
    return vector if sector is None else sector.lift(vector)


def _tangent_from_jacobian(
    problem: StationaryProblem, state: StationaryState, direction: int
) -> tuple[np.ndarray, float]:
    """Unit tangent (t_psi, t_mu) of the solution curve, oriented by dmu sign."""
    sector, psi = _own_sector(problem.grid, state.psi)
    # dF/dmu = -psi, so the mu-derivative of the profile solves J dpsi = psi.
    dpsi = _lift(sector, np.linalg.solve(problem.jacobian(psi, state.mu, sector),
                                         _restrict(sector, psi)))
    scale = math.sqrt(problem.grid.norm_sq(dpsi) + 1.0)
    t_psi, t_mu = dpsi / scale, 1.0 / scale
    if direction * t_mu < 0:
        t_psi, t_mu = -t_psi, -t_mu
    return t_psi, t_mu


def _newton(
    problem: StationaryProblem,
    psi: np.ndarray,
    mu: float,
    t_psi: np.ndarray | None,
    t_mu: float,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_NEWTON_ITER,
) -> tuple[np.ndarray, float, int, float]:
    """Newton on F(psi, mu) = 0; returns (psi, mu, iterations, max|F|).

    t_psi=None holds mu and each step solves with the Jacobian J alone.
    Otherwise the step also keeps the arclength constraint
    <t_psi, psi - psi_pred> + t_mu (mu - mu_pred) = 0 and solves the bordered
    system; the constraint is anchored at the predictor passed in as
    (psi, mu), so it starts at zero.  An even or odd start is solved in its
    own reflection sector (see `_own_sector`).

    Raises NewtonError with the residual history when the residual is not
    finite, when it rises after any step but the first (a guess can start off
    the solution manifold, so the first step may raise it), when max_iter
    steps do not reach tol, and when the iteration lands on the zero
    solution.
    """
    grid = problem.grid
    sector, psi = _own_sector(grid, psi)
    psi_pred, mu_pred = psi, mu
    if t_psi is not None:
        border = _restrict(sector, t_psi * grid.weights)
    history: list[float] = []
    for _ in range(max_iter + 1):
        r = problem.residual(psi, mu)
        rn = float(np.max(np.abs(r)))
        history.append(rn)
        g = 0.0
        if t_psi is not None:
            g = _weighted_dot(grid, t_psi, psi - psi_pred) + t_mu * (mu - mu_pred)
        if not math.isfinite(rn):
            raise NewtonError("Newton residual is not finite", history)
        if rn <= tol and abs(g) <= tol:
            if problem.norm(psi) < TRIVIAL_NORM:
                raise NewtonError(
                    f"Newton converged to the trivial zero state at mu={mu:.6g}", history
                )
            return psi, mu, len(history) - 1, rn
        if len(history) > max_iter:
            break
        if len(history) > 2 and rn > history[-2]:
            raise NewtonError(
                f"Newton diverging at mu={mu:.6g} (residuals {history[-2]:.3g} -> {rn:.3g})",
                history,
            )
        jac, rhs = problem.jacobian(psi, mu, sector), -_restrict(sector, r)
        n = len(rhs)
        if t_psi is not None:
            jac = np.block([[jac, -_restrict(sector, psi)[:, None]], [border, t_mu]])
            rhs = np.append(rhs, -g)
        step = np.linalg.solve(jac, rhs)
        psi = psi + _lift(sector, step[:n])
        if t_psi is not None:
            mu = mu + step[n]
    raise NewtonError(
        f"Newton did not reach {tol:g} within {max_iter} iterations "
        f"at mu={mu:.6g} (residuals {history[0]:.3g} -> {history[-1]:.3g})",
        history,
    )


def _merge_side(grid: Grid, seed: StationaryState) -> Callable[[StationaryState], float]:
    """`side(state)` of a daughter traced from seed: the side of the
    parent-parity branch that the state lies on.

    The state's breaking-sector component is projected on the seed's own
    asymmetry shape. The sign flips where the trace passes through the
    parent onto the mirror daughter: that crossing is the merge point.
    """
    r_even, r_odd = parity_residuals(grid, seed.psi)
    breaking = ReflectionSector("odd" if r_even < r_odd else "even", grid.n_points)
    witness = breaking.project(seed.psi)
    witness = witness / math.sqrt(grid.norm_sq(witness))

    def side(state: StationaryState) -> float:
        return math.copysign(1.0, _weighted_dot(grid, breaking.project(state.psi), witness))

    return side


def continue_branch(
    problem: StationaryProblem,
    seed: StationaryState,
    window: ScanConfig,
    direction: int,
) -> Branch:
    """Trace the branch through folds by pseudo-arclength continuation.

    The trace leaves the seed with mu rising for `direction` = +1 and falling
    for -1. Steps adapt inside [_DS_MIN, _DS_MAX]: fast Newton convergence
    grows the step, failure shrinks and retries, and shrinking below _DS_MIN
    aborts with the partial branch. Tracing stops at the mu window, the norm
    cap, a merge back onto a parent-parity branch (a side change by
    `_merge_side`, or a state of parent parity), or the step budget. Fold
    events are recorded where the mu direction reverses; pitchfork events are
    found separately by detect_pitchfork.
    """
    branch = Branch(states=[seed])
    side = _merge_side(problem.grid, seed) if seed.symmetry == ASYMMETRIC else None
    t_psi, t_mu = _tangent_from_jacobian(problem, seed, direction)
    ds = _DS_INIT
    mu_dir = 0
    while len(branch.states) <= _MAX_STEPS:
        last = branch.states[-1]
        psi_last = last.psi
        while True:
            try:
                stepped = _newton(
                    problem, psi_last + ds * t_psi, last.mu + ds * t_mu, t_psi, t_mu
                )
                break
            except NewtonError:
                branch.rejected_steps += 1
                ds *= _SHRINK
                if ds < _DS_MIN:
                    branch.termination = "newton_failure"
                    return branch
        state = make_state(problem, *stepped)
        branch.states.append(state)

        new_dir = int(math.copysign(1.0, state.mu - last.mu)) if state.mu != last.mu else mu_dir
        folded = mu_dir != 0 and new_dir != 0 and new_dir != mu_dir
        if folded:
            branch.events.append(BranchEvent(FOLD, last.mu, last.norm))
        mu_dir = new_dir

        if side is not None and (side(state) != side(last) or state.symmetry != ASYMMETRIC):
            # A mu reversal in the same step is the merge tangency itself,
            # not a separate fold.
            if folded:
                branch.events.pop()
            merged, _ = _bisect(problem, last, state, side)
            branch.states[-1] = merged
            branch.events.append(BranchEvent(MERGE, merged.mu, merged.norm))
            branch.termination = "merge"
            return branch
        if not (window.mu_min <= state.mu <= window.mu_max):
            branch.termination = "mu_range"
            return branch
        if state.norm > window.norm_cap:
            branch.termination = "norm_cap"
            return branch

        # Secant tangent follows the curve through folds without re-solving.
        d_psi = state.psi - psi_last
        d_mu = state.mu - last.mu
        scale = math.sqrt(problem.grid.norm_sq(d_psi) + d_mu**2)
        t_psi, t_mu = d_psi / scale, d_mu / scale
        if state.newton_iterations <= _FAST_ITERS:
            ds = min(ds * _GROW, _DS_MAX)
    branch.termination = "max_steps"
    return branch


# --- pitchfork detection --------------------------------------------------------


@dataclass(frozen=True)
class PitchforkEvent:
    """Refined bifurcation point, its critical direction and bisection steps."""

    event: BranchEvent
    state: StationaryState
    direction: np.ndarray
    bisections: int


def _segment_state(
    problem: StationaryProblem, a: StationaryState, b: StationaryState, t: float
) -> StationaryState:
    """On-branch state near the convex combination of two neighbours.

    The corrector constraint uses the secant of the segment, so the result is
    the branch point closest to the interpolant even where mu is not monotone.
    """
    pa, pb = a.psi, b.psi
    d_psi, d_mu = pb - pa, b.mu - a.mu
    scale = math.sqrt(problem.grid.norm_sq(d_psi) + d_mu**2)
    return make_state(problem, *_newton(
        problem,
        (1 - t) * pa + t * pb,
        (1 - t) * a.mu + t * b.mu,
        d_psi / scale,
        d_mu / scale,
    ))


def _bisect(
    problem: StationaryProblem,
    a: StationaryState,
    b: StationaryState,
    side: Callable[[StationaryState], float],
) -> tuple[StationaryState, int]:
    """Bisect the branch segment [a, b] down to the sign change of `side`.

    The bracket is measured as (psi, mu) arclength, not in mu alone: near a
    fold or a merge mu is quadratic in arclength, so the bracket ends can
    share mu closely while sitting far apart on the branch. Returns the
    midpoint state of the final bracket and the number of bisection steps.
    """
    side_a = side(a)
    for steps in range(60):
        gap = math.sqrt(problem.grid.norm_sq(b.psi - a.psi) + (b.mu - a.mu) ** 2)
        if gap <= 1e-4 * (1.0 + math.sqrt(max(a.norm, b.norm))):
            return _segment_state(problem, a, b, 0.5), steps
        mid = _segment_state(problem, a, b, 0.5)
        a, b = (mid, b) if side(mid) == side_a else (a, mid)
    raise ContinuationError(f"bisection near mu={a.mu:.6g} did not close in 60 steps")


def detect_pitchfork(problem: StationaryProblem, branch: Branch) -> list[PitchforkEvent]:
    """Locate parity-breaking bifurcations along an even or odd branch.

    The indicator is the determinant sign of the Jacobian restricted to the
    parity subspace complementary to the parent (the Jacobian block-
    diagonalizes over reflection parity at a definite-parity state). Each sign
    change between neighbouring states is refined by `_bisect` along the
    branch segment, resolved in (psi, mu) arclength so that a pitchfork next
    to a fold is not cut short, and the critical eigenvector is returned as
    the daughter seeding direction.
    """
    if len(branch.states) < 2:
        return []
    _, breaking = reflection_sectors(problem.grid, branch.symmetry())

    def side(state: StationaryState) -> float:
        return np.linalg.slogdet(problem.jacobian(state.psi, state.mu, breaking))[0]

    signs = [side(s) for s in branch.states]
    found: list[PitchforkEvent] = []
    for a, b, sign_a, sign_b in zip(branch.states, branch.states[1:], signs, signs[1:]):
        if sign_a == 0.0 or sign_a * sign_b >= 0:
            continue
        critical, steps = _bisect(problem, a, b, side)
        eigvals, eigvecs = np.linalg.eig(problem.jacobian(critical.psi, critical.mu, breaking))
        idx = int(np.argmin(np.abs(eigvals)))
        direction = breaking.lift(np.real(eigvecs[:, idx]))
        direction /= math.sqrt(problem.grid.norm_sq(direction))
        found.append(
            PitchforkEvent(
                event=BranchEvent(PITCHFORK, critical.mu, critical.norm),
                state=critical,
                direction=direction,
                bisections=steps,
            )
        )
    return found


def seed_daughter(problem: StationaryProblem, pitchfork: PitchforkEvent) -> StationaryState:
    """Converge an asymmetric state just off a pitchfork by branch switching.

    The predictor steps from the critical state along the critical
    eigenvector phi, and the corrector holds the solve in the hyperplane
    <phi, psi - psi_pred> = 0 normal to the daughter's tangent (phi, 0)
    (Keller's branch switching). No state of the parent's parity lies in that
    hyperplane, so one solve gives the daughter; a state of definite parity
    raises ContinuationError and a failed solve raises NewtonError.
    """
    parent, phi = pitchfork.state, pitchfork.direction
    guess = parent.psi + _SWITCH_AMPLITUDE * math.sqrt(parent.norm) * phi
    state = make_state(problem, *_newton(problem, guess, parent.mu, phi, 0.0))
    if state.symmetry != ASYMMETRIC:
        raise ContinuationError(
            f"branch switching at the pitchfork mu={parent.mu:.6g} landed on a "
            f"{state.symmetry} state"
        )
    return state
