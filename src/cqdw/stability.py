"""Linear stability of stationary states.

Perturbing a real stationary profile psi0 as

    psi(x, t) = psi0(x) + a(x) e^{lt} + conj(b(x)) e^{conj(l) t}

and keeping first-order terms turns the evolution equation into the
eigenproblem

    i l a =  L1 a + L2 b,        i l b = -L2 a - L1 b,

with L1 = Ld + X and L2 = X, where Ld is the local part

    Ld = L - mu + diag(R * (s psi0^2 + delta psi0^4))

and X the nonlocal exchange block, with K the quadrature matrix of R,

    X[i, j] = psi0_i K[i, j] (s psi0_j + 2 delta psi0_j^3).

The factor 2 on the quintic term comes from differentiating psi^2 conj(psi)^2
inside the convolution; it makes X (and hence L1, L2) nonsymmetric whenever
delta psi0 != 0, because K[i, j] psi0_j^3 has no i <-> j symmetry.  Both
blocks are still real, which is what the solvers below rely on.

In the sum/difference variables u = a + b, w = a - b the system factorizes:

    i l u = Ld w,    i l w = Lplus u,    Lplus = Ld + 2 X,

so l^2 = -eig(Ld Lplus).  Lplus is exactly the Newton Jacobian of the
stationary problem: `StationaryProblem.linearization` assembles Ld and Lplus
once for both, and X = (Lplus - Ld) / 2.  This product form halves the matrix
size but takes a square root at the end, which amplifies roundoff near l = 0
(an eigenvalue error of 1e-11 in l^2 becomes ~3e-6 in l), so the phase zero
mode (a, b) = (psi0, -psi0) lands above the instability threshold.

With p = u and q = -i w, i.e. (p, q) = (Re delta-psi, Im delta-psi) for a
real eigenvector, the block becomes the real matrix

    l p = Ld q,    l q = -Lplus p,

which is similar to -i times the block M = [[L1, L2], [-L2, -L1]] (whose
spectrum is i l): same spectrum and conditioning, no square root, and a real
growth rate comes out as an exactly real eigenvalue.

When psi0 is even or odd (a zero profile counts as even), reflection commutes
with Ld and Lplus, and each matrix splits into an even and an odd sector,
restricted by an index fold.  The parent sector, of psi0's own parity, holds
the zero mode; the breaking sector carries every pitchfork instability and,
away from a pitchfork, has no zero mode, so the product form is safe there
(Van Loan's square-reduced form, LAA 61, 1984).  Right at a pitchfork l^2 = 0
is an eigenvalue of the breaking sector too, and its root carries noise of
about sqrt(eps) ||L||, the same mechanism as for the phase zero mode.
`solve_bdg` and `sweep_branch` solve the parent sector as its restricted
block M and the breaking sector in product form, and a state without parity
as the whole 2n x 2n M.
`dominant_unstable_mode` diagonalizes the real form H on both sectors, or
whole without parity, and takes the eigenvector by inverse iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import (NewtonError, NewtonSettings, ReflectionSector,
                           StationaryProblem, StationaryState, classify_symmetry,
                           newton_solve, reflection_sectors)
from .discretization import Grid
from .twomode import ASYMMETRIC


DEFAULT_THRESHOLD = 1e-6
CONVERGED_RESIDUAL = 1e-10
POLISH_RESIDUAL = 1e-12


class StabilityError(RuntimeError):
    pass


def _reflection_sectors(
    grid: Grid, psi: np.ndarray
) -> tuple[ReflectionSector, ReflectionSector] | None:
    """(parent, breaking) sectors when psi0 is even or odd, else None.

    Reflection commutes with Ld and Lplus exactly when psi0 has a parity (a
    zero profile counts as even), and the spectrum is then the union of the
    two sectors.  The parent sector holds the phase zero mode (psi0, -psi0);
    the breaking sector holds every pitchfork instability, and a zero mode
    only at a pitchfork itself.
    """
    symmetry = classify_symmetry(grid, psi)
    if symmetry == ASYMMETRIC:
        return None
    return reflection_sectors(grid, symmetry)


@dataclass(frozen=True)
class BdGOperator:
    """Dense real blocks of the linearization around one stationary state."""

    grid: Grid
    psi: np.ndarray
    mu: float
    l_minus: np.ndarray
    exchange: np.ndarray

    @property
    def l1(self) -> np.ndarray:
        return self.l_minus + self.exchange

    @property
    def l2(self) -> np.ndarray:
        return self.exchange

    @property
    def l_plus(self) -> np.ndarray:
        return self.l_minus + 2.0 * self.exchange

    def restricted(self, sector: ReflectionSector | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(Ld, X), folded onto a reflection sector when one is given."""
        if sector is None:
            return self.l_minus, self.exchange
        return sector.fold(self.l_minus), sector.fold(self.exchange)

    def block(self, sector: ReflectionSector | None = None) -> np.ndarray:
        """Real matrix M with spectrum i l: [[L1, L2], [-L2, -L1]] (2n x 2n whole)."""
        ld, x = self.restricted(sector)
        l1 = ld + x
        return np.block([[l1, x], [-x, -l1]])

    def real_form(self, sector: ReflectionSector | None = None) -> np.ndarray:
        """Real matrix H = [[0, Ld], [-Lplus, 0]] with spectrum l itself.

        H acts on (Re delta-psi, Im delta-psi), on the whole grid or on the
        sector coordinates of one reflection sector.
        """
        ld, x = self.restricted(sector)
        zero = np.zeros_like(ld)
        return np.block([[zero, ld], [-(ld + 2.0 * x), zero]])


@dataclass(frozen=True)
class BdGSpectrum:
    """Eigenvalues l of one linearization, sorted by descending real part."""

    eigenvalues: np.ndarray
    max_real_part: float
    unstable_count: int
    threshold: float

    @property
    def is_stable(self) -> bool:
        return self.unstable_count == 0


@dataclass(frozen=True)
class UnstableMode:
    """Fastest-growing perturbation of an unstable state.

    direction is the complex profile delta-psi at t = 0, normalized to unit
    grid norm; rate / frequency are Re l and |Im l| of its eigenvalue.
    """

    rate: float
    frequency: float
    direction: np.ndarray


@dataclass(frozen=True)
class GrowthComparison:
    """PDE growth rate against the reduced-model prediction sqrt(lambda^2).

    relative_difference is None when the reduction predicts stability
    (lambda_sq <= 0), since there is no rate to compare against.
    """

    pde_rate: float
    reduced_rate: float
    relative_difference: float | None
    agree_on_stability: bool


def _polish(problem: StationaryProblem, state: StationaryState) -> StationaryState:
    """Push the stationary residual to machine level before linearizing.

    The phase zero mode sits in a 2x2 Jordan block, so its computed
    eigenvalue splits like the square root of the stationary residual: a
    branch state converged to 1e-11 can show |lambda| ~ 1e-6 where the true
    value is 0.  One extra Newton iteration restores ~1e-8.  Near-singular
    Jacobians (bisected near-critical states) can kick the iterate onto a
    neighbouring solution instead, so the polish is dropped whenever it fails
    or moves the profile measurably.
    """
    if state.residual <= POLISH_RESIDUAL:
        return state
    psi = np.asarray(state.psi.values, dtype=float)
    try:
        polished = newton_solve(problem, psi, state.mu,
                                NewtonSettings(tol=POLISH_RESIDUAL, max_iter=6))
    except NewtonError:
        return state
    moved = np.sqrt(problem.grid.norm_sq(polished.psi.values.real - psi))
    if moved > 1e-6 * (1.0 + state.norm):
        return state
    return polished


def build_bdg(problem: StationaryProblem, state: StationaryState) -> BdGOperator:
    """Assemble the linearization blocks at a converged stationary state."""
    if state.residual > CONVERGED_RESIDUAL:
        raise StabilityError(
            f"state is not converged: residual {state.residual:.3e} exceeds "
            f"{CONVERGED_RESIDUAL:.1e}")
    state = _polish(problem, state)
    psi = np.asarray(state.psi.values, dtype=float)
    l_minus, l_plus = problem.linearization(psi, state.mu)
    exchange = l_plus - l_minus
    exchange *= 0.5
    return BdGOperator(grid=problem.grid, psi=psi, mu=state.mu,
                       l_minus=l_minus, exchange=exchange)


def _sorted_spectrum(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((-values.imag, -values.real))
    return values[order]


def _product_roots(l_minus: np.ndarray, l_plus: np.ndarray) -> np.ndarray:
    """Both square roots of l^2 = -eig(Ld Lplus)."""
    lam_sq = -np.linalg.eigvals(l_minus @ l_plus)
    roots = np.sqrt(lam_sq.astype(complex))
    return np.concatenate([roots, -roots])


def solve_bdg(
    operator: BdGOperator,
    threshold: float = DEFAULT_THRESHOLD,
) -> BdGSpectrum:
    """Full eigenvalue spectrum (all 2n values) of one linearization.

    The phase zero mode stays at roundoff level.  When psi0 is even or odd
    the two reflection sectors are solved apart: the parent sector (with the
    zero mode) as its restricted block, reading l = -i m, and the breaking
    sector (every pitchfork instability) in the half-size product form
    l^2 = -eig(Ld Lplus).  Away from a pitchfork the breaking sector has no
    zero mode for the square root to amplify; right at one its critical root
    carries noise of about sqrt(eps) ||L||.  A state without parity
    diagonalizes the whole 2n x 2n block.
    """
    if threshold <= 0:
        raise StabilityError(f"threshold must be positive, got {threshold}")
    sectors = _reflection_sectors(operator.grid, operator.psi)
    if sectors is None:
        eigenvalues = -1j * np.linalg.eigvals(operator.block())
    else:
        parent, breaking = sectors
        ld, x = operator.restricted(breaking)
        eigenvalues = np.concatenate([
            -1j * np.linalg.eigvals(operator.block(parent)),
            _product_roots(ld, ld + 2.0 * x)])
    eigenvalues = _sorted_spectrum(eigenvalues)
    unstable = int(np.count_nonzero(eigenvalues.real > threshold))
    return BdGSpectrum(eigenvalues=eigenvalues,
                       max_real_part=float(eigenvalues.real.max()),
                       unstable_count=unstable,
                       threshold=threshold)


def quartet_defect(eigenvalues: np.ndarray) -> float:
    """Worst distance from the spectrum to its own quartet images.

    The blocks are real and the system is Hamiltonian, so the spectrum must
    be invariant under l -> -l and l -> conj(l); the defect measures how far
    the computed set is from that closure.
    """
    values = np.asarray(eigenvalues)
    defect = 0.0
    for image in (-values, np.conj(values)):
        dist = np.abs(values[:, None] - image[None, :]).min(axis=1)
        defect = max(defect, float(dist.max()))
    return defect


def dominant_unstable_mode(
    operator: BdGOperator,
    threshold: float = DEFAULT_THRESHOLD,
) -> UnstableMode:
    """Eigenvalue and initial perturbation profile of the fastest instability.

    Solved on the real form H of the block, not through the product route,
    so the phase zero mode stays at roundoff level as in `solve_bdg`, and a
    real pair comes out with frequency exactly 0.  When psi0 is even or odd
    (a zero profile counts as even), reflection commutes with Ld and Lplus
    and H splits into an even and an odd sector of about half the size; both
    sectors are diagonalized and the faster instability wins.  A state
    without parity uses the whole 2n matrix.  The eigenvector (p, q) of the
    winning eigenvalue gives the perturbation Re p + i Re q at t = 0, which
    is a + conj(b) for the matching block eigenvector (a, b).
    """
    sectors = _reflection_sectors(operator.grid, operator.psi) or (None,)
    best = None
    for sector in sectors:
        matrix = operator.real_form(sector)
        lams = np.linalg.eigvals(matrix)
        k = int(np.argmax(lams.real))
        if best is None or lams[k].real > best[0].real:
            best = (complex(lams[k]), matrix, sector)
    lam, matrix, sector = best
    rate = lam.real
    if rate <= threshold:
        raise StabilityError(
            f"state has no growth above threshold: max rate {rate:.3e}")
    # Two steps of inverse iteration at the computed eigenvalue give its
    # eigenvector for two linear solves instead of a full eigenvector run; a
    # real pair keeps them in real arithmetic.
    shift = lam.real if lam.imag == 0.0 else lam
    shifted = matrix - shift * np.eye(len(matrix))
    vector = np.ones(len(matrix))
    for _ in range(2):
        vector = np.linalg.solve(shifted, vector)
        vector /= np.linalg.norm(vector)
    p, q = np.split(vector, 2)
    if sector is not None:
        p, q = sector.lift(p), sector.lift(q)
    # Eigenvectors come with an arbitrary complex phase; rotate p to be real
    # and positive at its largest component.
    pivot = p[int(np.argmax(np.abs(p)))]
    phase = np.conj(pivot) / abs(pivot)
    direction = (phase * p).real + 1j * (phase * q).real
    norm = np.sqrt(operator.grid.integrate(np.abs(direction) ** 2))
    return UnstableMode(rate=rate, frequency=abs(lam.imag),
                        direction=direction / norm)


def two_mode_lambda_check(spectrum: BdGSpectrum, lambda_sq: float) -> GrowthComparison:
    """Compare a PDE growth rate with a reduced-model lambda^2 prediction."""
    pde_rate = spectrum.max_real_part
    reduced_rate = float(np.sqrt(lambda_sq)) if lambda_sq > 0 else 0.0
    pde_unstable = pde_rate > spectrum.threshold
    agree = pde_unstable == (lambda_sq > 0)
    relative = None
    if lambda_sq > 0:
        relative = abs(pde_rate - reduced_rate) / reduced_rate
    return GrowthComparison(pde_rate=pde_rate, reduced_rate=reduced_rate,
                            relative_difference=relative,
                            agree_on_stability=agree)


def sweep_branch(
    problem: StationaryProblem,
    states: list[StationaryState],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[BdGSpectrum]:
    """`solve_bdg` spectrum per state, aligned with the input list.

    Even and odd parents are solved sector by sector (BENCH_3.json has the
    timings), and the zero mode stays at roundoff level, so the default
    threshold separates stable from unstable states.
    """
    return [solve_bdg(build_bdg(problem, state), threshold=threshold)
            for state in states]
