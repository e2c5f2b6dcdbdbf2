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
blocks are still real, which is what the solver below relies on.

With p = a + b and q = -i (a - b), i.e. (p, q) = (Re delta-psi, Im delta-psi)
for a real eigenvector, the system becomes real,

    l p = Ld q,    l q = -Lplus p,    Lplus = Ld + 2 X,

so l^2 = -eig(Ld Lplus), with p an eigenvector of Ld Lplus and
q = -Lplus p / l.  Lplus is exactly the Newton Jacobian, and
`StationaryProblem.linearization` assembles Ld and Lplus once for both.  The
square root amplifies roundoff near l = 0 (1e-12 in l^2 becomes 1e-6 in l),
and the phase mode puts l^2 = 0 into every nonzero state, so it is removed
exactly.  Ld is symmetric and Ld psi0 is the stationary residual, so psi0 is
a left null vector of Ld Lplus and its orthogonal complement is invariant:
with one Householder reflector Q whose first column is psi0 / |psi0|, the
trailing block of Q^T Ld Lplus Q holds every other l^2 (Van Loan's
square-reduced form, LAA 61, 1984).  The removed zero pair is measured as l = +-sqrt(-a),
a = <Ld psi0, Lplus psi0> / |psi0|^2, not read from the corner of
Q^T Ld Lplus Q, which holds ~1e-12 of roundoff from forming the product.
Exactly one l^2 = 0 goes as long as <psi0, Lplus^-1 psi0>, proportional to
dN/dmu, is nonzero: away from a fold.

When psi0 is even or odd, each matrix splits into an even and an odd
reflection sector, and `StationaryProblem.linearization` assembles Ld and
Lplus directly in each sector's coordinates, the blocks Newton uses.
psi0 lives in the parent sector, of its own parity, which is deflated.  The
breaking sector carries every pitchfork instability and, away from a
pitchfork, no zero mode, so it is not deflated; right at a pitchfork its
critical root carries noise of about sqrt(eps) ||L||.  A state without
parity is deflated on the whole grid, and the vacuum, which has no phase
mode, nowhere.  `build_bdg` forms each sector's product once, parent first,
into `BdGOperator.forms`, and `solve_bdg` and `dominant_unstable_mode` both
read those forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import (NewtonError, StationaryProblem, StationaryState,
                           classify_symmetry, newton_solve, reflection_sectors)
from .discretization import Grid, ReflectionSector
from .twomode import ASYMMETRIC


DEFAULT_THRESHOLD = 1e-6
CONVERGED_RESIDUAL = 1e-10
POLISH_RESIDUAL = 1e-12


class StabilityError(RuntimeError):
    pass


@dataclass(frozen=True)
class _ProductForm:
    """Ld Lplus on one reflection sector or on the whole grid.

    When psi0 is deflated, matrix is (Q^T Ld Lplus Q)[1:, 1:] for the
    Householder reflector Q = I - 2 v v^T / v^T v, and zero_sq is the l^2 of
    the removed phase zero pair; otherwise matrix is Ld Lplus itself.
    """

    sector: ReflectionSector | None
    matrix: np.ndarray
    l_plus: np.ndarray
    reflector: np.ndarray | None = None
    zero_sq: float | None = None

    def eigenpair(self, vector: np.ndarray, lam: complex) -> tuple[np.ndarray, np.ndarray]:
        """(p, q) on the grid from an eigenvector of matrix with root l.

        p comes back through Q, q = -Lplus p / l is formed on the sector, and
        both are lifted through the sector.
        """
        if self.reflector is not None:
            v = self.reflector
            vector = np.concatenate([[0.0], vector])
            vector = vector - (2.0 * (v @ vector) / (v @ v)) * v
        q = -(self.l_plus @ vector) / lam
        if self.sector is None:
            return vector, q
        return self.sector.lift(vector), self.sector.lift(q)


def _product_form(
    sector: ReflectionSector | None, ld: np.ndarray, l_plus: np.ndarray,
    psi: np.ndarray | None,
) -> _ProductForm:
    """Ld Lplus of one sector, deflated of psi (its sector coordinates) if given."""
    matrix = ld @ l_plus
    if psi is None or not psi.any():
        return _ProductForm(sector, matrix, l_plus)
    norm_sq = float(psi @ psi)
    zero_sq = -float((ld @ psi) @ (l_plus @ psi)) / norm_sq
    # Q's first column is -+psi / |psi|; the sign avoids cancellation in v.
    v = psi / np.sqrt(norm_sq)
    v[0] += np.copysign(1.0, v[0])
    tau = 2.0 / float(v @ v)
    matrix -= tau * np.outer(v, v @ matrix)
    matrix -= tau * np.outer(matrix @ v, v)
    return _ProductForm(sector, matrix[1:, 1:], l_plus, v, zero_sq)


@dataclass(frozen=True)
class BdGOperator:
    """The linearization around one state, as the product form of each block.

    `forms` holds one `_ProductForm` per block: for an even or odd state the
    parent sector first, deflated of psi0, then the breaking one; for a state
    without parity one deflated form on the whole grid, with sector None.
    """

    problem: StationaryProblem
    psi: np.ndarray
    mu: float
    forms: tuple[_ProductForm, ...]

    @property
    def grid(self) -> Grid:
        return self.problem.grid


@dataclass(frozen=True)
class BdGSpectrum:
    """Eigenvalues l of one linearization, sorted by descending real part."""

    eigenvalues: np.ndarray
    max_real_part: float
    unstable_count: int


@dataclass(frozen=True)
class UnstableMode:
    """Fastest-growing perturbation of an unstable state.

    direction is the complex profile delta-psi at t = 0, normalized to unit
    grid norm; rate / frequency are Re l and |Im l| of its eigenvalue.
    """

    rate: float
    frequency: float
    direction: np.ndarray


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
    try:
        polished = newton_solve(problem, state.psi, state.mu, tol=POLISH_RESIDUAL, max_iter=6)
    except NewtonError:
        return state
    moved = np.sqrt(problem.grid.norm_sq(polished.psi - state.psi))
    if moved > 1e-6 * (1.0 + state.norm):
        return state
    return polished


def build_bdg(problem: StationaryProblem, state: StationaryState) -> BdGOperator:
    """The product form of each linearization block at a converged state.

    Reflection commutes with Ld and Lplus exactly when psi0 is even or odd (a
    zero profile counts as even), and the spectrum is then the union of the
    two sectors.  psi0 is deflated where it lives: in the parent sector, the
    first form, or on the whole grid when it has no parity.
    """
    if not state.residual <= CONVERGED_RESIDUAL:  # a NaN residual fails too
        raise StabilityError(
            f"state is not converged: residual {state.residual:.3e} is not within "
            f"{CONVERGED_RESIDUAL:.1e}")
    state = _polish(problem, state)
    symmetry = classify_symmetry(problem.grid, state.psi)
    if symmetry == ASYMMETRIC:
        sectors, psi = (None,), state.psi
    else:
        sectors = reflection_sectors(problem.grid, symmetry)
        psi = sectors[0].restrict(state.psi)
    forms = tuple(
        _product_form(sector, *problem.linearization(state.psi, state.mu, sector), deflate)
        for sector, deflate in zip(sectors, (psi, None)))
    return BdGOperator(problem=problem, psi=state.psi, mu=state.mu, forms=forms)


def solve_bdg(operator: BdGOperator) -> BdGSpectrum:
    """Full eigenvalue spectrum (all 2n values) of one linearization.

    l = +-sqrt(-eig) of the product form on each reflection sector, or on the
    whole grid for a state without parity, with the phase zero pair measured
    by the deflation rather than diagonalized. A real part above
    DEFAULT_THRESHOLD counts as unstable.
    """
    lam_sq = []
    for form in operator.forms:
        lam_sq.append(-np.linalg.eigvals(form.matrix))
        if form.zero_sq is not None:
            lam_sq.append([form.zero_sq])
    roots = np.sqrt(np.concatenate(lam_sq).astype(complex))
    eigenvalues = np.concatenate([roots, -roots])
    eigenvalues = eigenvalues[np.lexsort((-eigenvalues.imag, -eigenvalues.real))]
    unstable = int(np.count_nonzero(eigenvalues.real > DEFAULT_THRESHOLD))
    return BdGSpectrum(eigenvalues=eigenvalues,
                       max_real_part=float(eigenvalues.real.max()),
                       unstable_count=unstable)


def _dominant_eigenpair(operator: BdGOperator) -> tuple[complex, np.ndarray, np.ndarray]:
    """Fastest-growing l with its eigenvector (p, q) on the grid.

    l p = Ld q and l q = -Lplus p.  The winner comes from the same product
    forms as `solve_bdg`; the deflated phase zero pair is no growing mode and
    takes no part.  p comes from inverse iteration on the winner's matrix,
    and `_ProductForm.eigenpair` forms q = -Lplus p / l and lifts both.
    """
    best = None
    for form in operator.forms:
        nus = np.linalg.eigvals(form.matrix)
        roots = np.sqrt((-nus).astype(complex))
        k = int(np.argmax(roots.real))
        if best is None or roots[k].real > best[0].real:
            best = (complex(roots[k]), nus[k], form)
    lam, nu, form = best
    if lam.real <= DEFAULT_THRESHOLD:
        raise StabilityError(
            f"state has no growth above threshold: max rate {lam.real:.3e}")
    # Two steps of inverse iteration at the computed eigenvalue give its
    # eigenvector for two linear solves instead of a full eigenvector run; a
    # real pair keeps them in real arithmetic.
    if nu.imag == 0.0:
        nu, lam = nu.real, lam.real
    shifted = form.matrix - nu * np.eye(len(form.matrix))
    vector = np.ones(len(form.matrix))
    for _ in range(2):
        vector = np.linalg.solve(shifted, vector)
        vector /= np.linalg.norm(vector)
    p, q = form.eigenpair(vector, lam)
    return complex(lam), p, q


def dominant_unstable_mode(operator: BdGOperator) -> UnstableMode:
    """Eigenvalue and initial perturbation profile of the fastest instability.

    The eigenvector (p, q) of the winning eigenvalue gives the perturbation
    Re p + i Re q at t = 0, which is a + conj(b) for the matching block
    eigenvector (a, b); a real pair comes out with frequency exactly 0.
    """
    lam, p, q = _dominant_eigenpair(operator)
    # Eigenvectors come with an arbitrary complex phase; rotate p to be real
    # and positive at its largest component.
    pivot = p[int(np.argmax(np.abs(p)))]
    phase = np.conj(pivot) / abs(pivot)
    direction = (phase * p).real + 1j * (phase * q).real
    norm = np.sqrt(operator.grid.integrate(np.abs(direction) ** 2))
    return UnstableMode(rate=lam.real, frequency=abs(lam.imag),
                        direction=direction / norm)


def sweep_branch(problem: StationaryProblem, states: list[StationaryState]) -> list[BdGSpectrum]:
    """`solve_bdg` spectrum per state, aligned with the input list.

    The phase zero pair is measured at the level of the stationary residual,
    so the default threshold separates stable from unstable states.
    """
    return [solve_bdg(build_bdg(problem, state)) for state in states]
