"""Linear spectrum of the single-particle operator and the left/right basis.

The operator -(1/2) d^2/dx^2 + V(x) is discretized with the standard 3-point
stencil and homogeneous Dirichlet values outside the box. The two lowest
eigenmodes u0 (even) and u1 (odd) of the double well are near-degenerate; the
rotated combinations phi_left = (u0 - u1)/sqrt(2), phi_right = (u0 + u1)/sqrt(2)
localize in the two wells and carry the tunneling parameters
Omega = (omega0 + omega1)/2 and omega = (omega1 - omega0)/2.

The operator commutes with the reflection x -> -x, so it splits into an even
and an odd fold, two tridiagonal matrices of n/2 rows whose levels interlace;
u0 is the ground level of the even fold and u1 that of the odd one. Each comes
from Sturm bisection and inverse iteration in Python: no n x n matrix and no
LAPACK call. u0 is exactly even and u1 exactly odd, and each eigenvalue is the
Rayleigh quotient of its fold.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .discretization import (
    Grid,
    PotentialParams,
    ReflectionSector,
    potential_profile,
)


class SpectrumError(ValueError):
    """Raised for invalid eigensolver requests or degenerate spectra."""


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal FD form of -(1/2) d^2/dx^2 + V with Dirichlet ends."""

    grid: Grid
    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] += self.off_diagonal * v[1:]
        out[1:] += self.off_diagonal * v[:-1]
        return out

    def to_dense(self) -> np.ndarray:
        n = len(self.diagonal)
        out = np.zeros((n, n))
        out.flat[:: n + 1] = self.diagonal
        out.flat[1:: n + 1] = self.off_diagonal
        out.flat[n:: n + 1] = self.off_diagonal
        return out


def discretize_operator(grid: Grid, potential: PotentialParams) -> TridiagonalOperator:
    """Build the tridiagonal operator of the double-well potential on the grid."""
    dx2 = grid.spacing**2
    diagonal = 1.0 / dx2 + potential_profile(grid, potential)
    off_diagonal = np.full(grid.n_points - 1, -0.5 / dx2)
    return TridiagonalOperator(grid=grid, diagonal=diagonal, off_diagonal=off_diagonal)


def _sturm_count(diag: list, off_sq: list, x: float, pivmin: float) -> int:
    """Eigenvalues below x of the tridiagonal (diag, sqrt(off_sq[1:])): the
    negative pivots of T - x = L D L^T, any below pivmin in size made -pivmin."""
    count, q = 0, 1.0
    for a, b2 in zip(diag, off_sq):
        q = a - x - b2 / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
    return count


def _ground_pair(diag: list, off: list) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a tridiagonal matrix with simple eigenvalues.

    It is bisected on `_sturm_count` to adjacent floats lo < hi (Barth,
    Martin and Wilkinson 1967); its vector takes three inverse-iteration sweeps
    through the L D L^T pivots at lo, which need no pivoting: _sturm_count
    finds none below pivmin. Its eigenvalue is the Rayleigh quotient."""
    off_sq = [0.0] + [b * b for b in off]
    pivmin = sys.float_info.min * max(off_sq + [1.0])
    pad = 2 * max(map(abs, off), default=0.0) + 1.0  # past the Gershgorin discs
    lo, hi = min(diag) - pad, max(diag) + pad
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _sturm_count(diag, off_sq, mid, pivmin) > 0:
            hi = mid
        else:
            lo = mid
    pivots, q = [], 1.0  # those _sturm_count(diag, off_sq, lo, pivmin) tests: all >= pivmin
    for a, b2 in zip(diag, off_sq):
        q = a - lo - b2 / q
        pivots.append(q)
    ratios = [b / q for b, q in zip(off, pivots)]
    v = [1.0] * len(diag)
    for _ in range(3):
        for i in range(1, len(v)):  # L y = v
            v[i] -= ratios[i - 1] * v[i - 1]
        v = [y / q for y, q in zip(v, pivots)]  # D z = y
        for i in range(len(v) - 2, -1, -1):  # L^T x = z
            v[i] -= ratios[i] * v[i + 1]
        size = math.sqrt(math.fsum(x * x for x in v))
        v = [x / size for x in v]
    v = np.array(v)
    tv = np.multiply(diag, v)
    tv[:-1] += np.multiply(off, v[1:])
    tv[1:] += np.multiply(off, v[:-1])
    return v @ tv / (v @ v), v


def lowest_eigenpairs(op: TridiagonalOperator) -> tuple[np.ndarray, np.ndarray]:
    """The doublet: (omegas, modes) with modes[:, k] quadrature-normalized.

    With m = n // 2, the even reflection fold of the operator is the
    tridiagonal (d[:m+1], e[:m-1]) with sqrt(2) e[m-1] coupling the centre,
    and the odd fold is (d[:m], e[:m-1]); no n x n matrix is formed. The
    levels of a symmetric Jacobi matrix alternate even, odd, even... (the
    discrete oscillation theorem), so the doublet is the ground pair of each
    fold (`_ground_pair`), even first, lifted to the grid. Eigenvalues above
    the potential floor at the box edge belong to the artificial Dirichlet
    box rather than the trap, so a doublet there is an error.
    """
    n = op.grid.n_points
    m = n // 2
    d, e = op.diagonal.tolist(), op.off_diagonal.tolist()
    folds = {"even": (d[:m + 1], [*e[:m - 1], math.sqrt(2.0) * e[m - 1]]),
             "odd": (d[:m], e[:m - 1])}
    omegas, modes = [], []
    for parity, (diag, off) in folds.items():
        omega, v = _ground_pair(diag, off)
        mode = ReflectionSector(parity, n).lift(v)
        omegas.append(omega)
        modes.append(mode / math.sqrt(op.grid.norm_sq(mode)))
    omegas = np.array(omegas)
    v_edge = min(op.diagonal[0], op.diagonal[-1]) - 1.0 / op.grid.spacing ** 2
    if np.any(omegas >= v_edge):
        raise SpectrumError(
            f"the doublet lies above the box edge value {v_edge:.6g}, where only "
            f"trap-bound modes are physical (eigenvalues {omegas})"
        )
    return omegas, np.column_stack(modes)


@dataclass(frozen=True)
class LinearBasis:
    """Two lowest modes plus the rotated left/right well basis."""

    grid: Grid
    omega0: float
    omega1: float
    u0: np.ndarray
    u1: np.ndarray
    phi_left: np.ndarray
    phi_right: np.ndarray

    @property
    def Omega(self) -> float:
        """Mean of the doublet."""
        return 0.5 * (self.omega0 + self.omega1)

    @property
    def omega(self) -> float:
        """Half-splitting of the doublet (tunneling rate)."""
        return 0.5 * (self.omega1 - self.omega0)

    def left_mass_fraction(self) -> float:
        x = self.grid.points
        mass = self.phi_left**2 * self.grid.weights
        return float(mass[x < 0].sum() + 0.5 * mass[x == 0].sum())


def rotated_basis(grid: Grid, omegas: np.ndarray, modes: np.ndarray) -> LinearBasis:
    """Fix mode signs and build the left/right basis.

    Sign conventions: u0 positive at x = 0, u1 with positive slope at x = 0.
    With these, (u0 - u1)/sqrt(2) is the left-well function. Degenerate or
    misordered eigenvalues are rejected; so is a basis that fails to localize
    (left mass fraction below 0.9), which signals that the
    potential is not an adequate double well.
    """
    omega0, omega1 = float(omegas[0]), float(omegas[1])
    if not omega1 > omega0 + 1e-12 * max(1.0, abs(omega0)):
        raise SpectrumError(
            f"doublet is degenerate or misordered: omega0={omega0}, omega1={omega1}"
        )
    u0 = modes[:, 0].copy()
    u1 = modes[:, 1].copy()
    c = grid.center_index
    if u0[c] < 0:
        u0 = -u0
    if u1[c + 1] - u1[c - 1] < 0:
        u1 = -u1
    phi_left = (u0 - u1) / math.sqrt(2.0)
    phi_right = (u0 + u1) / math.sqrt(2.0)
    basis = LinearBasis(grid, omega0, omega1, u0, u1, phi_left, phi_right)
    lm = basis.left_mass_fraction()
    if lm < 0.9:
        raise SpectrumError(
            f"left-well function is not localized: left mass fraction {lm:.3f} < 0.9")
    return basis


def default_basis(grid: Grid, params: PotentialParams | None = None) -> LinearBasis:
    """Convenience: operator + lowest doublet + rotation in one call."""
    params = params or PotentialParams()
    op = discretize_operator(grid, params)
    omegas, modes = lowest_eigenpairs(op)
    return rotated_basis(grid, omegas, modes)
