"""Reference for the BdG eigen-route: the real 2n x 2n block.

M = [[L1, L2], [-L2, -L1]] with L1 = Ld + X, L2 = X and X = (Lplus - Ld) / 2
has spectrum i l.  Diagonalized directly it takes no square root and inserts
no zero pair, so it checks the deflated product form of `cqdw.stability`
from outside.  Its blocks are assembled on the whole grid, and folded onto
a reflection sector only on request, so they also check the sector assembly
that `cqdw.stability` solves on.
"""

import numpy as np

from cqdw.continuation import classify_symmetry, reflection_sectors
from cqdw.twomode import ASYMMETRIC


def full_blocks(op) -> tuple[np.ndarray, np.ndarray]:
    """(Ld, Lplus) of the operator's state, assembled on the whole grid."""
    return op.problem.linearization(op.psi, op.mu)


def exchange_block(op) -> np.ndarray:
    """X, the nonlocal exchange block."""
    ld, l_plus = full_blocks(op)
    return 0.5 * (l_plus - ld)


def block(op, sector=None) -> np.ndarray:
    """M on the whole grid, or folded onto one reflection sector."""
    ld, l_plus = full_blocks(op)
    if sector is not None:
        ld, l_plus = sector.fold(ld), sector.fold(l_plus)
    x = 0.5 * (l_plus - ld)
    l1 = ld + x
    return np.block([[l1, x], [-x, -l1]])


def block_spectrum(op, sector=None) -> np.ndarray:
    """Eigenvalues l = -i eig(M)."""
    return -1j * np.linalg.eigvals(block(op, sector))


def parent_block_spectrum(op) -> np.ndarray:
    """l from M on the parent sector, which holds the phase mode.

    A state without parity has no sectors and uses the whole block.
    """
    symmetry = classify_symmetry(op.grid, op.psi)
    if symmetry == ASYMMETRIC:
        return block_spectrum(op)
    parent, _ = reflection_sectors(op.grid, symmetry)
    return block_spectrum(op, parent)


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
