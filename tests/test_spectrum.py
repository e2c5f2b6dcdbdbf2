import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cqdw import spectrum
from cqdw.discretization import PotentialParams, build_grid, reflect
from cqdw.spectrum import (
    SpectrumError,
    default_basis,
    discretize_operator,
    lowest_eigenpairs,
    rotated_basis,
)

# Doublet of the default well on the default grid, frozen from this code
# and checked independently by the Richardson test below.
OMEGA0_REF = 0.132785951
OMEGA1_REF = 0.155695296


def test_default_doublet_frozen_values(grid, basis):
    assert basis.omega0 == pytest.approx(OMEGA0_REF, abs=1e-7)
    assert basis.omega1 == pytest.approx(OMEGA1_REF, abs=1e-7)
    assert basis.omega == pytest.approx(0.011454673, abs=1e-7)
    assert basis.Omega == pytest.approx(0.144240623, abs=1e-7)


def test_harmonic_limit():
    # barrier off: spacing of the pure trap is the trap frequency
    grid = build_grid(20.0, 0.1)
    params = PotentialParams(barrier_height=0.0)
    op = discretize_operator(grid, params)
    omegas, _ = lowest_eigenpairs(op)
    assert omegas[0] == pytest.approx(0.05, abs=2e-5)
    assert omegas[1] == pytest.approx(0.15, abs=2e-5)


def test_doublet_grid_convergence_is_second_order():
    values = {}
    for dx in (0.2, 0.1, 0.05):
        grid = build_grid(20.0, dx)
        omegas, _ = lowest_eigenpairs(discretize_operator(grid, PotentialParams()))
        values[dx] = omegas
    for k in range(2):
        coarse = values[0.2][k] - values[0.05][k]
        fine = values[0.1][k] - values[0.05][k]
        # error(dx) ~ c dx^2 means (e(0.2)-e(0.05))/(e(0.1)-e(0.05)) ~ 5
        assert coarse / fine == pytest.approx(5.0, rel=0.25)


def test_eigen_residuals_small(grid):
    op = discretize_operator(grid, PotentialParams())
    omegas, modes = lowest_eigenpairs(op)
    for k in range(2):
        residual = op.matvec(modes[:, k]) - omegas[k] * modes[:, k]
        assert np.sqrt(grid.norm_sq(residual)) < 1e-10


def test_modes_normalized_and_orthogonal(grid, basis):
    assert grid.integrate(basis.u0**2) == pytest.approx(1.0, abs=1e-12)
    assert grid.integrate(basis.u1**2) == pytest.approx(1.0, abs=1e-12)
    assert abs(grid.integrate(basis.u0 * basis.u1)) < 1e-10


def test_sign_conventions_and_parity(grid, basis):
    c = grid.center_index
    assert basis.u0[c] > 0
    assert basis.u1[c + 1] - basis.u1[c - 1] > 0
    # the folds lift to exact mirror images
    assert np.array_equal(basis.u0, reflect(basis.u0))
    assert np.array_equal(basis.u1, -reflect(basis.u1))


def test_rotated_basis_localization(grid, basis):
    assert basis.left_mass_fraction() > 0.95
    assert np.array_equal(basis.phi_right, reflect(basis.phi_left))
    # rotation is an involution: recombining gives back the modes
    rt2 = np.sqrt(2.0)
    np.testing.assert_allclose((basis.phi_left + basis.phi_right) * rt2 / 2, basis.u0, atol=1e-12)
    np.testing.assert_allclose((basis.phi_right - basis.phi_left) * rt2 / 2, basis.u1, atol=1e-12)
    assert grid.integrate(basis.phi_left * basis.phi_right) == pytest.approx(0.0, abs=1e-10)


def test_degenerate_doublet_rejected(grid):
    omegas = np.array([0.1, 0.1])
    modes = np.zeros((grid.n_points, 2))
    with pytest.raises(SpectrumError):
        rotated_basis(grid, omegas, modes)


def test_localization_guard(grid):
    # single harmonic well: the rotated pair mixes the ground state with the
    # dipole mode and is not left/right localized
    params = PotentialParams(barrier_height=0.0)
    with pytest.raises(SpectrumError):
        default_basis(grid, params)


def test_doublet_above_the_box_edge_is_refused():
    # in a box of half-width 2 the ground level (about 0.67) is set by the
    # Dirichlet walls, far above V at the box edge (about 0.02)
    grid = build_grid(2.0, 0.1)
    with pytest.raises(SpectrumError, match="box edge"):
        lowest_eigenpairs(discretize_operator(grid, PotentialParams()))


def test_doublet_bisects_one_level_per_fold(grid, monkeypatch):
    """Only the ground level of each fold is bisected to adjacent floats, in
    at most 64 Sturm counts; two levels a fold take about 250 in all."""
    calls = []
    count = spectrum._sturm_count

    def counted(*args):
        calls.append(args[2])
        return count(*args)

    monkeypatch.setattr(spectrum, "_sturm_count", counted)
    default_basis(grid)
    assert 0 < len(calls) <= 2 * 64


@pytest.mark.parametrize(
    "half_width, spacing, params",
    [(20.0, 0.1, PotentialParams()), (10.0, 0.1, PotentialParams(barrier_height=2.0)),
     (20.0, 0.05, PotentialParams(barrier_width=1.0))],
)
def test_basis_matches_the_tridiagonal_eigensolver(half_width, spacing, params):
    """The folded doublet against LAPACK's tridiagonal one (stebz/stein),
    after the same normalization and `rotated_basis` sign rules."""
    grid = build_grid(half_width, spacing)
    op = discretize_operator(grid, params)
    basis = rotated_basis(grid, *lowest_eigenpairs(op))
    omegas, modes = eigh_tridiagonal(
        op.diagonal, op.off_diagonal, select="i", select_range=(0, 1)
    )
    modes /= np.sqrt([grid.norm_sq(modes[:, k]) for k in range(2)])
    ref = rotated_basis(grid, omegas, modes)
    assert abs(basis.omega0 - ref.omega0) <= 1e-13
    assert abs(basis.omega1 - ref.omega1) <= 1e-13
    assert np.max(np.abs(basis.u0 - ref.u0)) <= 1e-12
    assert np.max(np.abs(basis.u1 - ref.u1)) <= 1e-12
    # the folds lift u0 and u1 exactly even and odd, so phi_right is
    # reflect(phi_left) bit for bit and `rotated_basis` needs no mirror check
    assert np.array_equal(basis.u0, reflect(basis.u0))
    assert np.array_equal(basis.u1, -reflect(basis.u1))
    assert np.array_equal(basis.phi_right, reflect(basis.phi_left))


def test_deep_barrier_doublet_matches_the_tridiagonal_eigensolver(grid):
    """A barrier of 8 splits the doublet about 70 times more finely than the
    default well; the folds still resolve it to the same bounds."""
    op = discretize_operator(grid, PotentialParams(barrier_height=8.0))
    basis = rotated_basis(grid, *lowest_eigenpairs(op))
    assert basis.omega1 - basis.omega0 < 5e-4
    omegas, modes = eigh_tridiagonal(
        op.diagonal, op.off_diagonal, select="i", select_range=(0, 1)
    )
    modes /= np.sqrt([grid.norm_sq(modes[:, k]) for k in range(2)])
    ref = rotated_basis(grid, omegas, modes)
    assert abs(basis.omega0 - ref.omega0) <= 1e-13
    assert abs(basis.omega1 - ref.omega1) <= 1e-13
    assert np.max(np.abs(basis.u0 - ref.u0)) <= 1e-12
    assert np.max(np.abs(basis.u1 - ref.u1)) <= 1e-12


def test_basis_allocates_less_than_one_grid_square_matrix(grid):
    """The doublet is solved on the tridiagonal folds: no n x n array, dense
    operator or LAPACK workspace is allocated for it."""
    default_basis(grid)  # first-call allocations of numpy itself stay out
    tracemalloc.start()
    try:
        default_basis(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.n_points ** 2 * 8
