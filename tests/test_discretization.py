import tracemalloc

import numpy as np
import pytest
from scipy import fft as scipy_fft
from scipy.integrate import quad

from cqdw.discretization import (
    EXPONENTIAL,
    GAUSSIAN,
    ConvolutionPlan,
    DiscretizationError,
    Kernel,
    PotentialParams,
    _next_fast_len,
    build_grid,
    kernel_eval,
    kernel_matrix,
    kernel_samples,
    parity_residuals,
    potential_profile,
    reflect,
)


def brute_force_convolution(kernel, f, grid):
    """O(n^2) quadrature oracle: (R*f)(x_i) = sum_j R(x_i - x_j) f_j dx."""
    x = grid.points
    diff = x[:, None] - x[None, :]
    return kernel_eval(kernel, diff) @ np.asarray(f) * grid.spacing


def test_grid_layout():
    grid = build_grid(20.0, 0.1)
    assert grid.n_points == 401
    assert grid.points[0] == pytest.approx(-20.0)
    assert grid.points[-1] == pytest.approx(20.0)
    assert grid.points[grid.center_index] == 0.0
    np.testing.assert_allclose(np.diff(grid.points), 0.1)


def test_grid_weights_are_trapezoid():
    grid = build_grid(1.0, 0.25)
    w = grid.weights
    assert w[0] == pytest.approx(0.125)
    assert w[-1] == pytest.approx(0.125)
    np.testing.assert_allclose(w[1:-1], 0.25)
    # exact for polynomials of degree 1
    assert grid.integrate(3.0 + 2.0 * grid.points) == pytest.approx(6.0, abs=1e-14)


@pytest.mark.parametrize(
    "half_width, spacing",
    [(-1.0, 0.1), (1.0, -0.1), (1.0, 0.0), (1.0, 0.3), (0.05, 0.1)],
)
def test_grid_validation(half_width, spacing):
    with pytest.raises(DiscretizationError):
        build_grid(half_width, spacing)


def test_potential_profile_shape():
    grid = build_grid(20.0, 0.1)
    v = potential_profile(grid, PotentialParams())
    c = grid.center_index
    assert v[c] == pytest.approx(1.0)  # barrier height at x = 0
    # far wings are parabolic: V(20) ~ 0.5 * 0.1^2 * 400 = 2.0
    assert v[-1] == pytest.approx(2.0, abs=1e-15)
    # two minima, symmetric
    np.testing.assert_allclose(v, v[::-1], atol=1e-15)
    assert v.min() < v[c]


def test_kernel_eval_values():
    assert kernel_eval(Kernel(GAUSSIAN, 1.0), 0.0) == pytest.approx(
        1.0 / np.sqrt(np.pi), rel=1e-12
    )
    assert kernel_eval(Kernel(EXPONENTIAL, 2.0), 0.0) == pytest.approx(0.25)
    x = np.linspace(-3, 3, 41)
    for k in (Kernel(GAUSSIAN, 0.7), Kernel(EXPONENTIAL, 1.3)):
        np.testing.assert_allclose(kernel_eval(k, x), kernel_eval(k, -x))


def test_kernel_validation():
    with pytest.raises(DiscretizationError):
        Kernel("lorentzian", 1.0)


def test_kernel_unit_mass():
    # continuum normalization holds for every family and range
    for k in (Kernel(GAUSSIAN, 1.0), Kernel(GAUSSIAN, 0.3), Kernel(EXPONENTIAL, 0.8)):
        mass, _ = quad(lambda x: kernel_eval(k, x), -np.inf, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)
    # the grid sum reproduces it for kernels smooth on the grid scale
    grid = build_grid(20.0, 0.1)
    for sigma in (0.5, 1.0, 3.0):
        mass = kernel_eval(Kernel(GAUSSIAN, sigma), grid.points).sum() * grid.spacing
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_convolution_of_ones_is_one_inside():
    grid = build_grid(20.0, 0.1)
    out = ConvolutionPlan(Kernel(GAUSSIAN, 0.5), grid).apply(np.ones(grid.n_points))
    interior = np.abs(grid.points) <= 10.0
    assert np.max(np.abs(out[interior] - 1.0)) < 1e-8


def test_convolution_matches_bruteforce_oracle():
    grid = build_grid(10.0, 0.05)
    rng = np.random.default_rng(7)
    f = np.exp(-grid.points**2) * rng.normal(size=grid.n_points)
    for k in (Kernel(GAUSSIAN, 0.9), Kernel(EXPONENTIAL, 1.7)):
        fast = ConvolutionPlan(k, grid).apply(f)
        slow = brute_force_convolution(k, f, grid)
        np.testing.assert_allclose(fast, slow, atol=1e-10)


@pytest.mark.parametrize("n_points", [3, 13, 41, 63])
def test_plan_at_tightest_padding_matches_oracle(n_points):
    # 2n - 1 is 5-smooth for these n, so the FFT length is exactly 2n - 1 with
    # no slack, and a kernel wider than half the box keeps its far tail at
    # offset (n - 1) dx within e^-2 of its peak: any wrap-around into the
    # kept outputs would show.
    spacing = 0.1
    grid = build_grid(spacing * (n_points // 2), spacing)
    kernel = Kernel(EXPONENTIAL, max(grid.half_width, spacing))
    plan = ConvolutionPlan(kernel, grid)
    rng = np.random.default_rng(n_points)
    f = rng.normal(size=n_points)
    g = f + 1j * rng.normal(size=n_points)
    np.testing.assert_allclose(plan.apply(f), brute_force_convolution(kernel, f, grid), atol=1e-12)
    np.testing.assert_allclose(plan.apply(g.real) + 1j * plan.apply(g.imag),
                               brute_force_convolution(kernel, g, grid), atol=1e-12)


def scipy_fft_convolution(kernel, grid, values):
    """ConvolutionPlan.apply's zero-padded convolution, through scipy.fft."""
    n = grid.n_points
    size = scipy_fft.next_fast_len(2 * n - 1)
    kernel_hat = scipy_fft.rfft(kernel_samples(kernel, grid), size)

    def real(v):
        full = scipy_fft.irfft(scipy_fft.rfft(v, size) * kernel_hat, size)
        return full[n - 1 : 2 * n - 1] * grid.spacing

    if np.iscomplexobj(values):
        return real(values.real) + 1j * real(values.imag)
    return real(values)


def test_next_fast_len_matches_scipy():
    for target in range(1, 5001):
        assert _next_fast_len(target) == scipy_fft.next_fast_len(target), target


# n = 401 transforms at 810 = 2 3^4 5; n = 153 at 308 = 2^2 7 11
@pytest.mark.parametrize("half_width, fft_size", [(20.0, 810), (7.6, 308)])
@pytest.mark.parametrize("kernel", [Kernel(GAUSSIAN, 1.0), Kernel(EXPONENTIAL, 0.7)])
def test_plan_is_bit_identical_to_scipy_fft(half_width, fft_size, kernel):
    grid = build_grid(half_width, 0.1)
    assert scipy_fft.next_fast_len(2 * grid.n_points - 1) == fft_size
    rng = np.random.default_rng(grid.n_points)
    f = np.exp(-grid.points**2 / 8) * rng.normal(size=grid.n_points)
    g = f + 1j * rng.normal(size=grid.n_points)
    plan = ConvolutionPlan(kernel, grid)
    assert np.array_equal(plan.apply(f), scipy_fft_convolution(kernel, grid, f))
    assert np.array_equal(plan.apply(g.real) + 1j * plan.apply(g.imag),
                          scipy_fft_convolution(kernel, grid, g))


def test_convolution_rejects_complex_input():
    """The plan convolves real values only; a complex field fails loudly in
    rfft instead of losing its imaginary part."""
    grid = build_grid(8.0, 0.1)
    rng = np.random.default_rng(3)
    f = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    plan = ConvolutionPlan(Kernel(GAUSSIAN, 1.0), grid)
    with pytest.raises(TypeError):
        plan.apply(f)


def test_convolution_linearity_and_parity():
    grid = build_grid(10.0, 0.1)
    rng = np.random.default_rng(5)
    plan = ConvolutionPlan(Kernel(GAUSSIAN, 1.2), grid)
    f, g = rng.normal(size=(2, grid.n_points))
    lhs = plan.apply(2.5 * f - 1.5 * g)
    rhs = 2.5 * plan.apply(f) - 1.5 * plan.apply(g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    even = np.exp(-grid.points**2)
    odd = grid.points * even
    r_even = plan.apply(even)
    r_odd = plan.apply(odd)
    np.testing.assert_allclose(r_even, reflect(r_even), atol=1e-12)
    np.testing.assert_allclose(r_odd, -reflect(r_odd), atol=1e-12)


def test_kernel_matrix_agrees_with_plan():
    grid = build_grid(6.0, 0.1)
    k = Kernel(EXPONENTIAL, 0.6)
    rng = np.random.default_rng(13)
    f = rng.normal(size=grid.n_points)
    plan = ConvolutionPlan(k, grid)
    np.testing.assert_allclose(kernel_matrix(k, grid) @ f, plan.apply(f), atol=1e-12)


@pytest.mark.parametrize("kernel", [Kernel(GAUSSIAN, 0.1), Kernel(GAUSSIAN, 1.0),
                                    Kernel(GAUSSIAN, 8.0), Kernel(EXPONENTIAL, 1.0)])
def test_kernel_matrix_is_the_gather_of_the_samples(grid, kernel):
    """K[i, j] = samples[n - 1 + |i - j|] dx, gathered through an index array,
    equals the Toeplitz matrix bit for bit."""
    n = grid.n_points
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    gathered = kernel_samples(kernel, grid)[n - 1:][idx] * grid.spacing
    assert np.array_equal(kernel_matrix(kernel, grid), gathered)


def test_kernel_matrix_builds_no_n_by_n_buffer(grid):
    """K is a view of its 2n - 1 scaled samples: building it allocates far
    less than one n x n float64 array."""
    n = grid.n_points
    kernel = Kernel(GAUSSIAN, 1.0)
    kernel_matrix(kernel, grid)  # warm any first-call allocations
    tracemalloc.start()
    try:
        matrix = kernel_matrix(kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.shape == (n, n)
    assert peak < n * n * 8, peak


@pytest.mark.parametrize(
    "kernel", [Kernel(GAUSSIAN, 0.1), Kernel(GAUSSIAN, 1.0), Kernel(EXPONENTIAL, 0.05)]
)
def test_kernel_samples_truncate_below_eps_squared(kernel):
    grid = build_grid(20.0, 0.1)
    n = grid.n_points
    samples = kernel_samples(kernel, grid)
    exact = kernel_eval(kernel, grid.spacing * np.arange(-(n - 1), n))
    floor = np.finfo(float).eps ** 2 * exact.max()
    kept = exact >= floor
    assert not np.any((samples != 0.0) & (np.abs(samples) < np.finfo(float).tiny))
    assert np.all(samples[~kept] == 0.0)
    np.testing.assert_array_equal(samples[kept], exact[kept])


def test_truncated_kernel_keeps_the_newton_step(branch_suite):
    # The sigma=1 Gaussian underflows to subnormals past |x| ~ 26.6; zeroing
    # them must not move a Newton step taken with the dense Jacobian.
    problem = branch_suite["sigma1"]["problem"]
    state = branch_suite["sigma1"]["sym"].states[40]
    psi, mu = state.psi, state.mu + 1e-3
    x = problem.grid.points
    full_k = kernel_eval(problem.kernel, x[:, None] - x[None, :]) * problem.grid.spacing
    local, jac = problem.linearization(psi, mu)
    weight = 2.0 * problem.s * psi + 4.0 * problem.delta * psi**3
    full_jac = local + psi[:, None] * full_k * weight[None, :]
    r = problem.residual(psi, mu)
    step = np.linalg.solve(jac, -r)
    full_step = np.linalg.solve(full_jac, -r)
    assert np.linalg.norm(step - full_step) <= 1e-14 * np.linalg.norm(full_step)


def test_parity_residuals():
    grid = build_grid(5.0, 0.1)
    even = np.exp(-(grid.points**2))
    odd = np.sin(grid.points)
    r_even = parity_residuals(grid, even)
    r_odd = parity_residuals(grid, odd)
    assert r_even[0] < 1e-14 and r_even[1] > 0.1
    assert r_odd[1] < 1e-14 and r_odd[0] > 0.1
    mixed = even + 0.5 * odd
    rm = parity_residuals(grid, mixed)
    assert rm[0] > 1e-3 and rm[1] > 1e-3
