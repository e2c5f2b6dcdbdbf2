"""Tests for the mode-overlap integrals and interaction-regime classification.

The cheap route computes every overlap with one FFT convolution per density
factor; the oracle here is the O(n^2) double integral assembled from pointwise
kernel evaluations, which the cheap route must match to 1e-8.
"""

import numpy as np
import pytest

from cqdw.discretization import (
    EXPONENTIAL,
    GAUSSIAN,
    Kernel,
    kernel_eval,
)
from cqdw.overlaps import (
    CASE1,
    CASE2,
    CASE3,
    RELEVANCE_CUTOFF,
    compute_overlaps,
    eta_rel,
    find_threshold,
)


def brute_force_eta(kernel, f, g, grid):
    """Double integral  iint f(x) R(x - y) g(y) dy dx  without any FFT."""
    diff = grid.points[:, None] - grid.points[None, :]
    weighted = kernel_eval(kernel, diff) * (grid.weights[None, :] * g[None, :])
    return float(grid.weights @ (f * weighted.sum(axis=1)))


# ---------------------------------------------------------------------------
# agreement with the double-integral oracle


@pytest.mark.parametrize("sigma", [0.1, 1.0, 8.0])
def test_overlaps_match_double_integral(basis, sigma):
    kernel = Kernel(GAUSSIAN, sigma)
    overlaps = compute_overlaps(basis, kernel)
    grid = basis.grid
    ll = basis.phi_left**2
    rr = basis.phi_right**2
    lr = basis.phi_left * basis.phi_right
    pairs = [
        (ll, ll),
        (ll, rr),
        (ll, lr),
        (lr, lr),
        (ll * ll, ll),
        (ll * ll, rr),
        (ll * ll, lr),
        (ll * rr, ll),
        (ll * rr, lr),
        (ll * lr, ll),
        (ll * lr, rr),
        (ll * lr, lr),
    ]
    for i, (f, g) in enumerate(pairs):
        expected = brute_force_eta(kernel, f, g, grid)
        assert overlaps[i] == pytest.approx(expected, abs=1e-8), f"eta{i}"


def test_exponential_kernel_against_oracle(basis):
    kernel = Kernel(EXPONENTIAL, 1.7)
    overlaps = compute_overlaps(basis, kernel)
    grid = basis.grid
    ll = basis.phi_left**2
    assert overlaps.eta0 == pytest.approx(
        brute_force_eta(kernel, ll, ll, grid), abs=1e-8
    )
    assert overlaps.eta4 == pytest.approx(
        brute_force_eta(kernel, ll * ll, ll, grid), abs=1e-8
    )


# ---------------------------------------------------------------------------
# frozen values and symmetry properties


def test_frozen_overlap_tables(overlaps_sigma01, overlaps_sigma1, overlaps_sigma8):
    frozen = {
        0.1: (0.180855558, 0.001636390, 0.037837633),
        1.0: (0.171870742, 0.002176949, 0.035438765),
        8.0: (0.065387283, 0.035411900, 0.012055410),
    }
    for overlaps, sigma in (
        (overlaps_sigma01, 0.1),
        (overlaps_sigma1, 1.0),
        (overlaps_sigma8, 8.0),
    ):
        eta0, eta1, eta4 = frozen[sigma]
        assert overlaps.eta0 == pytest.approx(eta0, abs=1e-7)
        assert overlaps.eta1 == pytest.approx(eta1, abs=1e-7)
        assert overlaps.eta4 == pytest.approx(eta4, abs=1e-7)


def test_mirror_symmetry_of_overlaps(basis, overlaps_sigma1):
    # swapping L and R everywhere must leave the direct overlaps unchanged
    kernel = Kernel(GAUSSIAN, 1.0)
    grid = basis.grid
    ll = basis.phi_left**2
    rr = basis.phi_right**2
    assert brute_force_eta(kernel, rr, rr, grid) == pytest.approx(
        overlaps_sigma1.eta0, abs=1e-10
    )
    assert brute_force_eta(kernel, rr, ll, grid) == pytest.approx(
        overlaps_sigma1.eta1, abs=1e-10
    )
    assert brute_force_eta(kernel, rr * rr, rr, grid) == pytest.approx(
        overlaps_sigma1.eta4, abs=1e-10
    )


def test_overlaps_positive_and_ordered(overlaps_sigma01, overlaps_sigma1, overlaps_sigma8):
    for overlaps in (overlaps_sigma01, overlaps_sigma1, overlaps_sigma8):
        assert overlaps.eta0 > 0
        assert overlaps.eta1 > 0
        assert overlaps.eta4 > 0
        # on-site self-interaction dominates the cross-well one
        assert overlaps.eta0 > overlaps.eta1


def test_eta0_decays_with_range(basis):
    sigmas = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    values = [compute_overlaps(basis, Kernel(GAUSSIAN, s)).eta0 for s in sigmas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_eta1_grows_with_range(basis):
    # longer range couples the wells more strongly
    sigmas = [0.5, 2.0, 8.0]
    values = [compute_overlaps(basis, Kernel(GAUSSIAN, s)).eta1 for s in sigmas]
    assert values[0] < values[1] < values[2]


# ---------------------------------------------------------------------------
# regime classification


def test_regime_boundaries_from_ratio(basis):
    expected = {0.1: CASE1, 1.0: CASE1, 5.0: CASE2, 8.0: CASE2, 12.0: CASE3}
    for sigma, case in expected.items():
        overlaps = compute_overlaps(basis, Kernel(GAUSSIAN, sigma))
        assert overlaps.regime == case, sigma


def test_eta_rel_is_the_classifier(basis, overlaps_sigma1, overlaps_sigma8):
    assert eta_rel(overlaps_sigma1, "eta1") < RELEVANCE_CUTOFF
    assert eta_rel(overlaps_sigma8, "eta1") >= RELEVANCE_CUTOFF
    assert eta_rel(overlaps_sigma8, "eta4") >= RELEVANCE_CUTOFF
    overlaps12 = compute_overlaps(basis, Kernel(GAUSSIAN, 12.0))
    assert eta_rel(overlaps12, "eta4") < RELEVANCE_CUTOFF


def test_eta_rel_rejects_unknown_ratio(overlaps_sigma1):
    with pytest.raises(ValueError):
        eta_rel(overlaps_sigma1, "eta2")


def test_threshold_values(basis):
    sigma_b = find_threshold(basis, GAUSSIAN, "eta1")
    sigma_c = find_threshold(basis, GAUSSIAN, "eta4")
    assert sigma_b == pytest.approx(2.9656, abs=2e-3)
    assert sigma_c == pytest.approx(9.1521, abs=2e-3)
    sigma_b_exp = find_threshold(basis, EXPONENTIAL, "eta1")
    sigma_c_exp = find_threshold(basis, EXPONENTIAL, "eta4")
    assert sigma_b_exp == pytest.approx(1.5626, abs=2e-3)
    assert sigma_c_exp == pytest.approx(7.0103, abs=2e-3)


def test_threshold_is_a_cutoff_crossing(basis):
    sigma_b = find_threshold(basis, GAUSSIAN, "eta1")
    below = compute_overlaps(basis, Kernel(GAUSSIAN, sigma_b - 0.05))
    above = compute_overlaps(basis, Kernel(GAUSSIAN, sigma_b + 0.05))
    assert eta_rel(below, "eta1") < RELEVANCE_CUTOFF < eta_rel(above, "eta1")


def test_overlap_sweep_crosses_cutoff_once(basis):
    sigmas = np.linspace(0.5, 12.0, 8)
    sweep = [compute_overlaps(basis, Kernel(GAUSSIAN, float(s))) for s in sigmas]
    relevance = np.array([ov[1] - max(abs(ov[2]), abs(ov[3])) for ov in sweep])
    # the eta1 relevance measure starts below the cutoff, ends above it,
    # and crosses it exactly once on this range
    signs = np.sign(relevance - RELEVANCE_CUTOFF)
    assert signs[0] < 0 < signs[-1]
    assert np.sum(np.diff(signs) != 0) == 1


def test_overlap_set_accessors(overlaps_sigma1):
    assert overlaps_sigma1.kernel.family == GAUSSIAN
    assert overlaps_sigma1[0] == overlaps_sigma1.eta0
    assert overlaps_sigma1[4] == overlaps_sigma1.eta4
