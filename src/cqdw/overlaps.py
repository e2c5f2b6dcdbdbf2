"""Nonlocal overlap integrals of the left/right basis and regime selection.

The twelve integrals eta0..eta11 are double integrals
    eta = Int g(x) R(x - x') f(x') dx' dx
computed as quadrature(g * plan.apply(f)) with one ConvolutionPlan for the
kernel R of the model. eta0..eta3 come from its cubic term, eta4..eta11
from its quintic term. Which of them survive in the reduced two-mode model
depends on the kernel range sigma:

  case 1 (narrow):        keep eta0, eta4
  case 2 (intermediate):  keep eta0, eta1, eta4
  case 3 (wide):          keep eta0, eta1 and drop the quintic eta4

`compute_overlaps` labels each sigma with its case from the relevance
measure eta_rel = eta_i - max(|eta2|, |eta3|) of eta1 and eta4 against 0.01.
The boundaries are always computed from that same per-sigma measure, never
taken from a table: sigma_b is where eta_rel(eta1) crosses 0.01 upward and
sigma_c where eta_rel(eta4) crosses it downward, so they move with the well
and the kernel family, and agree with the per-sigma labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import ConvolutionPlan, Kernel
from .spectrum import LinearBasis

CASE1 = "case1"
CASE2 = "case2"
CASE3 = "case3"

RELEVANCE_CUTOFF = 0.01

ETA_LABELS = tuple(f"eta{i}" for i in range(12))


@dataclass(frozen=True)
class RegimeThresholds:
    sigma_b: float
    sigma_c: float

    def __post_init__(self):
        if not (0 < self.sigma_b < self.sigma_c):
            raise ValueError(
                f"need 0 < sigma_b < sigma_c, got {self.sigma_b}, {self.sigma_c}"
            )


@dataclass(frozen=True)
class OverlapSet:
    """The twelve overlap integrals for one interaction kernel."""

    values: np.ndarray
    kernel: Kernel
    regime: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (12,):
            raise ValueError(f"expected 12 overlap values, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])

    @property
    def eta0(self) -> float:
        return float(self.values[0])

    @property
    def eta1(self) -> float:
        return float(self.values[1])

    @property
    def eta4(self) -> float:
        return float(self.values[4])


def _factor_pairs(basis: LinearBasis):
    """(f, g) integrand factors for eta0..eta11: eta = Int g * (R * f)."""
    pl, pr = basis.phi_left, basis.phi_right
    ll = pl * pl
    rr = pr * pr
    lr = pl * pr
    return (
        (ll, ll),  # eta0   cubic self
        (ll, rr),  # eta1   cubic cross
        (ll, lr),  # eta2   cubic one-mode exchange
        (lr, lr),  # eta3   cubic two-mode exchange
        (ll * ll, ll),  # eta4   quintic self
        (ll * ll, rr),  # eta5
        (ll * ll, lr),  # eta6
        (ll * rr, ll),  # eta7
        (ll * rr, lr),  # eta8
        (ll * lr, ll),  # eta9
        (ll * lr, rr),  # eta10
        (ll * lr, lr),  # eta11
    )


def compute_overlaps(basis: LinearBasis, kernel: Kernel) -> OverlapSet:
    """All twelve integrals, tagged with the regime their values select."""
    grid = basis.grid
    plan = ConvolutionPlan(kernel, grid)
    values = np.empty(12)
    for i, (f, g) in enumerate(_factor_pairs(basis)):
        values[i] = grid.integrate(g * plan.apply(f))
    cross_relevant = eta_rel(values, "eta1") >= RELEVANCE_CUTOFF
    quintic_relevant = eta_rel(values, "eta4") >= RELEVANCE_CUTOFF
    if cross_relevant and quintic_relevant:
        regime = CASE2
    elif cross_relevant:
        regime = CASE3
    else:
        regime = CASE1
    return OverlapSet(values=values, kernel=kernel, regime=regime)


def eta_rel(overlaps: OverlapSet | np.ndarray, which: str) -> float:
    """Relevance measure eta_i - max(|eta2|, |eta3|) for which in {eta1, eta4},
    of an OverlapSet or of its twelve values."""
    if which not in ("eta1", "eta4"):
        raise ValueError(f"which must be 'eta1' or 'eta4', got {which!r}")
    exchange = max(abs(overlaps[2]), abs(overlaps[3]))
    return float(overlaps[int(which[3:])] - exchange)


def bisect(holds, lo: float, hi: float, width: float) -> float:
    """Midpoint of the last bracket of a bisection of [lo, hi] down to `width`,
    for a test `holds` that is true at lo and false at hi."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_threshold(basis: LinearBasis, family: str, which: str) -> float:
    """Kernel range in [0.05, 25] where eta_rel(which) crosses RELEVANCE_CUTOFF,
    by bisection on its sign down to a 1e-6 bracket.

    eta1's measure increases with sigma (crossing gives sigma_b); eta4's
    decreases (crossing gives sigma_c).
    """

    def g(sigma: float) -> float:
        return eta_rel(compute_overlaps(basis, Kernel(family, sigma)), which) - RELEVANCE_CUTOFF

    lo, hi = 0.05, 25.0
    glo, ghi = g(lo), g(hi)
    if glo * ghi > 0:
        raise ValueError(
            f"eta_rel({which}) - {RELEVANCE_CUTOFF} does not change sign on "
            f"[{lo}, {hi}]: {glo:.3e}, {ghi:.3e}"
        )
    return bisect(lambda sigma: g(sigma) * glo > 0, lo, hi, 1e-6)


def recompute_thresholds(basis: LinearBasis, family: str) -> RegimeThresholds:
    """Bisect both regime boundaries for one kernel family."""
    sigma_b = find_threshold(basis, family, "eta1")
    sigma_c = find_threshold(basis, family, "eta4")
    return RegimeThresholds(sigma_b=sigma_b, sigma_c=sigma_c)

