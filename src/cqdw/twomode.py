"""Reduced two-mode model of the double well.

Projecting the field onto the left/right basis and keeping the
regime-relevant overlaps gives a planar Hamiltonian system for the
population imbalance z and relative phase theta:

    dz/dt     = 2 omega sqrt(1 - z^2) sin(theta)
    dtheta/dt = -2 omega z cos(theta)/sqrt(1 - z^2) - f(N) z
    f(N)      = s eta_z N + delta eta4 N^2

with eta_z = eta0 (case 1) or eta0 - eta1 (cases 2, 3). Everything
derivable from this system lives here: fixed points, the four critical
norms where asymmetric states appear or vanish, linearized stability,
parent-branch chemical potentials, and phase-plane orbit integration.

The field is odd under (z, theta) -> (-z, -theta) and H is even. An RK4 step
and its drift test use only +, *, /, an even cos, an odd sin and sqrt(1 - z^2),
all sign-symmetric under IEEE round-to-nearest, so the orbit from (-z0, -theta0)
is the negated orbit from (z0, theta0) bit for bit (an exact zero aside), with
the same H and halvings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import Kernel
from .overlaps import bisect, compute_overlaps

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
ASYMMETRIC = "asymmetric"

CENTER = "center"
SADDLE = "saddle"

SSB = "ssb"
RESTORING = "restoring"

# A state is only accepted as a fixed point if the vector field there is
# this small; asymmetric_z and the z=0 points satisfy it exactly.
FIXED_POINT_RESIDUAL_TOL = 1e-10

_HAMILTONIAN_DRIFT_TOL = 1e-8
_MAX_STEP_HALVINGS = 8


class TwoModeError(Exception):
    """Invalid two-mode parameters, states, or a failed orbit integration."""


@dataclass(frozen=True)
class ModeParams:
    """Coefficients of the reduced system.

    eta0, eta1, eta4 are stored already filtered by regime: case 1 sets
    eta1 = 0, case 3 sets eta4 = 0, so every formula below is uniform in
    the three cases. s and delta are the cubic/quintic signs, N the total
    norm, omega the tunneling half-splitting, Omega the mean mode energy.
    """

    s: int
    delta: int
    N: float
    eta0: float
    eta1: float
    eta4: float
    omega: float
    Omega: float

    def __post_init__(self):
        if not self.omega > 0:
            raise TwoModeError(f"omega must be positive, got {self.omega}")

    @property
    def eta_z(self) -> float:
        """Cubic coefficient of the imbalance dynamics (eta0 - eta1)."""
        return self.eta0 - self.eta1

    @property
    def eta_amp(self) -> float:
        """Cubic coefficient of the equal-amplitude branches (eta0 + eta1)."""
        return self.eta0 + self.eta1

    @property
    def omega0(self) -> float:
        return self.Omega - self.omega

    @property
    def omega1(self) -> float:
        return self.Omega + self.omega

    def coupling(self, N: float | None = None) -> float:
        """f(N) = s eta_z N + delta eta4 N^2, the nonlinear imbalance force."""
        n = self.N if N is None else N
        return self.s * self.eta_z * n + self.delta * self.eta4 * n * n

    @classmethod
    def from_overlaps(cls, overlaps, basis, s: int, delta: int, N: float) -> "ModeParams":
        """Build params from an OverlapSet and LinearBasis, applying the
        regime filter (case 1 drops eta1, case 3 drops eta4)."""
        regime = overlaps.regime
        eta1 = 0.0 if regime == "case1" else overlaps.eta1
        eta4 = 0.0 if regime == "case3" else overlaps.eta4
        return cls(s=s, delta=delta, N=N, eta0=overlaps.eta0, eta1=eta1,
                   eta4=eta4, omega=basis.omega, Omega=basis.Omega)


@dataclass(frozen=True)
class TwoModeState:
    z: float
    theta: float

    def __post_init__(self):
        if abs(self.z) > 1:
            raise TwoModeError(f"|z| <= 1 required, got z={self.z}")


@dataclass(frozen=True)
class FixedPoint:
    state: TwoModeState
    family: str
    stability: str
    lambda_sq: float


@dataclass(frozen=True)
class CriticalNorms:
    """Norms where asymmetric fixed points appear or disappear.

    {n0, n1} are the symmetric-parent events (f = -2 omega) and {n2, n3}
    the antisymmetric-parent events (f = +2 omega), each sorted ascending;
    complex or non-positive roots are reported as None.
    """

    n0: float | None
    n1: float | None
    n2: float | None
    n3: float | None

    def __post_init__(self):
        for lo, hi in ((self.n0, self.n1), (self.n2, self.n3)):
            if lo is not None and hi is not None and lo > hi:
                raise TwoModeError("critical norm pairs must be ascending")

    def present(self) -> dict[str, float]:
        labels = ("n0", "n1", "n2", "n3")
        return {k: v for k, v in zip(labels, (self.n0, self.n1, self.n2, self.n3))
                if v is not None}


@dataclass(frozen=True)
class BifurcationPrediction:
    """One predicted pitchfork: parent family, event kind, norm, and the
    parent-branch chemical potential at that norm."""

    family: str
    kind: str
    norm: float
    mu: float


@dataclass(frozen=True)
class Orbit:
    t: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    hamiltonian: np.ndarray
    dt: float
    halvings: int


def _rim_error(z: float) -> TwoModeError:
    return TwoModeError(f"theta equation is singular at |z| = 1 (z = {z})")


def reduced_rhs(state: TwoModeState, p: ModeParams) -> tuple[float, float]:
    """(dz/dt, dtheta/dt) of the reduced system."""
    z, omega, f = state.z, p.omega, p.coupling()
    if abs(z) >= 1:
        raise _rim_error(z)
    root = math.sqrt(1 - z * z)
    return 2 * omega * root * math.sin(state.theta), \
        -2 * omega * z * math.cos(state.theta) / root - f * z


def hamiltonian(state: TwoModeState, p: ModeParams) -> float:
    """H = 2 omega sqrt(1-z^2) cos(theta) - (1/2) f(N) z^2."""
    z = state.z
    return 2 * p.omega * math.sqrt(1 - z * z) * math.cos(state.theta) - 0.5 * p.coupling() * z * z


def asymmetric_z(p: ModeParams) -> list[TwoModeState]:
    """The pair of asymmetric fixed points, empty when z^2 < 0.

    z^2 = 1 - 4 omega^2 / f(N)^2; the states sit at theta = pi when
    f > 0 (antisymmetric parent) and theta = 0 when f < 0 (symmetric
    parent), which is the attachment consistent with the lambda^2 signs.
    """
    f = p.coupling()
    if f == 0 or abs(f) < 2 * p.omega:
        return []
    z_sq = 1 - 4 * p.omega ** 2 / (f * f)
    z = math.sqrt(max(z_sq, 0.0))
    theta = math.pi if f > 0 else 0.0
    return [TwoModeState(z, theta), TwoModeState(-z, theta)]


def _ascending_pair(quad: tuple[float, float, float]) -> tuple[float | None, float | None]:
    a, b, c = quad
    if a == 0.0:
        if b == 0.0:
            return None, None
        root = -c / b
        return (root if root > 0 else None), None
    roots = np.roots([a, b, c])
    cleaned = []
    for r in roots:
        if abs(r.imag) > 1e-12 * max(1.0, abs(r.real)):
            return None, None
        cleaned.append(float(r.real))
    lo, hi = sorted(cleaned)
    return (lo if lo > 0 else None), (hi if hi > 0 else None)


def critical_norms(p: ModeParams) -> CriticalNorms:
    """Solve f(N) = -2 omega for {n0, n1} and f(N) = +2 omega for {n2, n3}.

    Keeps the sign bookkeeping out of callers: negative and complex roots
    come back as None. In case 3 (eta4 = 0) each quadratic degenerates to
    the single root N = -+2 omega/(s eta_z).
    """
    a = p.delta * p.eta4
    b = p.s * p.eta_z
    sym_lo, sym_hi = _ascending_pair((a, b, 2 * p.omega))
    anti_lo, anti_hi = _ascending_pair((a, b, -2 * p.omega))
    # a negative root is absent, not clipped; _ascending_pair already drops it
    return CriticalNorms(n0=sym_lo, n1=sym_hi, n2=anti_lo, n3=anti_hi)


def coalescence_sigma(basis, family: str, s: int, delta: int,
                      lo: float, hi: float) -> float | None:
    """Kernel range where the antisymmetric critical pair {n2, n3} ceases.

    Bisects on [lo, hi] down to a 1e-4 bracket and returns its midpoint, or
    None when the pair does not exist at lo or still exists at hi.
    """

    def pair_exists(sigma: float) -> bool:
        ov = compute_overlaps(basis, Kernel(family, sigma))
        crit = critical_norms(ModeParams.from_overlaps(ov, basis, s, delta, 1.0))
        return crit.n2 is not None and crit.n3 is not None

    if not pair_exists(lo) or pair_exists(hi):
        return None
    return bisect(pair_exists, lo, hi, 1e-4)


def _classify_state(state: TwoModeState) -> str:
    if state.z == 0.0:
        phase = math.cos(state.theta)
        if phase > 0.5:
            return SYMMETRIC
        if phase < -0.5:
            return ANTISYMMETRIC
        raise TwoModeError(f"z = 0 fixed point needs theta near 0 or pi, got {state.theta}")
    return ASYMMETRIC


def fixed_point_stability(state: TwoModeState, p: ModeParams) -> FixedPoint:
    """Linearized eigenvalue-squared of a fixed point and its type.

    symmetric:      lambda^2 = -4 omega^2 - 2 omega f(N)
    antisymmetric:  lambda^2 = +2 omega f(N) - 4 omega^2
    asymmetric:     lambda^2 = 4 omega^2 - f(N)^2  (= -f^2 z0^2 <= 0)
    """
    res = reduced_rhs(state, p)
    if max(abs(res[0]), abs(res[1])) > FIXED_POINT_RESIDUAL_TOL:
        raise TwoModeError(
            f"not a fixed point: |rhs| = {max(abs(res[0]), abs(res[1])):.3e}")
    family = _classify_state(state)
    f = p.coupling()
    if family == SYMMETRIC:
        lam_sq = -4 * p.omega ** 2 - 2 * p.omega * f
    elif family == ANTISYMMETRIC:
        lam_sq = 2 * p.omega * f - 4 * p.omega ** 2
    else:
        lam_sq = 4 * p.omega ** 2 - f * f
    stability = SADDLE if lam_sq > 0 else CENTER
    return FixedPoint(state=state, family=family, stability=stability,
                      lambda_sq=lam_sq)


def fixed_point_census(p: ModeParams) -> list[FixedPoint]:
    """All fixed points on the theta = 0, pi sections at this norm."""
    points = [TwoModeState(0.0, 0.0), TwoModeState(0.0, math.pi)]
    points.extend(asymmetric_z(p))
    return [fixed_point_stability(s, p) for s in points]


def parent_mu(p: ModeParams, family: str, N: float | None = None) -> float:
    """Chemical potential of an equal-amplitude parent branch at norm N:
    mu = omega_parent + s eta_amp N/2 + delta eta4 N^2/4."""
    if family not in (SYMMETRIC, ANTISYMMETRIC):
        raise TwoModeError(f"parent family must be symmetric or antisymmetric, got {family}")
    n = p.N if N is None else N
    base = p.omega0 if family == SYMMETRIC else p.omega1
    return base + p.s * p.eta_amp * n / 2 + p.delta * p.eta4 * n * n / 4


def predicted_bifurcations(p: ModeParams) -> list[BifurcationPrediction]:
    """Pitchforks of the parent branches implied by the critical norms,
    each mapped to the parent-branch chemical potential."""
    norms = critical_norms(p)
    out = []
    for pair, family in (((norms.n0, norms.n1), SYMMETRIC),
                         ((norms.n2, norms.n3), ANTISYMMETRIC)):
        lo, hi = pair
        if lo is not None and hi is not None:
            out.append(BifurcationPrediction(family, SSB, lo, parent_mu(p, family, lo)))
            out.append(BifurcationPrediction(family, RESTORING, hi, parent_mu(p, family, hi)))
        elif (lo is None) != (hi is None):
            n = lo if lo is not None else hi
            out.append(BifurcationPrediction(family, SSB, n, parent_mu(p, family, n)))
    return sorted(out, key=lambda b: b.norm)


def integrate_orbit(initial: TwoModeState, p: ModeParams, t_end: float,
                    dt: float = 1e-2) -> Orbit:
    """Fixed-step RK4 orbit with a Hamiltonian drift monitor.

    The step is halved and the run restarted whenever the relative drift
    exceeds 1e-8, and Orbit.halvings counts those restarts; hitting the
    |z| = 1 singularity aborts with a diagnostic. Orbit.hamiltonian holds the
    drift monitor's own values, H at every step. A start that one step maps
    onto itself bit for bit (a fixed point) has its orbit filled at once.
    """
    if abs(initial.z) >= 1:
        raise TwoModeError("orbit must start with |z| < 1")
    omega, f = p.omega, p.coupling()
    # reduced_rhs and hamiltonian inlined for speed, term for term in their
    # order, so every value keeps its rounding (a test pins this bit for bit)
    sqrt, sin, cos = math.sqrt, math.sin, math.cos
    w2, hf = 2 * omega, 0.5 * f
    z0, theta0 = float(initial.z), float(initial.theta)
    h_ref = w2 * sqrt(1 - z0 * z0) * cos(theta0) - hf * z0 * z0
    tol = _HAMILTONIAN_DRIFT_TOL * max(abs(h_ref), 2 * omega)
    step = dt
    for halvings in range(_MAX_STEP_HALVINGS + 1):
        n_steps = max(1, int(round(t_end / step)))
        ts = np.linspace(0.0, n_steps * step, n_steps + 1)
        zs, thetas, hs = np.empty((3, n_steps + 1))
        zs[0], thetas[0], hs[0] = z0, theta0, h_ref
        z_out, theta_out, h_out = memoryview(zs), memoryview(thetas), memoryview(hs)
        z, theta, half = z0, theta0, 0.5 * step
        for i in range(1, n_steps + 1):
            # |z| < 1 holds at the start and after each step; a later stage at
            # |zk| > 1 fails in its sqrt, and one at |zk| = 1 in its division
            try:
                root = sqrt(1 - z * z)
                k1z, k1t = w2 * root * sin(theta), -w2 * z * cos(theta) / root - f * z
                zk, tk = z + half * k1z, theta + half * k1t
                root = sqrt(1 - zk * zk)
                k2z, k2t = w2 * root * sin(tk), -w2 * zk * cos(tk) / root - f * zk
                zk, tk = z + half * k2z, theta + half * k2t
                root = sqrt(1 - zk * zk)
                k3z, k3t = w2 * root * sin(tk), -w2 * zk * cos(tk) / root - f * zk
                zk, tk = z + step * k3z, theta + step * k3t
                root = sqrt(1 - zk * zk)
                k4z, k4t = w2 * root * sin(tk), -w2 * zk * cos(tk) / root - f * zk
            except (ValueError, ZeroDivisionError):
                cause = _rim_error(zk)
                raise TwoModeError(
                    f"orbit reached the |z| = 1 singularity near t = {ts[i - 1]:.4g}: {cause}"
                ) from cause
            z = z + step * (k1z + 2 * k2z + 2 * k3z + k4z) / 6
            theta = theta + step * (k1t + 2 * k2t + 2 * k3t + k4t) / 6
            if abs(z) >= 1:
                raise TwoModeError(f"orbit reached |z| = 1 at t = {ts[i]:.4g}")
            h = w2 * sqrt(1 - z * z) * cos(theta) - hf * z * z
            if not abs(h - h_ref) <= tol:  # a NaN drift fails too
                break
            z_out[i], theta_out[i], h_out[i] = z, theta, h
            if i == 1 and (z.hex(), theta.hex()) == (z0.hex(), theta0.hex()):
                zs[:], thetas[:], hs[:] = z0, theta0, h
                return Orbit(t=ts, z=zs, theta=thetas, hamiltonian=hs, dt=step,
                             halvings=halvings)
        else:
            return Orbit(t=ts, z=zs, theta=thetas, hamiltonian=hs, dt=step,
                         halvings=halvings)
        step *= 0.5
    raise TwoModeError(
        f"Hamiltonian drift above {_HAMILTONIAN_DRIFT_TOL} even at dt = {step}")
