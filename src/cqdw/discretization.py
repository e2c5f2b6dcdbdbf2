"""Uniform grid, double-well potential, and nonlocal interaction kernels.

Everything downstream (eigenmodes, overlap integrals, Newton continuation,
time propagation) lives on one uniform symmetric grid. Convolutions are
zero-padded linear convolutions: the parabolic trap makes the problem
non-periodic, so periodic wrap-around is never allowed. With zero padding the
trapezoid rule on the whole line reduces to a plain dx-weighted sum.
`ConvolutionPlan` computes it by one of two routes, picked from the kernel's
reach: a direct sum over the kernel's nonzero samples (np.convolve) when
they span at most n offsets, as Gaussian sigma = 1 does on the default grid,
and numpy.fft (pocketfft's C++ core from numpy 2.0) at an 11-smooth length
for wider kernels.

A field on the grid is a plain 1-D array of its n_points values; the grid
comes from the object that owns the field (a StationaryProblem or a
LinearBasis). Parity lives here too: `reflect`, `parity_residuals` and the
even and odd `ReflectionSector` folds that the linear spectrum, the Newton
solves and the BdG spectra split onto.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"
KERNEL_FAMILIES = (GAUSSIAN, EXPONENTIAL)


class DiscretizationError(ValueError):
    """Raised for an invalid grid or kernel family."""


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid on [-half_width, half_width], always containing 0."""

    half_width: float
    spacing: float

    @property
    def n_points(self) -> int:
        return 2 * int(round(self.half_width / self.spacing)) + 1

    @property
    def points(self) -> np.ndarray:
        m = int(round(self.half_width / self.spacing))
        return self.spacing * np.arange(-m, m + 1)

    @property
    def center_index(self) -> int:
        return self.n_points // 2

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights for integrals over the box."""
        w = np.full(self.n_points, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w

    def integrate(self, values: np.ndarray) -> float | complex:
        return np.trapezoid(values, dx=self.spacing, axis=-1)

    def inner(self, f: np.ndarray, g: np.ndarray) -> float | complex:
        """L2 inner product <f, g> with the quadrature weights."""
        return self.integrate(np.conj(f) * g)

    def norm_sq(self, f: np.ndarray) -> float:
        return float(np.real(self.integrate(np.abs(f) ** 2)))


def whole_multiple(value: float, unit: float) -> bool:
    """value = k * unit for a whole k >= 1, to within 1e-9 of value / unit.

    The one test of a grid against its spacing and of a time cadence against
    its step, shared by `build_grid` and `config.validate_config`.
    """
    ratio = value / unit
    if not math.isfinite(ratio):
        return False
    k = round(ratio)
    return k >= 1 and abs(ratio - k) <= 1e-9 * ratio


def field_rule(test, says: str, each: bool = False) -> dict:
    """Metadata of a config field that carries a templated rule, as
    `config.validate_config` applies it: a value v (each entry of it, when
    `each`) that fails `test` gives the message `<path>: says.format(v)`.
    It is here, below `config`, because `PotentialParams` states its rules too.
    """
    return {"rule": (test, says, each)}


POSITIVE = field_rule(lambda v: v > 0, "must be positive, got {}")
NON_NEGATIVE = field_rule(lambda v: v >= 0, "must be >= 0, got {}")  # NaN fails too


def build_grid(half_width: float, spacing: float) -> Grid:
    """Validate and build the symmetric uniform grid.

    half_width must be a whole multiple of spacing so that x = 0 is a grid
    point (the parity machinery relies on it); the grid then has at least
    3 points. `validate_config` states the same rules for every run; these
    checks guard callers that build a grid directly.
    """
    if not (half_width > 0.0) or not (spacing > 0.0):
        raise DiscretizationError(
            f"half_width and spacing must be positive, got {half_width}, {spacing}"
        )
    if not whole_multiple(half_width, spacing):
        raise DiscretizationError(
            f"half_width {half_width} is not a whole multiple of spacing {spacing}"
        )
    return Grid(half_width=float(half_width), spacing=float(spacing))


# --- potential ---------------------------------------------------------------


@dataclass(frozen=True)
class PotentialParams:
    """Double well: parabolic trap of frequency `trap_frequency` plus a
    sech^2 barrier of height `barrier_height` and width `barrier_width`.
    It is also the `potential` section of `RunConfig`, defaults and rules
    included."""

    trap_frequency: float = field(default=0.1, metadata=NON_NEGATIVE)
    barrier_height: float = field(default=1.0, metadata=NON_NEGATIVE)
    barrier_width: float = field(default=0.5, metadata=POSITIVE)


def potential_profile(grid: Grid, params: PotentialParams) -> np.ndarray:
    """V(x) = (1/2) trap_frequency^2 x^2 + barrier_height sech^2(x / barrier_width)."""
    x = grid.points
    barrier = params.barrier_height / np.cosh(x / params.barrier_width) ** 2
    return 0.5 * params.trap_frequency**2 * x**2 + barrier


# --- kernels ------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """Unit-mass even interaction kernel.

    family is one of "gaussian", "exponential"; `range_` is the width
    parameter sigma > 0. The family is checked here because `kernel_eval`
    would read any other name as exponential.
    """

    family: str
    range_: float

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise DiscretizationError(
                f"unknown kernel family {self.family!r}, expected one of {KERNEL_FAMILIES}"
            )


def kernel_eval(kernel: Kernel, x: np.ndarray) -> np.ndarray:
    """Pointwise kernel density."""
    x = np.asarray(x, dtype=float)
    s = kernel.range_
    if kernel.family == GAUSSIAN:
        return np.exp(-((x / s) ** 2)) / (s * math.sqrt(math.pi))
    return np.exp(-np.abs(x) / s) / (2.0 * s)


def kernel_samples(kernel: Kernel, grid: Grid) -> np.ndarray:
    """Kernel sampled on all pairwise offsets m*dx, m = -(n-1)..(n-1).

    Samples below eps^2 times the peak are set to exactly 0. A wide Gaussian
    tail underflows to subnormal floats (sigma = 1 does past |x| ~ 26.6), and
    subnormals in the kernel matrix and its LU fill-in slow a dense solve
    about 3x. The FFT route cannot resolve those values either: its absolute
    error is already about eps * max|R|. The cut also sets the kernel's
    reach, the largest offset with a nonzero sample (8.4 at sigma = 1), from
    which `ConvolutionPlan` picks its route.
    """
    n = grid.n_points
    offsets = grid.spacing * np.arange(-(n - 1), n)
    samples = kernel_eval(kernel, offsets)
    samples[samples < np.finfo(float).eps ** 2 * samples.max()] = 0.0
    return samples


def kernel_matrix(kernel: Kernel, grid: Grid) -> np.ndarray:
    """Dense quadrature matrix K[i, j] = R(x_i - x_j) dx.

    Applying K to sampled values is the same zero-padded discrete convolution
    the FFT route computes; the matrix form is what the Newton and BdG
    Jacobians need.
    """
    samples = kernel_samples(kernel, grid) * grid.spacing
    # K[i, j] = samples[n-1+i-j] dx of the even samples: a read-only view of
    # them, with no n x n array behind it
    return sliding_window_view(samples, grid.n_points)[:, ::-1]


def _next_fast_len(target: int) -> int:
    """Smallest n >= target whose only prime factors are 2, 3, 5, 7 and 11,
    the lengths pocketfft transforms fastest."""
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class ConvolutionPlan:
    """Cached plan for repeated convolutions with one kernel on one grid.

    The kernel's reach r is the largest offset m whose sample m dx survives
    the eps^2 cut of `kernel_samples` (84 for Gaussian sigma = 1 at dx = 0.1).
    The plan takes one of two routes to the same dx-weighted sum, picked from
    the reach alone:

    - direct, when 2r + 1 <= n: the field is copied into a zero-padded buffer
      of n + 2r values and np.convolve sums it against the 2r + 1 taps
      (samples times dx) in "valid" mode, which keeps exactly the n outputs.
      Each output reads only its own 2r + 1 neighbours, so the sum is the
      linear convolution by construction and no wrap-around can occur. It
      costs n (2r + 1) multiply-adds, about 0.6 of the FFT route's time at
      sigma = 1 and n = 401, and the two meet near 2r + 1 = n.
    - FFT, for wider kernels: the samples span the 2n - 1 offsets
      -(n-1)..(n-1) and the field its n points, so their linear convolution
      has 3n - 2 entries, of which only the middle n (indices n-1..2n-2) are
      kept. A cyclic convolution of length L folds entry k + L onto k; for
      every kept k the partner k + L lies past the last entry 3n - 3 once
      L >= 2n - 1, and k - L is negative. So the FFT length is the smallest
      11-smooth L >= 2n - 1 (810 at n = 401): the kept outputs see no
      wrap-around, and the discarded ones are free to. The transforms are
      numpy.fft.rfft / irfft at that length; only this route loads numpy.fft.

    The plan owns its scratch arrays (the padded field, or the spectrum and
    the length-L result), which `apply` fills in place. It returns a fresh
    array, so no caller ever holds the scratch, and a plan serves one call at
    a time. The values are real: a complex array raises TypeError, in the
    same_kind copy of the direct route and in rfft.
    """

    def __init__(self, kernel: Kernel, grid: Grid):
        self.kernel = kernel
        self.grid = grid
        self.n = grid.n_points
        samples = kernel_samples(kernel, grid)
        reach = self.n - 1 - int(np.flatnonzero(samples)[0])
        self.direct = 2 * reach + 1 <= self.n
        if self.direct:
            self._taps = samples[self.n - 1 - reach : self.n + reach] * grid.spacing
            self._padded = np.zeros(self.n + 2 * reach)
            self._field = self._padded[reach : reach + self.n]
            return
        self._size = _next_fast_len(2 * self.n - 1)
        self._kernel_hat = np.fft.rfft(samples, self._size)
        self._spectrum = np.empty_like(self._kernel_hat)
        self._full = np.empty(self._size)

    def apply(self, values: np.ndarray) -> np.ndarray:
        if self.direct:
            np.copyto(self._field, values, casting="same_kind")
            return np.convolve(self._padded, self._taps, "valid")
        fhat = np.fft.rfft(values, self._size, out=self._spectrum)
        np.multiply(fhat, self._kernel_hat, out=fhat)
        full = np.fft.irfft(fhat, self._size, out=self._full)
        return full[self.n - 1 : 2 * self.n - 1] * self.grid.spacing


# --- parity helpers -----------------------------------------------------------


def reflect(values: np.ndarray) -> np.ndarray:
    """Parity image f(-x) on the symmetric grid."""
    return values[::-1]


def parity_residuals(grid: Grid, values: np.ndarray) -> tuple[float, float]:
    """Relative distances to the even and odd subspaces: (r_even, r_odd)."""
    scale = math.sqrt(grid.norm_sq(values))
    if scale == 0.0:
        return 0.0, 0.0
    mirrored = reflect(values)
    r_even = math.sqrt(grid.norm_sq(values - mirrored)) / (2.0 * scale)
    r_odd = math.sqrt(grid.norm_sq(values + mirrored)) / (2.0 * scale)
    return r_even, r_odd


@dataclass(frozen=True)
class ReflectionSector:
    """Even or odd reflection subspace of the symmetric grid.

    Its orthonormal coordinate basis B pairs x_i with x_{n-1-i}, columns
    (e_i +- e_{n-1-i}) / sqrt(2) for i < n // 2, plus the centre e_{n // 2}
    in the even sector.  Restriction and lifting work by index, without
    forming B.
    """

    parity: str
    n: int

    def fold(self, matrix: np.ndarray) -> np.ndarray:
        """B.T @ matrix @ B.

        Entry (i, j) with i, j < n // 2 is (M[i,j] +- M[i,n-1-j] +- M[n-1-i,j]
        + M[n-1-i,n-1-j]) / 2; the even sector adds the centre row and column.
        """
        m = self.n // 2
        sign = 1.0 if self.parity == "even" else -1.0
        rows = matrix[:m] + sign * matrix[::-1][:m]
        core = 0.5 * (rows[:, :m] + sign * rows[:, ::-1][:, :m])
        if self.parity == "odd":
            return core
        inv = math.sqrt(0.5)
        column = inv * rows[:, m:m + 1]
        row = inv * (matrix[m:m + 1, :m] + matrix[m:m + 1, ::-1][:, :m])
        return np.block([[core, column], [row, matrix[m:m + 1, m:m + 1]]])

    def restrict(self, vector: np.ndarray) -> np.ndarray:
        """B.T @ vector: grid values to sector coordinates, the transpose of lift."""
        m = self.n // 2
        sign = 1.0 if self.parity == "even" else -1.0
        out = math.sqrt(0.5) * (vector[:m] + sign * vector[::-1][:m])
        if self.parity == "even":
            out = np.append(out, vector[m])
        return out

    def lift(self, vector: np.ndarray) -> np.ndarray:
        """B @ vector: sector coordinates back to grid values, exact mirror images."""
        m = self.n // 2
        sign = 1.0 if self.parity == "even" else -1.0
        half = math.sqrt(0.5) * vector[:m]
        out = np.zeros(self.n, dtype=vector.dtype)
        out[:m] = half
        out[self.n - m:] = sign * half[::-1]
        if self.parity == "even":
            out[m] = vector[m]
        return out

    def project(self, vector: np.ndarray) -> np.ndarray:
        """B @ B.T @ vector, the component of this parity; exact on a member."""
        sign = 1.0 if self.parity == "even" else -1.0
        return 0.5 * (vector + sign * reflect(vector))
