"""Radial localizing kernels and their rescalings.

A kernel here is a nonnegative radial profile rho with compact support and
unit mass; sequences of kernels concentrating at the origin drive the
localization (vanishing-horizon) limit.  The fractional family is implemented
with the *negative* exponent -(d + s*p - p), which is the singular, localizing
convention; see the project notes for the sign discrepancy in the source of
the positive-exponent form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: surface area of the unit sphere S^{d-1}
SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}

#: relative size of the dyadic piece that ends an integral down to r = 0, and
#: the most dyadic annuli one integral takes
_RTOL = 1e-9
_MAX_LEVELS = 200


def radial_integral(f, r_min: float, r_max: float, d: int) -> float:
    """Integrate ``f(r) * |S^{d-1}| * r^(d-1)`` over (r_min, r_max).

    Composite Gauss-Legendre on dyadic annuli toward r_min handles integrable
    singularities at the inner edge.
    """
    if r_max <= r_min:
        return 0.0
    from numpy.polynomial.legendre import leggauss  # here: it loads numpy.polynomial
    x, w = leggauss(32)
    total = 0.0
    pieces = []
    hi = r_max
    for _ in range(_MAX_LEVELS):
        lo = max(r_min, hi / 2.0)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        r = mid + half * x
        piece = half * np.dot(w, f(r) * r ** (d - 1)) * SPHERE_AREA[d]
        total += piece
        pieces.append(piece)
        if lo <= r_min * (1 + 1e-15) and r_min > 0.0:
            break
        if r_min == 0.0 and lo < 1e-12 * r_max and (
                abs(piece) < _RTOL * max(abs(total), 1e-300) or len(pieces) >= 3):
            break
        hi = lo
        if hi <= r_min:
            break
    # near-power-law profiles make the dyadic pieces geometric; complete the
    # remaining tail by the geometric sum when the ratios have stabilized
    if r_min == 0.0 and len(pieces) >= 3 and pieces[-2] > 0 and pieces[-3] > 0:
        q1 = pieces[-1] / pieces[-2]
        q2 = pieces[-2] / pieces[-3]
        if 0.0 < q1 < 0.999 and abs(q1 - q2) < 5e-3 * max(q1, 1e-3):
            total += pieces[-1] * q1 / (1.0 - q1)
    return total


@dataclass(frozen=True)
class Kernel:
    """A normalized radial kernel rho with compact support.

    ``profile`` maps radii (array, strictly positive) to kernel values inside
    the support; evaluation through :meth:`__call__` clips to the support and
    never touches r = 0.
    """

    dim: int
    profile: Callable[[np.ndarray], np.ndarray]
    support_radius: float

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r > 0) & (r <= self.support_radius)
        if np.any(inside):
            out[inside] = self.profile(r[inside])
        return out

    def mass(self) -> float:
        """Numerical mass integral of rho over R^d."""
        return radial_integral(self.profile, 0.0, self.support_radius, self.dim)


def box_kernel(d: int) -> Kernel:
    """Indicator kernel: constant on the unit ball, normalized to unit mass."""
    c = 1.0 / (SPHERE_AREA[d] / d)  # one over the volume of the unit ball
    return Kernel(d, lambda r: np.full_like(r, c), 1.0)


def make_rescaled(base: Kernel, delta: float) -> Kernel:
    """The rescaled kernel rho_delta(r) = delta^-d * base(r / delta).

    Mass is preserved exactly by the change of variables.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    d = base.dim
    prof = base.profile

    def profile(r):
        return prof(r / delta) / delta**d

    return Kernel(d, profile, support_radius=delta * base.support_radius)


def make_fractional(d: int, s: float, p: float) -> Kernel:
    """Fractional-type kernel C (1-s) r^-(d + s p - p) on the unit ball.

    The singularity exponent beta = d + s p - p stays below d for s in
    (0, 1), so the kernel is integrable.  The
    normalization is closed-form: the radial mass integral is
    |S^{d-1}| * C * (1-s) / (p (1-s)), so C = p / |S^{d-1}|.
    """
    if not (0.0 < s < 1.0):
        raise ValueError("s must lie in (0, 1)")
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    beta = d + s * p - p
    c = p / SPHERE_AREA[d]

    def profile(r, _c=c * (1.0 - s), _b=beta):
        return _c * r ** (-_b)

    return Kernel(d, profile, 1.0)


@dataclass(frozen=True)
class KernelSequence:
    """A localizing family n -> rho_n."""

    generator: Callable[[int], Kernel]

    def __getitem__(self, n: int) -> Kernel:
        return self.generator(n)


def box_sequence(d: int, delta_law=lambda n: 1.0 / n) -> KernelSequence:
    """rho_n = the unit box kernel rescaled to the horizon delta_law(n)."""
    base = box_kernel(d)
    return KernelSequence(lambda n: make_rescaled(base, delta_law(n)))
