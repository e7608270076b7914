"""Strain functions, convex profiles with p-growth, and the micro-potential catalog.

The nonlinear strain of order m maps the stretch t = |Dv| to (t^m - 1)/m.
Micro-potentials w(xi, s) = Psi(|xi|, s) are stored as the profile Psi with
its closed-form second derivative at s = 0, the interaction kernel of the
quadratic small-displacement energy, and the Hooke constants of their
small-strain regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


# --------------------------------------------------------------------------
# strain


def strain(m: float, t) -> np.ndarray | float:
    """Nonlinear strain s_m(t) = (t^m - 1) / m of a stretch t >= 0."""
    t = np.asarray(t, dtype=float)
    out = _strain(m, t, np.empty_like(t))
    return float(out) if out.ndim == 0 else out


def _strain(m: float, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`strain` of an array, written into ``out``."""
    if m < 1:
        raise ValueError("strain order m must be >= 1")
    if m == 1:
        return np.subtract(t, 1.0, out=out)  # t**1.0 / 1.0 is t exactly
    s = np.power(t, m, out=out)
    return np.divide(np.subtract(s, 1.0, out=s), m, out=s)


# --------------------------------------------------------------------------
# convex profiles Phi


@dataclass(frozen=True)
class Potential:
    """Nondecreasing convex profile Phi on [0, inf) with p-growth constants."""

    func: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    p: float
    C0: float
    C1: float
    smooth_at_zero: bool = field(init=False)  # Phi'(0) = 0, as F_n's gradient needs

    def __post_init__(self):
        object.__setattr__(self, "smooth_at_zero", bool(self.deriv(np.asarray(0.0)) == 0))

    def __call__(self, a) -> np.ndarray | float:
        a = np.asarray(a, dtype=float)
        out = self.func(a)
        return float(out) if np.ndim(out) == 0 else out

    def d(self, a) -> np.ndarray | float:
        a = np.asarray(a, dtype=float)
        out = self.deriv(a)
        return float(out) if np.ndim(out) == 0 else out


def power_potential(p: float, scale: float = 1.0) -> Potential:
    """Phi(a) = scale * a^p; satisfies both growth bounds with C0 = C1 = scale."""
    if p <= 1:
        raise ValueError("growth exponent p must exceed 1")
    return Potential(
        func=lambda a, s=scale, q=p: s * a**q,
        deriv=lambda a, s=scale, q=p: s * q * np.maximum(a, 0.0) ** (q - 1),
        p=p, C0=scale, C1=scale)


#: quartic St. Venant integrand (|Dv|^2 - 1)^2 expressed as Phi(|s_2|) with
#: Phi(t) = 4 t^2, since (t^2 - 1)^2 = 4 * s_2(t)^2.
def quartic_potential() -> Potential:
    return power_potential(2.0, scale=4.0)


# --------------------------------------------------------------------------
# micro-potentials w(xi, s) = Psi(|xi|, s)


@dataclass(frozen=True)
class MicroPotential:
    """Pairwise stored-energy density w(xi, s) = Psi(|xi|, s).

    ``psi`` is vectorized over (radii, strains); ``psi_ss0`` is the
    closed-form second derivative d2Psi/ds2(r, 0) as a function of radius,
    the interaction kernel of the quadratic small-displacement energy.
    ``c1``, ``c2``, ``delta0`` are the Hooke constants of the small-strain
    regime.
    """

    psi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    psi_ss0: Callable[[np.ndarray], np.ndarray]
    c1: float
    c2: float
    delta0: float

    def __call__(self, r, s) -> np.ndarray:
        return self.psi(r, s)


#: tags accepted by :func:`catalog_potential`, each with the parameters it reads
CATALOG_TAGS = {"mbm": ("s0", "c"), "mbm_smooth": ("c",), "modified_mbm": ("s0", "c"),
                "cohesive": (), "quartic": (), "two_well": ("s0",)}


def _constant(c: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda r: np.full_like(np.asarray(r, dtype=float), c)


def catalog_potential(tag: str, **params) -> MicroPotential:
    """Build a catalog micro-potential by tag, with its closed-form Psi''(r, 0).

    Tags: ``mbm`` (brittle, quadratic below a strain threshold s0),
    ``mbm_smooth`` (the unbroken quadratic branch), ``modified_mbm``
    (force weakens smoothly), ``cohesive`` (bounded profile f(r s^2) with
    f(x) = x / (1 + x)),
    ``quartic`` (stretch-quartic (t^2-1)^2 written in strain variables),
    ``two_well`` (wells at 0 and s0).  A parameter the tag does not read,
    as listed in :data:`CATALOG_TAGS`, raises ValueError.
    """
    if tag not in CATALOG_TAGS:
        raise ValueError(f"unknown catalog tag {tag!r}")
    for name in params:
        if name not in CATALOG_TAGS[tag]:
            raise ValueError(f"parameter {name!r} is not read by catalog tag {tag!r}")

    if tag == "mbm":
        s0 = params.get("s0", 0.1)
        c = params.get("c", 2.0)

        def psi(r, s):
            s = np.asarray(s, dtype=float)
            return np.where(s <= s0, 0.5 * c * s**2, 0.5 * c * s0**2)

        return MicroPotential(psi, _constant(c), c1=c / 2, c2=c, delta0=s0)

    if tag == "mbm_smooth":
        c = params.get("c", 2.0)

        def psi(r, s):
            return 0.5 * c * np.asarray(s, dtype=float) ** 2

        return MicroPotential(psi, _constant(c), c1=c / 2, c2=c, delta0=1.0)

    if tag == "modified_mbm":
        s0 = params.get("s0", 0.5)
        c = params.get("c", 2.0)

        def psi(r, s):
            s = np.asarray(s, dtype=float)
            return 0.5 * c * s0**2 * (1.0 - np.exp(-(s / s0) ** 2))

        return MicroPotential(psi, _constant(c), c1=c / 4, c2=c, delta0=s0 / 2)

    if tag == "cohesive":
        def psi(r, s):  # f(x) = x / (1 + x): bounded, concave, f(0) = 0, f'(0) = 1
            x = np.asarray(r, dtype=float) * np.asarray(s, dtype=float) ** 2
            return x / (1.0 + x)

        # d2/ds2 f(r s^2) at 0 = 2 r f'(0)
        return MicroPotential(psi, lambda r: 2.0 * np.asarray(r, dtype=float),
                              c1=0.25, c2=4.0, delta0=0.25)

    if tag == "quartic":
        # stretch form (t^2 - 1)^2 with t = 1 + s:  Psi(s) = ((1+s)^2 - 1)^2
        def psi(r, s):
            s = np.asarray(s, dtype=float)
            return (s * (s + 2.0)) ** 2

        return MicroPotential(psi, _constant(8.0), c1=2.0, c2=24.0, delta0=0.25)

    s0 = params.get("s0", 0.5)  # two_well

    def psi(r, s):
        s = np.asarray(s, dtype=float)
        return np.minimum(s**2, (s - s0) ** 2)

    return MicroPotential(psi, _constant(2.0), c1=1.0, c2=2.0, delta0=s0 / 2)
