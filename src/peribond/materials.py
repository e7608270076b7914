"""Strain functions, convex profiles with p-growth, and the micro-potential catalog.

The nonlinear strain of order m maps the stretch t = |Dv| to (t^m - 1)/m.
Micro-potentials w(xi, s) = k(xi) * Psi(xi, s) are stored as radial weight
plus profile; a conformance report records which of the structural conditions
(zero at rest, vanishing force at rest, Hooke lower bound, bounded curvature,
positivity away from rest) each catalog entry satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


# --------------------------------------------------------------------------
# strain


def strain(m: float, t) -> np.ndarray | float:
    """Nonlinear strain s_m(t) = (t^m - 1) / m of a stretch t >= 0."""
    if m < 1:
        raise ValueError("strain order m must be >= 1")
    t = np.asarray(t, dtype=float)
    out = t - 1.0 if m == 1 else (t**m - 1.0) / m  # t**1.0 / 1.0 is t exactly
    return float(out) if out.ndim == 0 else out


def strain_taylor(m: float, nu: np.ndarray, zeta: np.ndarray, eps: float):
    """Split s_m(|nu + eps*zeta|) into its linear part and scaled remainder.

    Returns ``(eps * nu.zeta, psi)`` where the full strain equals
    ``eps * nu.zeta + eps**2 * psi``.  At eps = 0 the remainder limit
    (|zeta|^2 + (m - 2) (nu.zeta)^2) / 2 is returned.
    """
    nu = np.asarray(nu, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise ValueError("nu must be a unit vector")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    a = float(nu @ zeta)
    linear = eps * a
    if eps == 0.0:
        psi = 0.5 * (float(zeta @ zeta) + (m - 2.0) * a * a)
        return 0.0, psi
    t = np.linalg.norm(nu + eps * zeta)
    s = strain(m, t)
    return linear, (s - linear) / eps**2


# --------------------------------------------------------------------------
# convex profiles Phi


@dataclass(frozen=True)
class Potential:
    """Nondecreasing convex profile Phi on [0, inf) with p-growth constants."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    p: float
    C0: float
    C1: float
    smooth_at_zero: bool = True
    params: dict = field(default_factory=dict)

    def __call__(self, a) -> np.ndarray | float:
        a = np.asarray(a, dtype=float)
        out = self.func(a)
        return float(out) if np.ndim(out) == 0 else out

    def d(self, a) -> np.ndarray | float:
        a = np.asarray(a, dtype=float)
        out = self.deriv(a)
        return float(out) if np.ndim(out) == 0 else out

    def check_growth(self, n_samples: int = 200) -> bool:
        """Sampled check of C0 (a^p - 1) <= Phi(a) <= C1 (1 + a^p)."""
        a = np.logspace(-3, 3, n_samples)
        phi = self.func(a)
        lower = self.C0 * (a**self.p - 1.0)
        upper = self.C1 * (1.0 + a**self.p)
        slack = 1e-12 * (1.0 + np.abs(phi))
        return bool(np.all(phi >= lower - slack) and np.all(phi <= upper + slack))

    def check_convex(self, n_samples: int = 400) -> bool:
        a = np.linspace(0.0, 8.0, n_samples)
        phi = self.func(a)
        d2 = np.diff(phi, 2)
        return bool(np.all(d2 >= -1e-10 * (1.0 + np.abs(phi[1:-1]))))


def power_potential(p: float, scale: float = 1.0) -> Potential:
    """Phi(a) = scale * a^p; satisfies both growth bounds with C0 = C1 = scale."""
    if p <= 1:
        raise ValueError("growth exponent p must exceed 1")
    return Potential(
        name=f"power(p={p}, scale={scale})",
        func=lambda a, s=scale, q=p: s * a**q,
        deriv=lambda a, s=scale, q=p: s * q * np.maximum(a, 0.0) ** (q - 1),
        p=p, C0=scale, C1=scale,
        smooth_at_zero=True,
        params={"p": p, "scale": scale},
    )


def huber_power(p: float, a0: float) -> Potential:
    """Power profile continued linearly past a0 (convex, but with no valid
    p-growth lower constant; C0 = 0 records that)."""
    base = power_potential(p)
    phi0, d0 = base(a0), base.d(a0)

    def func(a):
        a = np.asarray(a, dtype=float)
        return np.where(a <= a0, a**p, phi0 + d0 * (a - a0))

    def deriv(a):
        a = np.asarray(a, dtype=float)
        return np.where(a <= a0, p * np.maximum(a, 0.0) ** (p - 1), d0)

    return Potential(f"huber(p={p}, a0={a0})", func, deriv, p, 0.0, 1.0 + phi0,
                     params={"p": p, "a0": a0})


def tabulated_potential(a: np.ndarray, phi: np.ndarray, p: float,
                        C0: float, C1: float) -> Potential:
    """Custom convex profile from samples; validates monotone convexity on load."""
    a = np.asarray(a, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if a.ndim != 1 or a.shape != phi.shape or len(a) < 3:
        raise ValueError("need matching 1-d sample arrays of length >= 3")
    if not np.all(np.diff(a) > 0):
        raise ValueError("sample abscissae must be strictly increasing")
    slopes = np.diff(phi) / np.diff(a)
    if np.any(slopes < -1e-12) or np.any(np.diff(slopes) < -1e-10):
        raise ValueError("tabulated profile must be nondecreasing and convex")
    if abs(phi[0]) > 1e-14 or a[0] != 0.0:
        raise ValueError("tabulated profile must start at (0, 0)")

    def func(x):
        return np.interp(x, a, phi, right=phi[-1] + slopes[-1] * 0)

    def deriv(x):
        idx = np.clip(np.searchsorted(a, x) - 1, 0, len(slopes) - 1)
        return slopes[idx]

    smooth = slopes[0] <= 1e-10
    return Potential("tabulated", func, deriv, p, C0, C1, smooth_at_zero=smooth)


#: quartic St. Venant integrand (|Dv|^2 - 1)^2 expressed as Phi(|s_2|) with
#: Phi(t) = 4 t^2, since (t^2 - 1)^2 = 4 * s_2(t)^2.
def quartic_potential() -> Potential:
    return power_potential(2.0, scale=4.0)


# --------------------------------------------------------------------------
# micro-potentials w(xi, s) = k(xi) Psi(xi, s)


_FD_STEP = 1e-5


def _fd_psi_ss(psi, r, s, step=_FD_STEP):
    """Richardson-extrapolated central second difference of Psi in s."""
    def d2(h):
        return (psi(r, s + h) - 2.0 * psi(r, s) + psi(r, s - h)) / h**2

    return (4.0 * d2(step / 2.0) - d2(step)) / 3.0


@dataclass(frozen=True)
class MicroPotential:
    """Pairwise stored-energy density w(xi, s) = k(|xi|) * Psi(|xi|, s).

    ``k`` is a radial weight (vectorized over radii); ``psi`` is vectorized
    over (radii, strains).  ``psi_ss0`` optionally registers the closed-form
    second derivative of Psi at s = 0 as a function of radius.  ``c1``,
    ``c2``, ``delta0`` are the Hooke constants of the small-strain regime.
    """

    tag: str
    k: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    c1: float
    c2: float
    delta0: float
    psi_ss0: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)

    def __call__(self, r, s) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        return self.k(r) * self.psi(r, s)

    @property
    def second_derivative_at_zero(self) -> Callable[[np.ndarray], np.ndarray]:
        """d2Psi/ds2(., 0), closed form if registered, else finite differences.

        The finite-difference route validates twice-differentiability at 0:
        the rest energy must vanish, the odd part must be O(step^2), and the
        Richardson pair must agree.
        """
        if self.psi_ss0 is not None:
            return self.psi_ss0
        psi = self.psi
        probe = np.asarray([0.5, 1.0])
        if np.max(np.abs(psi(probe, np.zeros(2)))) > 1e-12:
            raise ValueError("Psi(., 0) must vanish")
        h = _FD_STEP
        odd = np.abs(psi(probe, np.full(2, h)) - psi(probe, np.full(2, -h))) / h
        d2a = (psi(probe, np.full(2, h)) - 2 * psi(probe, np.zeros(2)) + psi(probe, np.full(2, -h))) / h**2
        d2b = (psi(probe, np.full(2, h / 2)) - 2 * psi(probe, np.zeros(2)) + psi(probe, np.full(2, -h / 2))) / (h / 2)**2
        scale = np.maximum(np.abs(d2a), 1.0)
        if np.any(odd > 1e-3 * scale) or np.any(np.abs(d2a - d2b) > 1e-2 * scale):
            raise ValueError("Psi is not twice differentiable at s = 0 "
                             "(finite-difference symmetry check failed)")

        def fd(r):
            r = np.asarray(r, dtype=float)
            return _fd_psi_ss(psi, r, np.zeros_like(r))

        return fd

    def conformance_report(self, n_samples: int = 201) -> dict:
        """Sampled check of the structural conditions on Psi.

        Keys: ``zero_at_rest``, ``zero_slope_at_rest``, ``positive_curvature``,
        ``positive_away_from_zero``, ``hooke_lower_bound``,
        ``bounded_curvature``, ``force_vanishes_at_threshold``.
        """
        r = np.asarray([0.5, 1.0])
        report = {}
        report["zero_at_rest"] = bool(np.max(np.abs(self.psi(r, np.zeros(2)))) < 1e-12)
        h = _FD_STEP
        slope = (self.psi(r, np.full(2, h)) - self.psi(r, np.full(2, -h))) / (2 * h)
        report["zero_slope_at_rest"] = bool(np.max(np.abs(slope)) < 1e-6)
        try:
            curv0 = self.second_derivative_at_zero(r)
            report["positive_curvature"] = bool(np.min(curv0) > 0)
        except ValueError:
            report["positive_curvature"] = False

        s = np.linspace(-0.9, 4.0, n_samples)
        if self.params.get("s0") is not None:
            s = np.append(s, self.params["s0"])
        s = s[np.abs(s) > 1e-3]
        vals = self.psi(np.full_like(s, 1.0), s)
        report["positive_away_from_zero"] = bool(np.min(vals) > 0)

        s_small = np.linspace(-self.delta0, self.delta0, 101)
        s_small = s_small[np.abs(s_small) > 0]
        hooke = self.psi(np.full_like(s_small, 1.0), s_small) >= self.c1 * s_small**2 - 1e-12
        report["hooke_lower_bound"] = bool(np.all(hooke))

        curv = np.array([_fd_psi_ss(self.psi, 1.0, float(ss)) for ss in s_small[::10]])
        report["bounded_curvature"] = bool(np.all(np.abs(curv) <= self.c2 + 1e-6))

        s_thr = self.params.get("s0")
        if s_thr is not None:
            dpsi = (self.psi(np.ones(1), np.asarray([s_thr + h])) -
                    self.psi(np.ones(1), np.asarray([s_thr - h]))) / (2 * h)
            report["force_vanishes_at_threshold"] = bool(abs(float(np.ravel(dpsi)[0])) < 1e-3)
        else:
            report["force_vanishes_at_threshold"] = False
        return report


def _unit_weight(r):
    return np.ones_like(np.asarray(r, dtype=float))


#: tags accepted by :func:`catalog_potential`
CATALOG_TAGS = frozenset(
    {"mbm", "mbm_smooth", "modified_mbm", "cohesive", "quartic", "two_well"})


def catalog_potential(tag: str, k=None, **params) -> MicroPotential:
    """Build a catalog micro-potential by tag.

    Tags: ``mbm`` (brittle, quadratic below a strain threshold s0),
    ``mbm_smooth`` (the unbroken quadratic branch), ``modified_mbm``
    (force weakens smoothly), ``cohesive`` (bounded profile f of r*s^2,
    x / (1 + x) unless ``f`` is given, with ``fprime0`` = f'(0)),
    ``quartic`` (stretch-quartic (t^2-1)^2 written in strain variables),
    ``two_well`` (wells at 0 and s0).
    """
    k = _unit_weight if k is None else k

    if tag == "mbm":
        s0 = params.get("s0", 0.1)
        c = params.get("c", 2.0)

        def psi(r, s):
            s = np.asarray(s, dtype=float)
            return np.where(s <= s0, 0.5 * c * s**2, 0.5 * c * s0**2)

        return MicroPotential("mbm", k, psi, c1=c / 2, c2=c, delta0=s0,
                              psi_ss0=lambda r: np.full_like(np.asarray(r, float), c),
                              params={"s0": s0, "c": c})

    if tag == "mbm_smooth":
        c = params.get("c", 2.0)

        def psi(r, s):
            return 0.5 * c * np.asarray(s, dtype=float) ** 2

        return MicroPotential("mbm_smooth", k, psi, c1=c / 2, c2=c, delta0=1.0,
                              psi_ss0=lambda r: np.full_like(np.asarray(r, float), c),
                              params={"c": c})

    if tag == "modified_mbm":
        s0 = params.get("s0", 0.5)
        c = params.get("c", 2.0)

        def psi(r, s):
            s = np.asarray(s, dtype=float)
            return 0.5 * c * s0**2 * (1.0 - np.exp(-(s / s0) ** 2))

        return MicroPotential("modified_mbm", k, psi, c1=c / 4, c2=c, delta0=s0 / 2,
                              psi_ss0=lambda r: np.full_like(np.asarray(r, float), c),
                              params={"s0": s0, "c": c})

    if tag == "cohesive":
        f = params.get("f")
        fprime0 = params.get("fprime0", 1.0)
        if f is None:
            if "fprime0" in params:
                raise ValueError("cohesive: fprime0 describes a given f and needs one")

            def f(x):  # bounded, concave, f(0)=0, f'(0)=1
                return x / (1.0 + x)

        def psi(r, s):
            r = np.asarray(r, dtype=float)
            s = np.asarray(s, dtype=float)
            return f(r * s**2)

        # d2/ds2 f(r s^2) at 0 = 2 r f'(0)
        return MicroPotential("cohesive", k, psi, c1=fprime0 / 4, c2=4.0 * fprime0,
                              delta0=0.25,
                              psi_ss0=lambda r, f0=fprime0: 2.0 * f0 * np.asarray(r, dtype=float),
                              params={"fprime0": fprime0})

    if tag == "quartic":
        # stretch form (t^2 - 1)^2 with t = 1 + s:  Psi(s) = ((1+s)^2 - 1)^2
        def psi(r, s):
            s = np.asarray(s, dtype=float)
            return (s * (s + 2.0)) ** 2

        return MicroPotential("quartic", k, psi, c1=2.0, c2=24.0, delta0=0.25,
                              psi_ss0=lambda r: np.full_like(np.asarray(r, float), 8.0),
                              params={})

    if tag == "two_well":
        s0 = params.get("s0", 0.5)

        def psi(r, s):
            s = np.asarray(s, dtype=float)
            return np.minimum(s**2, (s - s0) ** 2)

        return MicroPotential("two_well", k, psi, c1=1.0, c2=2.0, delta0=s0 / 2,
                              psi_ss0=lambda r: np.full_like(np.asarray(r, float), 2.0),
                              params={"s0": s0})

    raise ValueError(f"unknown catalog tag {tag!r}")


def rescaled_micro_energy(w: MicroPotential, m: float, xi: np.ndarray,
                          zeta: np.ndarray, eps: float) -> float:
    """Quadratically rescaled bond energy eps^-2 w(xi, s_m(|nu + eps zeta|)).

    As eps -> 0 this converges to k(|xi|) * Psi_ss(|xi|, 0) * (zeta.nu)^2
    with nu = xi/|xi|, the integrand of the linearized energy.
    """
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if eps <= 0:
        raise ValueError("eps must be positive")
    r = np.linalg.norm(xi)
    if r == 0:
        raise ValueError("xi must be nonzero")
    nu = xi / r
    t = np.linalg.norm(nu + eps * zeta)
    if t <= 0:
        raise ValueError("strain outside its domain: zero stretch")
    s = strain(m, t)
    return float(w.k(np.asarray(r)) * w.psi(np.asarray(r), np.asarray(s))) / eps**2


# --------------------------------------------------------------------------
# 1-d convexification


def convexify_1d(phi, t_min: float, t_max: float, n: int):
    """Tabulated lower convex envelope of a scalar function on [t_min, t_max].

    ``phi`` may be a callable or an array of length n.  The envelope is the
    lower convex hull of the sample graph (exact for piecewise-affine data),
    evaluated back on the sample grid.  Returns ``(t, envelope)``.
    """
    if n < 64:
        raise ValueError("need n >= 64 grid points")
    t = np.linspace(t_min, t_max, n)
    f = phi(t) if callable(phi) else np.asarray(phi, dtype=float)
    if f.shape != t.shape or not np.all(np.isfinite(f)):
        raise ValueError("phi must be finite on the grid")
    # monotone-chain lower hull of the graph points
    hull = [0]
    for i in range(1, n):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (t[b] - t[a]) * (f[i] - f[a]) - (f[b] - f[a]) * (t[i] - t[a])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    hull = np.asarray(hull)
    env = np.interp(t, t[hull], f[hull])
    return t, env
