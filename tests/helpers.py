"""Builders and checks that several test modules share and no run, demo or
benchmark uses; imported with ``from helpers import ...``."""

from dataclasses import dataclass

import numpy as np

import peribond.density
from peribond.energy import PairSet, _bond_runs, _norm, _Scratch
from peribond.grids import VectorField
from peribond.kernels import (Kernel, KernelSequence, make_fractional,
                              radial_integral)
from peribond.materials import Potential, power_potential


def rot(th):
    """The 2D rotation by the angle ``th``."""
    return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])


def set_laminate_grid(monkeypatch, n_lambda: int, n_mag: int, max_mag: float,
                      n_angle: int, refine_rounds: int) -> None:
    """Run the laminate search of ``peribond.density`` on another grid for
    one test: volume fractions ``linspace(0, 1, n_lambda)[1:-1]``, ``n_mag``
    lengths of a up to ``max_mag``, ``n_angle`` angles and ``refine_rounds``
    refinement rounds."""
    for name, value in (("_N_LAMBDA", n_lambda), ("_N_MAG", n_mag), ("_MAX_MAG", max_mag),
                        ("_N_ANGLE", n_angle), ("_REFINE_ROUNDS", refine_rounds)):
        monkeypatch.setattr(peribond.density, name, value)


def stretches(v: VectorField, pairs: PairSet) -> np.ndarray:
    """Bond stretches t = |v(x_j) - v(x_i)| / |x_j - x_i| over a pair set."""
    return np.concatenate([np.empty(0), *(_norm(dv) / np.repeat(run.r, run.counts) for run, dv
                                          in _bond_runs(pairs, v.values, _Scratch(pairs, 0)))])


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

    return Potential(func, deriv, p, 0.0, 1.0 + phi0)


def tabulated_potential(a: np.ndarray, phi: np.ndarray, p: float,
                        C0: float, C1: float) -> Potential:
    """Custom convex profile from samples; validates monotone convexity on load.

    Piecewise linear through the samples, and continued past the last one
    along the last slope, so the profile stays convex and ``d`` is its
    derivative everywhere.
    """
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
        return np.where(x > a[-1], phi[-1] + slopes[-1] * (x - a[-1]), np.interp(x, a, phi))

    def deriv(x):
        idx = np.clip(np.searchsorted(a, x) - 1, 0, len(slopes) - 1)
        return slopes[idx]

    return Potential(func, deriv, p, C0, C1)


def custom_radial(d: int, profile, support_radius: float) -> Kernel:
    """Normalize an arbitrary nonnegative radial profile to unit mass."""
    raw = radial_integral(profile, 0.0, support_radius, d)
    if not raw > 0:
        raise ValueError("profile must have positive mass")
    c = 1.0 / raw
    return Kernel(d, lambda r: c * np.asarray(profile(r), dtype=float), support_radius)


def fractional_sequence(d: int, p: float) -> KernelSequence:
    """rho_n = the fractional kernel with s = 1 - 1/(n + 1)."""
    return KernelSequence(lambda n: make_fractional(d, 1.0 - 1.0 / (n + 1), p))


def tail_mass(kernel: Kernel, delta: float) -> float:
    """Mass of ``kernel`` outside the ball B(0, delta)."""
    if delta >= kernel.support_radius:
        return 0.0
    return radial_integral(kernel.profile, delta, kernel.support_radius, kernel.dim)


@dataclass(frozen=True)
class TailReport:
    """Tail masses of a kernel sequence outside a fixed ball."""

    delta: float
    tail: np.ndarray
    passed: bool


def check_assumption_A(seq: KernelSequence, delta: float, n_max: int,
                       tol: float = 1e-3) -> TailReport:
    """Check the concentration half of the kernel assumption.

    Computes t_n = mass of rho_n outside B(0, delta) for n = 1..n_max and
    passes when the terminal tail is below ``tol`` and the tail is
    non-increasing over the second half of the sequence, n > n_max // 2.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = np.array([tail_mass(seq[n], delta) for n in range(1, n_max + 1)])
    eventually_decreasing = np.all(np.diff(t[len(t) // 2:]) <= 1e-12)
    passed = bool(t[-1] < tol and eventually_decreasing)
    return TailReport(delta, t, passed)


@dataclass(frozen=True)
class DensityConditionReport:
    deltas: np.ndarray
    integrals: np.ndarray
    ratios: np.ndarray
    passed: bool


def check_density_condition(kernel: Kernel, p: float) -> DensityConditionReport:
    """Diagnose whether int_{|z|>delta} rho(z)/|z|^p dz blows up as delta -> 0.

    Evaluates the integral at delta = 2^-j, j = 1..12 and passes when the
    last three successive ratios exceed 1.05.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    deltas = 2.0 ** -np.arange(1, 13)

    def integrand(r):
        return kernel(r) / r**p

    vals = np.array([
        radial_integral(integrand, dd, kernel.support_radius, kernel.dim)
        for dd in deltas
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = vals[1:] / vals[:-1]
    passed = bool(np.all(np.isfinite(vals)) and vals[-1] > 0
                  and np.all(ratios[-3:] > 1.05))
    return DensityConditionReport(deltas, vals, ratios, passed)
