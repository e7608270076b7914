"""Discretized double-integral energies, seminorms and analytic gradients.

All double integrals are midpoint sums over active node pairs within the
kernel support, diagonal excluded.  Each unordered pair is enumerated once in
a fixed (offset-major, node-minor) order and doubled, so repeated evaluations
are bit-identical; numpy's pairwise summation keeps the reduction
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import Grid, SubdomainMask, VectorField, full_mask
from .kernels import Kernel
from .materials import MicroPotential, Potential, strain


class StrainDomainError(ValueError):
    """A bond stretch left the admissible strain domain."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


@dataclass
class EnergyReport:
    """Energy value plus quadrature metadata."""

    value: float
    pair_count: int
    skipped_diagonal: int
    h: float
    est_error: Optional[float] = None


class PairSet:
    """Unordered active-node pairs within a cutoff radius on a uniform grid.

    Pairs are generated per integer offset (so each pair carries an exact
    distance and unit direction shared by its offset class) and concatenated
    in sorted offset order.
    """

    def __init__(self, grid: Grid, active: np.ndarray, radius: float):
        self.grid = grid
        self.radius = radius
        h = grid.h
        shape = grid.n_cells
        caps = np.minimum(np.floor(radius / h + 1e-12).astype(int),
                          np.asarray(shape) - 1)
        idx = np.arange(grid.n_nodes).reshape(shape)
        active = np.asarray(active, dtype=bool).reshape(shape)

        offsets = []
        ranges = [range(-c, c + 1) for c in caps]
        ranges[0] = range(0, caps[0] + 1)  # lexicographically positive only
        for o in itertools.product(*ranges):
            if all(c == 0 for c in o):
                continue
            if o[0] == 0 and next(c for c in o if c != 0) < 0:
                continue
            if np.linalg.norm(np.asarray(o) * h) <= radius + 1e-12:
                offsets.append(o)
        offsets.sort()

        i_parts, j_parts, r_parts, d_parts = [], [], [], []
        for o in offsets:
            src_sl, dst_sl = [], []
            for ok, n in zip(o, shape):
                src_sl.append(slice(max(0, -ok), n - max(0, ok)))
                dst_sl.append(slice(max(0, ok), n - max(0, -ok)))
            src = idx[tuple(src_sl)].ravel()
            dst = idx[tuple(dst_sl)].ravel()
            keep = active[tuple(src_sl)].ravel() & active[tuple(dst_sl)].ravel()
            if not keep.any():
                continue
            src, dst = src[keep], dst[keep]
            xi = np.asarray(o) * h
            r = float(np.linalg.norm(xi))
            i_parts.append(src)
            j_parts.append(dst)
            r_parts.append(np.full(src.shape, r))
            d_parts.append(np.broadcast_to(xi / r, (len(src), grid.dim)))

        if i_parts:
            self.i = np.concatenate(i_parts)
            self.j = np.concatenate(j_parts)
            self.r = np.concatenate(r_parts)
            self.dir = np.concatenate(d_parts)
        else:
            self.i = np.empty(0, dtype=int)
            self.j = np.empty(0, dtype=int)
            self.r = np.empty(0)
            self.dir = np.empty((0, grid.dim))
        self.n_active = int(active.sum())
        self._rho_cache: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.i)

    def rho_values(self, kernel) -> np.ndarray:
        key = id(kernel)
        if key not in self._rho_cache:
            self._rho_cache[key] = kernel(self.r)
        return self._rho_cache[key]


def build_pairs(grid: Grid, mask: SubdomainMask | None, radius: float) -> PairSet:
    active = mask.active if mask is not None else np.ones(grid.n_nodes, dtype=bool)
    return PairSet(grid, active, radius)


def _mean_h(grid: Grid) -> float:
    return float(np.mean(grid.h))


def stretches(v: VectorField, pairs: PairSet) -> np.ndarray:
    """Bond stretches t = |v(x_j) - v(x_i)| / |x_j - x_i| over a pair set."""
    dv = v.values[pairs.j] - v.values[pairs.i]
    return np.linalg.norm(dv, axis=1) / pairs.r


def energy_Fn(v: VectorField, A: SubdomainMask, kernel: Kernel, phi: Potential,
              m: float = 1.0, pairs: PairSet | None = None) -> EnergyReport:
    """Localized nonconvex energy: double sum of rho(x-y) Phi(|s_m[v](x,y)|)."""
    if pairs is None:
        pairs = build_pairs(v.grid, A, kernel.support_radius)
    t = stretches(v, pairs)
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite stretch encountered")
    rho = pairs.rho_values(kernel)
    w2 = 2.0 * v.grid.cell_volume**2
    value = w2 * np.sum(rho * phi(np.abs(strain(m, t))))
    return EnergyReport(float(value), 2 * len(pairs), pairs.n_active, _mean_h(v.grid))


def gradient_Fn(v: VectorField, A: SubdomainMask, kernel: Kernel, phi: Potential,
                m: float = 1.0, pairs: PairSet | None = None) -> VectorField:
    """Analytic nodal gradient of :func:`energy_Fn`.

    Pairs with coincident deformed positions get a zero contribution: the
    stretch direction is undefined there and, for smooth-at-zero profiles,
    the true subgradient contains 0.
    """
    if not phi.smooth_at_zero:
        raise ValueError("profile has Phi'(0+) > 0; use gradient-free experiments")
    if pairs is None:
        pairs = build_pairs(v.grid, A, kernel.support_radius)
    dv = v.values[pairs.j] - v.values[pairs.i]
    norm_dv = np.linalg.norm(dv, axis=1)
    t = norm_dv / pairs.r
    s = strain(m, t)
    rho = pairs.rho_values(kernel)
    w2 = 2.0 * v.grid.cell_volume**2
    # d/dt Phi(|s_m(t)|) = Phi'(|s|) sign(s) t^(m-1)
    coeff = w2 * rho * phi.d(np.abs(s)) * np.sign(s) * t ** (m - 1.0)
    safe = norm_dv > 0
    scale = np.zeros_like(norm_dv)
    scale[safe] = coeff[safe] / (norm_dv[safe] * pairs.r[safe])
    pair_grad = scale[:, None] * dv
    out = np.zeros_like(v.values)
    np.add.at(out, pairs.j, pair_grad)
    np.add.at(out, pairs.i, -pair_grad)
    return VectorField(v.grid, out)


def _load_term(u: VectorField, l: VectorField | None) -> float:
    if l is None:
        return 0.0
    return float(u.grid.cell_volume * np.sum(l.values * u.values))


def energy_E_eps(u: VectorField, w: MicroPotential, m: float, eps: float,
                 l: VectorField | None = None, support_radius: float = 1.0,
                 pairs: PairSet | None = None) -> EnergyReport:
    """Rescaled small-displacement energy of the deformation x + eps*u.

    Value is eps^-2 times the double sum of w(y-x, s_m[x + eps u]) minus the
    load term.  A bond whose deformed length vanishes puts the strain on the
    boundary of its domain and raises :class:`StrainDomainError`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = u.grid
    if pairs is None:
        pairs = build_pairs(g, None, support_radius)
    delta = pairs.dir * pairs.r[:, None] + eps * (u.values[pairs.j] - u.values[pairs.i])
    t = np.linalg.norm(delta, axis=1) / pairs.r
    bad = t <= 0
    if np.any(bad):
        k = int(np.argmax(bad))
        raise StrainDomainError(
            f"bond stretch vanished for node pair ({pairs.i[k]}, {pairs.j[k]})",
            pair=(int(pairs.i[k]), int(pairs.j[k])))
    s = strain(m, t)
    w2 = 2.0 * g.cell_volume**2
    double = w2 * np.sum(w(pairs.r, s))
    value = double / eps**2 - _load_term(u, l)
    return EnergyReport(float(value), 2 * len(pairs), pairs.n_active, _mean_h(g))


def energy_E0(u: VectorField, rho: Callable[[np.ndarray], np.ndarray] | Kernel,
              l: VectorField | None = None, support_radius: float | None = None,
              pairs: PairSet | None = None) -> EnergyReport:
    """Quadratic linearized energy (1/2) * double sum of rho * (Du . Di)^2 - load."""
    g = u.grid
    if pairs is None:
        if support_radius is None:
            support_radius = getattr(rho, "support_radius", None)
            if support_radius is None:
                raise ValueError("support_radius required for a bare profile")
        pairs = build_pairs(g, None, support_radius)
    du_dot = np.einsum("pk,pk->p", u.values[pairs.j] - u.values[pairs.i], pairs.dir) / pairs.r
    rho_vals = pairs.rho_values(rho) if isinstance(rho, Kernel) else rho(pairs.r)
    w2 = 2.0 * g.cell_volume**2
    value = 0.5 * w2 * np.sum(rho_vals * du_dot**2) - _load_term(u, l)
    return EnergyReport(float(value), 2 * len(pairs), pairs.n_active, _mean_h(g))


def seminorm_W(v: VectorField, kernel: Kernel, p: float,
               A: SubdomainMask | None = None, pairs: PairSet | None = None) -> float:
    """p-th power of the nonlocal seminorm: double sum of rho |v(x)-v(y)|^p / |x-y|^p."""
    if pairs is None:
        pairs = build_pairs(v.grid, A or full_mask(v.grid), kernel.support_radius)
    t = stretches(v, pairs)
    rho = pairs.rho_values(kernel)
    return float(2.0 * v.grid.cell_volume**2 * np.sum(rho * t**p))


def seminorm_Xrho(u: VectorField, rho: Callable[[np.ndarray], np.ndarray] | Kernel,
                  support_radius: float | None = None,
                  pairs: PairSet | None = None) -> float:
    """Squared seminorm of the linearized space: double sum of rho (Du . Di)^2."""
    g = u.grid
    if pairs is None:
        if support_radius is None:
            support_radius = getattr(rho, "support_radius", None)
            if support_radius is None:
                raise ValueError("support_radius required for a bare profile")
        pairs = build_pairs(g, None, support_radius)
    du_dot = np.einsum("pk,pk->p", u.values[pairs.j] - u.values[pairs.i], pairs.dir) / pairs.r
    rho_vals = pairs.rho_values(rho) if isinstance(rho, Kernel) else rho(pairs.r)
    return float(2.0 * g.cell_volume**2 * np.sum(rho_vals * du_dot**2))
