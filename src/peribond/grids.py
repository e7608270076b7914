"""Cell-centered grids, subdomain masks, vector fields and sphere quadrature.

The domain is a box in R^d (d = 1, 2, 3) discretized by uniform cells; nodes
sit at cell centers, so midpoint quadrature of double integrals never
evaluates a kernel on the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered Cartesian grid on a box.

    Node positions are ``origin + (i + 1/2) * h`` for each multi-index ``i``,
    flattened in C order.
    """

    dim: int
    origin: tuple[float, ...]
    extent: tuple[float, ...]
    n_cells: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        for name in ("origin", "extent", "n_cells"):
            if len(getattr(self, name)) != self.dim:
                raise ValueError(f"{name} must have length {self.dim}")
        if any(n < 2 for n in self.n_cells):
            raise ValueError("need at least 2 cells per axis")
        if any(e <= 0 for e in self.extent):
            raise ValueError("extent must be positive")

    @property
    def h(self) -> np.ndarray:
        """Spacing per axis."""
        return np.asarray(self.extent) / np.asarray(self.n_cells)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.n_cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dim), C-ordered."""
        axes = [
            o + (np.arange(n) + 0.5) * hh
            for o, n, hh in zip(self.origin, self.n_cells, self.h)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def nearest_node(self, x) -> int | np.ndarray:
        """Flat index of the node closest to point ``x``.

        An (N, d) stack of points gives an array of N indices.
        """
        x = np.asarray(x, dtype=float)
        points = x.reshape(-1, self.dim)
        idx = np.floor((points - np.asarray(self.origin)) / self.h).astype(int)
        idx = np.clip(idx, 0, np.asarray(self.n_cells) - 1)
        flat = np.ravel_multi_index(tuple(idx.T), self.n_cells)
        return int(flat[0]) if x.ndim <= 1 else flat


def unit_interval_grid(n_cells: int) -> Grid:
    """Convenience: (0, 1) with ``n_cells`` cells."""
    return Grid(1, (0.0,), (1.0,), (n_cells,))


def box_grid(dim: int, lo: float, hi: float, n_cells: int) -> Grid:
    """Cube (lo, hi)^dim with ``n_cells`` cells per axis."""
    return Grid(dim, (lo,) * dim, (hi - lo,) * dim, (n_cells,) * dim)


@dataclass(frozen=True)
class SubdomainMask:
    """Active-node mask representing an open subdomain A of the grid's box.

    The collar is the set of active nodes within ``collar_width`` of the
    complement; node-to-node Euclidean distance is used, which lower-bounds
    the continuum distance.  When every node is active the distance to the
    domain boundary is used instead, so a Dirichlet collar along the box
    boundary is still expressible.
    """

    grid: Grid
    active: np.ndarray
    collar_width: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.active, dtype=bool).reshape(self.grid.n_nodes)
        object.__setattr__(self, "active", _readonly(a))
        if self.collar_width < 0:
            raise ValueError("collar_width must be >= 0")

    def distance_to_complement(self) -> np.ndarray:
        """Per-node Euclidean distance to the nearest inactive node.

        If the mask is all-active, falls back to the distance to the box
        boundary.
        """
        g = self.grid
        shaped = self.active.reshape(g.n_cells)
        if shaped.all():
            x = g.nodes()
            lo = np.asarray(g.origin)
            hi = lo + np.asarray(g.extent)
            return np.minimum(x - lo, hi - x).min(axis=1)
        from scipy import ndimage  # here, not at the top: it loads scipy.special
        return ndimage.distance_transform_edt(shaped, sampling=g.h).ravel()

    def collar_fits(self) -> bool:
        """Whether collar_width is below half the diameter of the active nodes
        (never if there are none).  The diameter is their bounding box's, its
        corners placed with Grid.nodes' arithmetic, so no node array is built."""
        g, shaped = self.grid, self.active.reshape(self.grid.n_cells)
        hits = [np.flatnonzero(shaped.any(axis=tuple(set(range(g.dim)) - {a})))
                for a in range(g.dim)]
        span = [(o + (k[-1] + 0.5) * hh) - (o + (k[0] + 0.5) * hh) if k.size else np.nan
                for o, hh, k in zip(g.origin, g.h, hits)]
        return bool(self.collar_width < 0.5 * float(np.linalg.norm(span)))

    def collar(self) -> np.ndarray:
        """Boolean mask of active nodes with dist(x, complement) < collar_width."""
        d = self.distance_to_complement()
        return self.active & (d < self.collar_width)


def full_mask(grid: Grid, collar_width: float = 0.0) -> SubdomainMask:
    return SubdomainMask(grid, np.ones(grid.n_nodes, dtype=bool), collar_width)


def box_subdomain(grid: Grid, margin: float, collar_width: float = 0.0) -> SubdomainMask:
    """Sub-box of the grid's domain obtained by shrinking each face by ``margin``."""
    x = grid.nodes()
    lo = np.asarray(grid.origin) + margin
    hi = np.asarray(grid.origin) + np.asarray(grid.extent) - margin
    active = np.all((x > lo) & (x < hi), axis=1)
    return SubdomainMask(grid, active, collar_width)


@dataclass(frozen=True)
class VectorField:
    """Nodal d-vector data on a grid (a deformation v or displacement u)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(self.grid.n_nodes, self.grid.dim)
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _readonly(v))


def field_from_function(grid: Grid, f) -> VectorField:
    """Sample ``f`` (mapping (N, d) points to (N, d) vectors) at the nodes."""
    x = grid.nodes()
    vals = np.asarray(f(x), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return VectorField(grid, vals)


def affine_field(grid: Grid, F: np.ndarray) -> VectorField:
    """The field x -> F x."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return VectorField(grid, grid.nodes() @ F.T)


@dataclass(frozen=True)
class SphereQuadrature:
    """Normalized quadrature for surface averages over S^{d-1}.

    Weights are positive and sum to 1, so ``sum(w * f(omega))`` approximates
    the surface average of f.
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(np.atleast_2d(self.points)))
        object.__setattr__(self, "weights", _readonly(np.atleast_1d(self.weights)))


def sphere_quadrature(d: int, order: int) -> SphereQuadrature:
    """Quadrature rule for the unit sphere in dimension d.

    d=1: the two-point set {-1, +1}; d=2: ``order`` equispaced angles (exact
    for trigonometric polynomials of degree < order); d=3: Gauss-Legendre in
    cos(theta) times a uniform azimuthal rule.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if d == 1:
        pts = np.array([[-1.0], [1.0]])
        w = np.array([0.5, 0.5])
    elif d == 2:
        theta = (np.arange(order) + 0.5) * (2 * np.pi / order)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        w = np.full(order, 1.0 / order)
    elif d == 3:
        mu, wmu = leggauss(order)
        n_phi = 2 * order
        phi = (np.arange(n_phi) + 0.5) * (2 * np.pi / n_phi)
        s = np.sqrt(1.0 - mu**2)
        pts = np.stack(
            [
                np.outer(s, np.cos(phi)).ravel(),
                np.outer(s, np.sin(phi)).ravel(),
                np.repeat(mu, n_phi),
            ],
            axis=-1,
        )
        w = np.repeat(wmu / 2.0, n_phi) / n_phi
    else:
        raise ValueError(f"unsupported dimension {d}")
    return SphereQuadrature(d, pts, w)
