"""Cell-centered grids, subdomain masks, vector fields and sphere quadrature.

The domain is a cube in R^d (d = 1, 2, 3) discretized by uniform cells; nodes
sit at cell centers, so midpoint quadrature of double integrals never
evaluates a kernel on the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered Cartesian grid on the cube (origin, origin + extent)^dim.

    Node positions are ``origin + (i + 1/2) * h`` for each multi-index ``i``,
    flattened in C order.
    """

    dim: int
    origin: float
    extent: float
    n_cells: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n_cells < 2:
            raise ValueError("need at least 2 cells per axis")
        if self.extent <= 0:
            raise ValueError("extent must be positive")

    @property
    def h(self) -> float:
        """Spacing along every axis."""
        return self.extent / self.n_cells

    @property
    def shape(self) -> tuple[int, ...]:
        """Node counts per axis: the shape of nodal data in C order."""
        return (self.n_cells,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.n_cells ** self.dim

    @property
    def cell_volume(self) -> float:
        # h * h * h left to right, which h ** 3 does not always round to
        return math.prod((self.h,) * self.dim)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dim), C-ordered."""
        axis = self.origin + (np.arange(self.n_cells) + 0.5) * self.h
        mesh = np.meshgrid(*(axis,) * self.dim, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def nearest_node(self, x) -> int | np.ndarray:
        """Flat index of the node closest to point ``x``.

        An (N, d) stack of points gives an array of N indices; on a 1D grid a
        scalar is a point.
        """
        x = np.asarray(x, dtype=float)
        if (x.shape[-1:] or (1,)) != (self.dim,):
            raise ValueError(f"points must have {self.dim} coordinates, got shape {x.shape}")
        points = x.reshape(-1, self.dim)
        idx = np.floor((points - self.origin) / self.h).astype(int)
        idx = np.clip(idx, 0, self.n_cells - 1)
        flat = np.ravel_multi_index(tuple(idx.T), self.shape)
        return int(flat[0]) if x.ndim <= 1 else flat


def box_grid(dim: int, lo: float, hi: float, n_cells: int) -> Grid:
    """Cube (lo, hi)^dim with ``n_cells`` cells per axis."""
    return Grid(dim, lo, hi - lo, n_cells)


@dataclass(frozen=True)
class SubdomainMask:
    """Active-node mask representing an open subdomain A of the grid's cube.

    The collar is the set of active nodes within ``collar_width`` of the
    complement; node-to-node Euclidean distance is used, which lower-bounds
    the continuum distance.  When every node is active the distance to the
    domain boundary is used instead, so a Dirichlet collar along the cube's
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

        If the mask is all-active, falls back to the distance to the cube's
        boundary.
        """
        g = self.grid
        shaped = self.active.reshape(g.shape)
        if shaped.all():
            x = g.nodes()
            return np.minimum(x - g.origin, (g.origin + g.extent) - x).min(axis=1)
        from scipy import ndimage  # here, not at the top: it loads scipy.special
        return ndimage.distance_transform_edt(shaped, sampling=g.h).ravel()

    def collar_fits(self) -> bool:
        """Whether collar_width is below half the diameter of the active nodes
        (never if there are none).  The diameter is their bounding box's, its
        corners placed with Grid.nodes' arithmetic, so no node array is built."""
        g, shaped = self.grid, self.active.reshape(self.grid.shape)
        hits = [np.flatnonzero(shaped.any(axis=tuple(set(range(g.dim)) - {a})))
                for a in range(g.dim)]
        o, h = g.origin, g.h
        span = [(o + (k[-1] + 0.5) * h) - (o + (k[0] + 0.5) * h) if k.size else np.nan
                for k in hits]
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
    lo = grid.origin + margin
    hi = grid.origin + grid.extent - margin
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
    return VectorField(grid, f(grid.nodes()))


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
        from numpy.polynomial.legendre import leggauss  # here: it loads numpy.polynomial
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
    return SphereQuadrature(pts, w)
