"""Explicit deformation families and rigidity procedures.

Contains the one-dimensional sawtooth family (uniformly vanishing fields
whose nonlocal energy also vanishes under a coupled horizon), multi-axis
laminates whose gradients are orthogonal almost everywhere, and the
constructive reconstruction of an isometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .energy import energy_Fn
from .grids import Grid, VectorField, box_grid, full_mask
from .kernels import box_kernel, make_rescaled
from .materials import Potential


# ---------------------------------------------------------------------------
# sawtooth family
# ---------------------------------------------------------------------------

def sawtooth_value(N: int, x) -> np.ndarray:
    """The N-tooth sawtooth: 1-Lipschitz, period 1/N, peak 1/(2N), slopes +-1.

    The formula extends 1-periodically beyond [0, 1], which is the extension
    used when the inner integral of the energy leaves the unit interval.
    """
    x = np.asarray(x, dtype=float)
    y = np.mod(x * N, 1.0)
    return np.minimum(y, 1.0 - y) / N


@dataclass(frozen=True)
class SawtoothEnergy:
    """Computed sawtooth energy against its closed-form value (8/15) N delta."""

    value: float
    expected: float
    rel_error: float
    in_closed_form_regime: bool
    N: int
    delta: float
    h: float


def sawtooth_energy(N: int, delta: float, h: float | None = None) -> SawtoothEnergy:
    """Quartic-integrand energy of the sawtooth with a box kernel of radius delta.

    Computes sum over x in (0,1) and |z| < delta of
    rho_delta(z) * ((v(x+z) - v(x))^2 / z^2 - 1)^2 by midpoint quadrature in
    both variables; the inner variable ranges over the full ball, with the
    sawtooth continued periodically past the interval ends.  The closed form
    (8/15) N delta holds when the horizon fits inside a tooth,
    delta <= 1/(4N); outside that regime the value is reported but the
    comparison is flagged.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if h is None:
        h = delta / 32.0
    if h > delta / 16.0 + 1e-15:
        raise ValueError("need h <= delta/16 to resolve the horizon")
    n = int(round(1.0 / h))
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    vx = sawtooth_value(N, x)
    n_off = int(np.ceil(delta / h - 1e-12))
    rho_delta = 0.5 / delta
    total = 0.0
    for j in range(1, n_off + 1):
        lo, hi = (j - 1) * h, min(j * h, delta)
        z = 0.5 * (lo + hi)
        wz = hi - lo
        for sign in (1.0, -1.0):
            dv = sawtooth_value(N, x + sign * z) - vx
            total += wz * h * rho_delta * np.sum((dv**2 / z**2 - 1.0) ** 2)
    expected = 8.0 / 15.0 * N * delta
    return SawtoothEnergy(float(total), expected,
                          abs(total - expected) / expected,
                          delta <= 1.0 / (4.0 * N) + 1e-15, N, delta, h)


# ---------------------------------------------------------------------------
# laminates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaminateSpec:
    """A multi-axis laminate: target diagonal lam, oscillation frequency k."""

    lam: tuple[float, ...]
    k: int

    def __post_init__(self):
        if any(not (0.0 <= li <= 1.0) for li in self.lam):
            raise ValueError("laminate slopes require lam entries in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")


def laminate_profile(lam_i: float, t) -> np.ndarray:
    """1-periodic zigzag with slopes (1 - lam_i) and -(1 + lam_i).

    Rises on [0, (1+lam_i)/2), falls back to 0 at 1; its peak is
    (1 - lam_i)(1 + lam_i)/2.  Added to lam_i * t it has slope +-1.
    """
    t = np.mod(np.asarray(t, dtype=float), 1.0)
    a = 0.5 * (1.0 + lam_i)
    up = (1.0 - lam_i) * t
    down = (1.0 + lam_i) * (1.0 - t)
    return np.where(t < a, up, down)


def laminate_field(spec: LaminateSpec, grid: Grid) -> VectorField:
    """Nodal sampling of v(x) = diag(lam) x + (1/k) (gamma_i(k x_i))_i.

    Componentwise the field has slope +-1 almost everywhere, so its gradient
    is orthogonal a.e.; it converges uniformly to the affine map diag(lam) x
    at rate 1/k.
    """
    if grid.dim != len(spec.lam):
        raise ValueError("lam must have one entry per axis")
    if grid.n_cells < 8 * spec.k:
        raise ValueError(f"grid must resolve the oscillation: need >= {8 * spec.k} cells per axis")
    x = grid.nodes()
    vals = np.empty_like(x)
    for i, li in enumerate(spec.lam):
        vals[:, i] = li * x[:, i] + laminate_profile(li, spec.k * x[:, i]) / spec.k
    return VectorField(grid, vals)


@dataclass(frozen=True)
class LaminateDecayRow:
    n: int
    k: int
    delta: float
    n_cells: int
    energy: float


#: cells per side of the unit box that laminate_energy_decay never exceeds
_MAX_CELLS = 256


def laminate_energy_decay(lam: Sequence[float], n_values: Sequence[int],
                          phi: Potential, m: float) -> list[LaminateDecayRow]:
    """Energy table of the laminate sequence under a concentrating kernel.

    For each n the horizon is delta = 1/n^2 and the oscillation frequency
    k = n; with k delta = 1/n -> 0 the energies decay toward zero, exhibiting
    that the limiting density vanishes on diagonal gradients with entries in
    [0, 1].

    The unit box gets ``min(256, max(8 k, ceil(4 / delta), 32))`` cells per
    side, the ceil guarded by 1e-12 so that a quotient that is an integer up
    to round-off is not pushed one cell up.  The count is not forced to a
    multiple of k; it is one for n <= 8 (32 cells for n <= 2, exactly 4 n^2
    for 3 <= n <= 8), so every laminate period spans a whole number of cells.
    """
    lam = tuple(float(x) for x in lam)
    d = len(lam)
    base = box_kernel(d)
    rows = []
    for n in n_values:
        delta = 1.0 / n**2
        k = int(n)
        cells = int(min(_MAX_CELLS, max(8 * k, np.ceil(4.0 / delta - 1e-12), 32)))
        grid = box_grid(d, 0.0, 1.0, cells)
        v = laminate_field(LaminateSpec(lam, k), grid)
        kernel = make_rescaled(base, delta)
        rep = energy_Fn(v, full_mask(grid), kernel, phi, m)
        rows.append(LaminateDecayRow(int(n), k, float(delta), cells, rep.value))
    return rows


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityResult:
    F: np.ndarray
    b: np.ndarray
    residual: float
    orthogonality_defect: float


def rigidity_reconstruct(v: VectorField, R: float) -> RigidityResult:
    """Reconstruct the affine map behind a (candidate) isometry.

    Anchors at the nodes nearest 0 and R e_k; the matrix solves the exact
    coordinate-difference system F (x_k - x_0) = v(x_k) - v(x_0), which is
    exact for affine data even though cell-centered nodes never sit exactly
    at the anchor points.  The residual is the worst distance distortion
    max | |v(x) - v(y)| - |x - y| | over up to 2000 node pairs drawn with
    seed 0, and is large whenever v is not an isometry.
    """
    g = v.grid
    d = g.dim
    x = g.nodes()
    anchors = [g.nearest_node(np.zeros(d))]
    for k in range(d):
        anchors.append(g.nearest_node(R * np.eye(d)[k]))
    x0 = x[anchors[0]]
    dx = np.stack([x[a] - x0 for a in anchors[1:]], axis=-1)
    dvv = np.stack([v.values[a] - v.values[anchors[0]] for a in anchors[1:]], axis=-1)
    F = dvv @ np.linalg.inv(dx)
    b = v.values[anchors[0]] - F @ x0

    rng = np.random.Generator(np.random.Philox(0))
    n_pairs = min(2000, g.n_nodes * (g.n_nodes - 1) // 2)
    ii = rng.choice(g.n_nodes, size=n_pairs)
    jj = rng.choice(g.n_nodes, size=n_pairs)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    dist_x = np.linalg.norm(x[ii] - x[jj], axis=1)
    dist_v = np.linalg.norm(v.values[ii] - v.values[jj], axis=1)
    residual = float(np.max(np.abs(dist_v - dist_x))) if len(ii) else 0.0
    defect = float(np.max(np.abs(F.T @ F - np.eye(d))))
    return RigidityResult(F, b, residual, defect)
