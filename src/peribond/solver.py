"""Constrained minimization of the nonlocal energies and experiment drivers.

The minimization enforces a volumetric Dirichlet collar by hard projection:
nodes within the collar carry the boundary datum at every iterate.  Descent
is projected Armijo backtracking along the direction of a two-loop
limited-memory quasi-Newton recursion.  Two experiment functions realize
the limits: small-displacement convergence of the rescaled energies, and
localization of constrained minimizers under a concentrating kernel sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constructions import laminate_profile
from .density import density_lower_batch, density_tilde_batch
from .energy import (PairSet, StrainDomainError, _Fn_pass, _linearized_pass, _Workspace,
                     build_pairs)
from .grids import (Grid, SubdomainMask, VectorField, affine_field, field_from_function,
                    full_mask, sphere_quadrature)
from .kernels import Kernel, KernelSequence
from .materials import MicroPotential, Potential

#: gradient pairs the quasi-Newton recursion keeps, the factor each rejected
#: trial step is shortened by, and the Armijo sufficient-decrease constant
_QN_MEMORY = 10
_ARMIJO_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4
#: the largest gradient entry at which the descent stops, in 1D and otherwise
_GRAD_TOL_1D = 1e-8
_GRAD_TOL = 1e-6


@dataclass(frozen=True)
class DirichletProblem:
    """Minimize the nonlocal energy over fields pinned to g on the collar.

    The descent stops after ``max_iters`` steps or once the largest gradient
    entry is at most 1e-8 in 1D, or 1e-6 in 2D and 3D.
    """

    mask: SubdomainMask
    g: VectorField
    kernel: Kernel
    phi: Potential
    m: float = 1.0
    max_iters: int = 50_000

    def __post_init__(self):
        if self.mask.collar_width <= 0:
            raise ValueError("Dirichlet problems need a positive collar width")
        if not self.mask.collar_fits():
            raise ValueError("collar width must be below half the domain diameter")

    @property
    def free(self) -> np.ndarray:
        return self.mask.active & ~self.mask.collar()


@dataclass
class MinimizeResult:
    v: VectorField
    energy_trace: np.ndarray
    grad_norm: float
    iterations: int
    stop_reason: str  # "converged", "line_search_failed" or "max_iters"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


class _TwoLoop:
    """Limited-memory quasi-Newton direction from gradient differences."""

    def __init__(self):
        #: (s, y, 1 / s.y, s.y) per kept pair, oldest first
        self.pairs: deque[tuple[np.ndarray, np.ndarray, float, float]] = deque(maxlen=_QN_MEMORY)

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s @ y)
        if sy > 1e-14 * float(s @ s) ** 0.5 * float(y @ y) ** 0.5:
            self.pairs.append((s, y, 1.0 / sy, sy))  # the oldest pair drops out

    def direction(self, grad: np.ndarray) -> np.ndarray:
        if not self.pairs:
            return -grad
        q = grad.copy()
        alphas = []
        for ss, yy, rr, _ in reversed(self.pairs):
            a = rr * float(ss @ q)
            alphas.append(a)
            q -= a * yy
        _, yy, _, sy = self.pairs[-1]
        q *= sy / float(yy @ yy)
        for (ss, yy, rr, _), a in zip(self.pairs, reversed(alphas)):
            b = rr * float(yy @ q)
            q += (a - b) * ss
        return -q


def minimize_Fng(prob: DirichletProblem, v0: VectorField | None = None,
                 pairs: PairSet | None = None) -> MinimizeResult:
    """Projected descent on the nonlocal energy with an exact collar constraint.

    Iterates are feasible at every step (collar nodes are bit-identical to
    the datum) and the energy trace does not increase.  Each line-search
    trial takes its energy and gradient from one bond pass, and the accepted
    trial's gradient drives the next step.  ``stop_reason`` says why the
    descent ended: the gradient tolerance was met, no trial step lowered the
    energy (or every step rounded away), or ``max_iters`` ran out.
    """
    grid = prob.mask.grid
    tol = _GRAD_TOL_1D if grid.dim == 1 else _GRAD_TOL
    if pairs is None:
        pairs = build_pairs(grid, prob.mask, prob.kernel.support_radius)
    free = prob.free

    vals = (v0.values if v0 is not None else prob.g.values).copy()
    vals[~free] = prob.g.values[~free]
    ws = _Workspace(pairs, prob.kernel)

    def energy_grad(a: np.ndarray) -> tuple[float, np.ndarray]:
        rep, g = _Fn_pass(VectorField(grid, a), prob.mask, prob.kernel, prob.phi,
                          prob.m, pairs, ws=ws)
        g = g.values.copy()
        g[~free] = 0.0
        return rep.value, g

    e, gr = energy_grad(vals)
    trace = [e]
    qn = _TwoLoop()
    stop_reason = "max_iters"
    it = 0
    while not (grad_norm := float(np.max(np.abs(gr)))) <= tol and it < prob.max_iters:
        it += 1
        d = qn.direction(gr.ravel()).reshape(gr.shape)
        slope = float(np.sum(d * gr))
        if slope >= 0:  # not a descent direction; fall back
            d = -gr
            slope = -float(np.sum(gr * gr))
        t = 1.0
        accepted = False
        for _ in range(60):
            cand = vals + t * d
            cand[~free] = prob.g.values[~free]
            if np.array_equal(cand, vals):
                break  # the step rounds away, and so will every shorter one
            e_new, gr_new = energy_grad(cand)
            if np.isfinite(e_new) and e_new <= e + _ARMIJO_SLOPE * t * slope:
                accepted = True
                break
            t *= _ARMIJO_SHRINK
        if not accepted:
            stop_reason = "line_search_failed"
            break
        qn.push((cand - vals).ravel(), (gr_new - gr).ravel())
        vals, e, gr = cand, e_new, gr_new
        trace.append(e)
    if grad_norm <= tol:
        stop_reason = "converged"
    return MinimizeResult(VectorField(grid, vals), np.asarray(trace), grad_norm, it, stop_reason)


def default_starts(prob: DirichletProblem, seed: int = 0) -> list[VectorField]:
    """The three standard starts: the datum, a sinusoidal perturbation of it,
    and a laminate-type zigzag perturbation."""
    grid = prob.mask.grid
    x = grid.nodes()
    lo, span = grid.origin, grid.extent
    rng = np.random.Generator(np.random.Philox(seed))
    amp = 0.05 * span

    sin_pert = prob.g.values + amp * np.stack(
        [np.prod(np.sin(np.pi * (x - lo) / span), axis=1)
         * (1.0 + 0.1 * rng.standard_normal()) for _ in range(grid.dim)], axis=-1)

    k = 4
    zig = prob.g.values.copy()
    for i in range(grid.dim):
        ti = (x[:, i] - lo) / span
        zig[:, i] = zig[:, i] + (amp / k) * (laminate_profile(0.5, k * ti) - 0.09375)
    return [prob.g, VectorField(grid, sin_pert), VectorField(grid, zig)]


def minimize_multistart(prob: DirichletProblem, seed: int = 0) -> MinimizeResult:
    """Best-of minimization over the standard starts (the energy is nonconvex)."""
    pairs = build_pairs(prob.mask.grid, prob.mask, prob.kernel.support_radius)
    return min((minimize_Fng(prob, v0, pairs=pairs) for v0 in default_starts(prob, seed)),
               key=lambda res: res.energy_trace[-1])  # the first of equal ones


# ---------------------------------------------------------------------------
# linearization driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearizationRow:
    eps: float
    E_eps: float
    abs_err: float
    flagged: bool


@dataclass(frozen=True)
class LinearizationTable:
    rows: tuple[LinearizationRow, ...]
    E0: float
    slope: float | None

    def errors(self) -> np.ndarray:
        return np.array([r.abs_err for r in self.rows if not r.flagged])


def linearization_experiment(u: VectorField, w: MicroPotential, m: float,
                             eps_list: Sequence[float],
                             support_radius: float | None = None) -> LinearizationTable:
    """Convergence of the rescaled energies to the quadratic limit at fixed u.

    Evaluates E_eps(u) for each eps and the quadratic energy built from the
    interaction kernel ``w.psi_ss0`` in one pass over the bonds within
    ``support_radius`` (required) and compares them; rows where a bond leaves
    the admissible strain domain are flagged and excluded from the rate fit.
    """
    _, double, values = _linearized_pass(u, None, support_radius, w.psi_ss0, w, m, eps_list)
    E0 = 0.5 * double
    rows = []
    for eps, val in zip(eps_list, values):
        if isinstance(val, StrainDomainError):
            rows.append(LinearizationRow(float(eps), float("nan"), float("nan"), True))
        else:
            rows.append(LinearizationRow(float(eps), float(val), abs(val - E0), False))
    good = [(r.eps, r.abs_err) for r in rows if not r.flagged and r.abs_err > 0]
    slope = None
    if len(good) >= 2:
        le = np.log([g[0] for g in good])
        lv = np.log([g[1] for g in good])
        slope = float(np.polyfit(le, lv, 1)[0])
    return LinearizationTable(tuple(rows), float(E0), slope)


# ---------------------------------------------------------------------------
# localization driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalizationRow:
    n: int
    energy: float
    lp_dist_prev: float
    lower_int: float
    tilde_int: float


def _discrete_gradients(v: VectorField) -> np.ndarray:
    """Per-node gradient matrices by central differences, shape (N, d, d)."""
    g = v.grid
    d = g.dim
    grads = np.gradient(v.values.reshape(*g.shape, d), g.h, axis=tuple(range(d)),
                        edge_order=1)
    return np.stack(grads if d > 1 else [grads], axis=-1).reshape(g.n_nodes, d, d)


def localization_experiment(g_datum: Callable[[np.ndarray], np.ndarray] | np.ndarray,
                            phi: Potential, m: float, seq: KernelSequence,
                            n_values: Sequence[int],
                            grid_law: Callable[[int], Grid],
                            collar_width: float,
                            seed: int = 0) -> list[LocalizationRow]:
    """Constrained minimizers along a concentrating kernel sequence.

    For each n a Dirichlet problem with datum g is minimized; the report
    lists the minimal energies, discrete L^{m p} distances between successive
    minimizers (injected to the finer grid by nearest-node sampling), and
    the integrals of the two density bounds over the discrete gradient of
    the minimizer, which bracket the limiting energy; the bounds average over
    a sphere quadrature of order 64.
    """
    lp = m * phi.p
    rows: list[LocalizationRow] = []
    prev: VectorField | None = None
    for n in n_values:
        grid = grid_law(n)
        kernel = seq[n]
        mask = full_mask(grid, collar_width)
        datum = (field_from_function(grid, g_datum) if callable(g_datum)
                 else affine_field(grid, g_datum))
        prob = DirichletProblem(mask, datum, kernel, phi, m)
        res = minimize_multistart(prob, seed=seed)
        vstar = res.v

        dist = float("nan")
        if prev is not None:
            fine, coarse = (vstar, prev) if vstar.grid.n_nodes >= prev.grid.n_nodes else (prev, vstar)
            xf = fine.grid.nodes()
            inj = coarse.values[coarse.grid.nearest_node(xf)]
            diff = np.linalg.norm(fine.values - inj, axis=1)
            dist = float((fine.grid.cell_volume * np.sum(diff**lp)) ** (1.0 / lp))

        grads = _discrete_gradients(vstar)[mask.active]
        q = sphere_quadrature(grid.dim, 64)
        vol = grid.cell_volume
        lower_int = float(vol * np.sum(density_lower_batch(grads, phi, m, q)))
        tilde_int = float(vol * np.sum(density_tilde_batch(grads, phi, m, q)))
        rows.append(LocalizationRow(int(n), float(res.energy_trace[-1]),
                                    dist, lower_int, tilde_int))
        prev = vstar
    return rows
