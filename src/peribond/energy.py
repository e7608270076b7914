"""Discretized double-integral energies, the seminorm [v]_W and analytic gradients.

All double integrals are midpoint sums over active node pairs within the
kernel support, diagonal excluded.  On a uniform grid every bond x -> x + xi
belongs to one integer-offset class, so a pair set is a list of offsets, each
a pair of shifted blocks of the grid.  Each unordered pair is enumerated once
in a fixed (offset-major, node-minor) order and doubled, so repeated
evaluations are bit-identical; numpy's pairwise summation keeps the reduction
deterministic.

A bond sum gathers v(x + xi) - v(x) and scatters gradients in one of two
ways, chosen by the pair set's size, with bit-identical results.  A set of one
run of offsets (see ``_RUN_BONDS``) multiplies by its signed incidence matrix
D and by D^T; a larger set uses slice arithmetic and slice adds per offset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .grids import Grid, SubdomainMask, VectorField
from .kernels import Kernel
from .materials import MicroPotential, Potential, strain

#: Consecutive offsets are processed together until they hold this many
#: bonds.  One offset at a time costs a profile and potential call per offset,
#: which dominates on small grids with many short offsets; all bonds at once
#: holds several (d, P) temporaries and raises peak memory on large grids.
#: Only a set of one run gathers and scatters through its incidence matrix:
#: a fused pass over 18k bonds takes 1.3 ms that way against 2.1 ms by
#: slices, but one over 162k bonds 11.3 ms against 8.0 ms, and the two
#: matrices store 52 bytes a bond.
_RUN_BONDS = 1 << 15
_ALL = slice(None)


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
    h: float


@dataclass(frozen=True, eq=False)
class _Offset:
    """The bonds x -> x + xi of one integer offset between active nodes.

    ``src`` is the block of bond tails and ``dst`` the same block shifted by
    the offset.  ``keep`` masks the flattened block to the bonds whose ends
    are both active; it is None when every bond of the block is.
    """

    xi: np.ndarray
    r: float
    src: tuple[slice, ...]
    dst: tuple[slice, ...]
    shape: tuple[int, ...]
    keep: np.ndarray | None
    n: int


class _Run:
    """Consecutive offsets whose bonds one bond-sum step handles together."""

    def __init__(self, offsets: list[_Offset]):
        self.offsets = offsets
        self.counts = np.array([o.n for o in offsets])
        self.n = int(self.counts.sum())
        self.r = np.array([o.r for o in offsets])
        self.xi = np.array([o.xi for o in offsets]).T

    def per_bond(self, per_offset: np.ndarray) -> np.ndarray:
        """Repeat one value (or column) per offset over the offset's bonds."""
        return np.repeat(per_offset, self.counts, axis=-1)

    def segments(self, bonds: np.ndarray) -> Iterator[tuple[_Offset, np.ndarray]]:
        """Split a component-major (d, n) block into its offsets' parts."""
        k = 0
        for o in self.offsets:
            yield o, bonds[:, k:k + o.n]
            k += o.n


class _Incidence:
    """The signed bond-node incidence matrix D of a pair set, and its transpose.

    Row k of D holds +1 at the head of bond k and then -1 at its tail, so
    D v is v(head) - v(tail) exactly: scipy's CSR product sums each row from
    0 in stored order, and a product with +-1 is exact.  Each row of D^T lists
    the node's bonds in bond order, so D^T c adds a node's terms in the order
    of the slice scatter: offset-major, and within an offset the bond whose
    head is the node before the bond whose tail is.
    """

    def __init__(self, tails: np.ndarray, heads: np.ndarray, n_nodes: int):
        from scipy import sparse  # here, not at the top: most runs build no such set
        n = len(tails)
        nodes = np.empty(2 * n, dtype=np.int32)
        nodes[0::2], nodes[1::2] = heads, tails
        self.D = sparse.csr_array((np.tile([1.0, -1.0], n), nodes,
                                   np.arange(0, 2 * n + 1, 2, dtype=np.int32)),
                                  shape=(n, n_nodes))
        self.Dt = self.D.T.tocsr()


class PairSet:
    """Unordered active-node pairs within a cutoff radius on a uniform grid.

    Pairs are held per integer offset, in sorted offset order: each offset
    carries its exact bond vector and length and the two blocks of the
    active nodes' bounding box that it connects.  Every bond sum visits the
    bonds offset by offset, and within an offset in node order.  A set whose
    offsets form a single run also holds its signed incidence matrix, which
    bond sums use in place of the per-offset slices.
    """

    def __init__(self, grid: Grid, active: np.ndarray, radius: float):
        self.grid = grid
        h = grid.h
        active = np.asarray(active, dtype=bool).reshape(grid.n_cells)

        offsets: list[_Offset] = []
        if active.any():
            nonzero = np.nonzero(active)
            lo = [int(a.min()) for a in nonzero]
            hi = [int(a.max()) + 1 for a in nonzero]
            dense = bool(active[tuple(map(slice, lo, hi))].all())
            caps = np.minimum(np.floor(radius / h + 1e-12).astype(int),
                              np.subtract(hi, lo) - 1)
            ranges = [range(-c, c + 1) for c in caps]
            ranges[0] = range(0, caps[0] + 1)  # lexicographically positive only
            for o in itertools.product(*ranges):  # already in sorted order
                if all(c == 0 for c in o):
                    continue
                if o[0] == 0 and next(c for c in o if c != 0) < 0:
                    continue
                xi = np.asarray(o) * h
                r = float(np.linalg.norm(xi))
                if r > radius + 1e-12:
                    continue
                src = tuple(slice(a + max(0, -k), b - max(0, k)) for k, a, b in zip(o, lo, hi))
                dst = tuple(slice(a + max(0, k), b - max(0, -k)) for k, a, b in zip(o, lo, hi))
                shape = tuple(s.stop - s.start for s in src)
                keep = None if dense else (active[src] & active[dst]).ravel()
                if keep is not None and keep.all():
                    keep = None
                n = int(np.prod(shape)) if keep is None else int(keep.sum())
                if n:
                    offsets.append(_Offset(xi, r, src, dst, shape, keep, n))

        self._runs: list[_Run] = []
        start, held = 0, 0
        for k, o in enumerate(offsets):
            held += o.n
            if held >= _RUN_BONDS or k == len(offsets) - 1:
                self._runs.append(_Run(offsets[start:k + 1]))
                start, held = k + 1, 0
        self._n = sum(run.n for run in self._runs)
        self._incidence = None
        if len(self._runs) == 1:
            tails, heads = zip(*map(self._nodes, offsets))
            self._incidence = _Incidence(np.concatenate(tails), np.concatenate(heads),
                                         grid.n_nodes)

    def __len__(self) -> int:
        return self._n

    @cached_property
    def _index(self) -> np.ndarray:
        """The flat node index of every grid node, in the grid's shape."""
        return np.arange(self.grid.n_nodes).reshape(self.grid.n_cells)

    def _nodes(self, o: _Offset) -> tuple[np.ndarray, np.ndarray]:
        """Flat node indices of one offset's bond tails and heads."""
        i, j = self._index[o.src].ravel(), self._index[o.dst].ravel()
        return (i, j) if o.keep is None else (i[o.keep], j[o.keep])

    def _pair(self, run: _Run, k: int) -> tuple[int, int]:
        """The node pair of bond ``k`` of ``run``."""
        ends = np.cumsum(run.counts)
        q = int(np.searchsorted(ends, k, side="right"))
        i, j = self._nodes(run.offsets[q])
        k -= int(ends[q] - run.counts[q])
        return int(i[k]), int(j[k])


def build_pairs(grid: Grid, mask: SubdomainMask | None, radius: float) -> PairSet:
    active = mask.active if mask is not None else np.ones(grid.n_nodes, dtype=bool)
    return PairSet(grid, active, radius)


def _bond_runs(pairs: PairSet, values: np.ndarray) -> Iterator[tuple[_Run, np.ndarray, np.ndarray]]:
    """Per run of offsets: the differences v(x + xi) - v(x) as one contiguous
    component-major (d, n) block, and the per-bond lengths |xi|, in
    offset-major, node-minor order.  Component-major keeps every per-bond
    reduction over components a sum of contiguous rows."""
    d = values.shape[1]
    columns = np.ascontiguousarray(values.T)
    if pairs._incidence is not None:
        (run,) = pairs._runs
        D = pairs._incidence.D
        yield run, np.stack([D @ col for col in columns]), run.per_bond(run.r)
        return
    shaped = columns.reshape(d, *pairs.grid.n_cells)
    for run in pairs._runs:
        dv = np.empty((d, run.n))
        for o, seg in run.segments(dv):
            head, tail = shaped[(_ALL, *o.dst)], shaped[(_ALL, *o.src)]
            if o.keep is None:
                np.subtract(head, tail, out=seg.reshape(d, *o.shape))
            else:
                seg[...] = (head - tail).reshape(d, -1)[:, o.keep]
        yield run, dv, run.per_bond(run.r)


def _scatter(pairs: PairSet, run: _Run, bonds: np.ndarray, out: np.ndarray) -> None:
    """Add a run's component-major (d, n) bond block to the nodal block
    ``out`` of shape (d, *n_cells): plus at each bond's head, minus at its
    tail, in offset-major, node-minor order."""
    if pairs._incidence is not None:
        for col, add in zip(out.reshape(len(bonds), -1), bonds):
            col += pairs._incidence.Dt @ add
        return
    d = len(bonds)
    for o, seg in run.segments(bonds):
        if o.keep is None:
            block = seg.reshape(d, *o.shape)
        else:
            block = np.zeros((d, *o.shape))
            block.reshape(d, -1)[:, o.keep] = seg
        out[(_ALL, *o.dst)] += block
        out[(_ALL, *o.src)] -= block


def _norm(a: np.ndarray) -> np.ndarray:
    """Column norms of a component-major (d, n) block."""
    return np.sqrt(np.einsum("kp,kp->p", a, a))


def _mean_h(grid: Grid) -> float:
    return float(np.mean(grid.h))


def _Fn_pass(v: VectorField, A: SubdomainMask, kernel: Kernel, phi: Potential,
             m: float, pairs: PairSet | None, energy: bool = True,
             gradient: bool = True) -> tuple[EnergyReport | None, VectorField | None]:
    """One pass over the bonds of F_n: the energy and its nodal gradient.

    Stretches, strains and kernel weights are formed once per run and feed
    both the Phi sum and the gradient scatter; either can be left out.
    Pairs with coincident deformed positions get a zero gradient
    contribution: the stretch direction is undefined there and, for
    smooth-at-zero profiles, the true subgradient contains 0.
    """
    if gradient and not phi.smooth_at_zero:
        raise ValueError("profile has Phi'(0+) > 0; use gradient-free experiments")
    g = v.grid
    if pairs is None:
        pairs = build_pairs(g, A, kernel.support_radius)
    w2 = 2.0 * g.cell_volume**2
    total = 0.0
    out = np.zeros((g.dim, *g.n_cells)) if gradient else None
    for run, dv, r in _bond_runs(pairs, v.values):
        norm_dv = _norm(dv)
        t = norm_dv / r
        if not np.all(np.isfinite(t)):
            raise ValueError("non-finite stretch encountered")
        s = strain(m, t)
        sign = np.sign(s) if gradient else None
        a = np.abs(s, out=s)  # only the sign of s is used after this
        rho = run.per_bond(kernel(run.r))
        if energy:
            total += float(np.sum(rho * phi(a)))
        if gradient:
            # d/dt Phi(|s_m(t)|) = Phi'(|s|) sign(s) t^(m-1), built in place:
            # each per-bond temporary held across a run raises peak memory
            coeff = w2 * rho
            coeff *= phi.d(a)
            coeff *= sign
            if m != 1:
                coeff *= t ** (m - 1.0)
            dv *= np.divide(coeff, norm_dv * r, out=np.zeros_like(norm_dv), where=norm_dv > 0)
            _scatter(pairs, run, dv, out)
        # the bond block and lengths, the largest of this run's arrays, are
        # freed before the next run is gathered; freeing every per-bond array
        # here made the allocator hand the memory back and fault it in again
        del dv, r
    grad = VectorField(g, out.reshape(g.dim, g.n_nodes).T) if gradient else None
    if not energy:
        return None, grad
    return EnergyReport(w2 * total, 2 * len(pairs), _mean_h(g)), grad


def energy_Fn(v: VectorField, A: SubdomainMask, kernel: Kernel, phi: Potential,
              m: float = 1.0, pairs: PairSet | None = None) -> EnergyReport:
    """Localized nonconvex energy: double sum of rho(x-y) Phi(|s_m[v](x,y)|)."""
    return _Fn_pass(v, A, kernel, phi, m, pairs, gradient=False)[0]


def gradient_Fn(v: VectorField, A: SubdomainMask, kernel: Kernel, phi: Potential,
                m: float = 1.0, pairs: PairSet | None = None) -> VectorField:
    """Analytic nodal gradient of :func:`energy_Fn`."""
    return _Fn_pass(v, A, kernel, phi, m, pairs, energy=False)[1]


def energy_gradient_Fn(v: VectorField, A: SubdomainMask, kernel: Kernel, phi: Potential,
                       m: float = 1.0, pairs: PairSet | None = None
                       ) -> tuple[EnergyReport, VectorField]:
    """:func:`energy_Fn` and :func:`gradient_Fn` from one pass over the bonds,
    each bit-identical to the separate call."""
    return _Fn_pass(v, A, kernel, phi, m, pairs)


def _load_term(u: VectorField, l: VectorField | None) -> float:
    if l is None:
        return 0.0
    return float(u.grid.cell_volume * np.sum(l.values * u.values))


def _linearized_pass(u: VectorField, pairs: PairSet | None, support_radius: float | None,
                     rho: Callable[[np.ndarray], np.ndarray] | Kernel | None = None,
                     w: MicroPotential | None = None, m: float = 1.0,
                     eps_list: Sequence[float] = ()) -> tuple[PairSet, float, list]:
    """One pass over the bonds of the linearization table.

    Returns the pairs, the double sum of rho(|xi|) ((u(x + xi) - u(x)) . xi /
    |xi|^2)^2 (0 without ``rho``) and, per eps, eps^-2 times the double sum of
    w(xi, s_m[x + eps u]).  A bond whose deformed length vanishes puts the
    strain on the boundary of its domain: that eps gets the
    :class:`StrainDomainError` naming the first such bond in offset-major,
    node-minor order and takes no further work.  Each number is bit-identical
    to a pass of its own.
    """
    if any(eps <= 0 for eps in eps_list):
        raise ValueError("eps must be positive")
    g = u.grid
    if pairs is None:
        if support_radius is None:
            support_radius = getattr(rho, "support_radius", None)
            if support_radius is None:
                raise ValueError("pairs or support_radius is required")
        pairs = build_pairs(g, None, support_radius)
    xrho = 0.0
    totals: list = [0.0] * len(eps_list)
    for run, du, r in _bond_runs(pairs, u.values):
        if rho is not None:
            du_dot = np.einsum("kp,kp->p", du, run.per_bond(run.xi)) / r**2
            xrho += float(np.sum(run.per_bond(rho(run.r)) * du_dot**2))
            del du_dot  # held through the eps loop, it would raise peak memory
        for k, eps in enumerate(eps_list):
            if isinstance(totals[k], StrainDomainError):
                continue
            delta = du * eps
            for o, seg in run.segments(delta):
                seg += o.xi[:, None]
            t = _norm(delta) / r
            del delta, seg  # held while w runs, they would set the pass's peak memory
            if np.any(t <= 0):
                i, j = pairs._pair(run, int(np.argmax(t <= 0)))
                totals[k] = StrainDomainError(
                    f"bond stretch vanished for node pair ({i}, {j})", pair=(i, j))
            else:
                totals[k] += float(np.sum(w(r, strain(m, t))))
            del t  # held into the next eps, it would raise peak memory
    w2 = 2.0 * g.cell_volume**2
    return pairs, w2 * xrho, [s if isinstance(s, StrainDomainError) else w2 * s / eps**2
                                for s, eps in zip(totals, eps_list)]


def energy_E_eps(u: VectorField, w: MicroPotential, m: float, eps: float,
                 l: VectorField | None = None, support_radius: float | None = None,
                 pairs: PairSet | None = None) -> EnergyReport:
    """Rescaled small-displacement energy of the deformation x + eps*u.

    Value is eps^-2 times the double sum of w(y-x, s_m[x + eps u]) minus the
    load term, over ``pairs`` or else the bonds within ``support_radius``
    (one of the two is required).  A bond whose deformed length vanishes puts
    the strain on the boundary of its domain and raises
    :class:`StrainDomainError`; its ``pair`` is the first such bond in
    offset-major, node-minor order.
    """
    pairs, _, (value,) = _linearized_pass(u, pairs, support_radius, w=w, m=m,
                                          eps_list=(eps,))
    if isinstance(value, StrainDomainError):
        raise value
    return EnergyReport(float(value - _load_term(u, l)), 2 * len(pairs), _mean_h(u.grid))


def energy_E0(u: VectorField, rho: Callable[[np.ndarray], np.ndarray] | Kernel,
              l: VectorField | None = None, support_radius: float | None = None,
              pairs: PairSet | None = None) -> EnergyReport:
    """Quadratic linearized energy (1/2) * double sum of rho * (Du . Di)^2 - load."""
    pairs, double, _ = _linearized_pass(u, pairs, support_radius, rho)
    value = 0.5 * double - _load_term(u, l)
    return EnergyReport(float(value), 2 * len(pairs), _mean_h(u.grid))


def seminorm_W(v: VectorField, kernel: Kernel, p: float,
               A: SubdomainMask | None = None, pairs: PairSet | None = None) -> float:
    """p-th power of the nonlocal seminorm: double sum of rho |v(x)-v(y)|^p / |x-y|^p."""
    if pairs is None:
        pairs = build_pairs(v.grid, A, kernel.support_radius)
    total = 0.0
    for run, dv, r in _bond_runs(pairs, v.values):
        total += float(np.sum(run.per_bond(kernel(run.r)) * (_norm(dv) / r)**p))
    return float(2.0 * v.grid.cell_volume**2 * total)

