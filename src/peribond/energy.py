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
run of offsets (see ``_RUN_BONDS``) gathers through the index array of its
bond ends with ``np.take`` and scatters with one ``np.bincount`` per
component; a larger set uses slice arithmetic and slice adds per offset.

Every pass keeps its per-bond temporaries in scratch rows sized to the
largest run, allocated once per call or once per minimization: at 18,488
bonds each is 148 KB, over glibc's 128 KiB mmap threshold, so allocating ~20
a pass meant page-faulting them in anew.  Per-offset values (|xi| and
rho(|xi|)) enter as per-bond arrays: a minimization's ``_Workspace`` holds
them per run, and a one-off pass writes them into scratch rows that its
temporaries take over once they are read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .grids import Grid, SubdomainMask, VectorField
from .kernels import Kernel
from .materials import MicroPotential, Potential, _strain

#: Consecutive offsets are processed together until they hold this many
#: bonds.  One offset at a time costs a profile and potential call per offset,
#: which dominates on small grids with many short offsets; all bonds at once
#: holds several (d, P) temporaries and raises peak memory on large grids.
#: Only a set of one run gathers and scatters through its array of bond
#: ends: a workspace pass over 18k bonds takes 0.45 ms that way against
#: 0.82 ms by slices, but one over 240k bonds 8.2 ms against 6.2 ms, and the
#: array holds 16 bytes a bond.
_RUN_BONDS = 1 << 15
_ALL = slice(None)

#: q = t^2 - 1 carries an absolute rounding error of a few units of 2^-53,
#: so 1 + q loses t^2's digits as t shrinks.  A bond with q below this takes
#: its stretch t from its deformed bond vector instead, and s_m(t) =
#: (t^m - 1) / m, which does not cancel there.
_COMPRESSED = -0.5


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

    def per_bond(self, per_offset: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write one value per offset over the offset's bonds into ``out``."""
        for (_, seg), c in zip(self.segments(out), per_offset.tolist()):
            seg.fill(c)
        return out

    def segments(self, bonds: np.ndarray) -> Iterator[tuple[_Offset, np.ndarray]]:
        """Split per-bond values, bonds on the last axis, into its offsets' parts."""
        k = 0
        for o in self.offsets:
            yield o, bonds[..., k:k + o.n]
            k += o.n


class PairSet:
    """Unordered active-node pairs within a cutoff radius on a uniform grid.

    Pairs are held per integer offset, in sorted offset order: each offset
    carries its exact bond vector and length and the two blocks of the
    active nodes' bounding box that it connects.  Every bond sum visits the
    bonds offset by offset, and within an offset in node order.  A set whose
    offsets form a single run also holds ``_ends``, the flat node indices of
    its bond ends in bond order: the head of bond k at 2k and its tail at
    2k + 1.  Bond sums use it in place of the per-offset slices.

    ``np.bincount`` adds its weights into each node in entry order from 0, so
    +c at heads and -c at tails add a node's terms in the order of the slice
    scatter: offset-major, and within an offset the bond whose head is the
    node before the bond whose tail is.
    """

    def __init__(self, grid: Grid, active: np.ndarray, radius: float):
        self.grid = grid
        active = np.asarray(active, dtype=bool).reshape(grid.shape)

        offsets: list[_Offset] = []
        if active.any():
            nonzero = np.nonzero(active)
            lo = [int(a.min()) for a in nonzero]
            hi = [int(a.max()) + 1 for a in nonzero]
            dense = bool(active[tuple(map(slice, lo, hi))].all())
            caps = np.minimum(np.floor(radius / grid.h + 1e-12).astype(int),
                              np.subtract(hi, lo) - 1)
            for o in itertools.product(*(range(-c, c + 1) for c in caps)):  # sorted
                if o <= (0,) * grid.dim:  # lexicographically positive only
                    continue
                xi = np.asarray(o) * grid.h
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
        self._ends = None
        if len(self._runs) == 1:
            tails, heads = zip(*map(self._nodes, offsets))
            self._ends = np.column_stack([np.concatenate(heads), np.concatenate(tails)]).ravel()

    def __len__(self) -> int:
        return sum(run.n for run in self._runs)

    @cached_property
    def _index(self) -> np.ndarray:
        """The flat node index of every grid node, in the grid's shape."""
        return np.arange(self.grid.n_nodes).reshape(self.grid.shape)

    def _nodes(self, o: _Offset) -> tuple[np.ndarray, np.ndarray]:
        """Flat node indices of one offset's bond tails and heads."""
        i, j = self._index[o.src].ravel(), self._index[o.dst].ravel()
        return (i, j) if o.keep is None else (i[o.keep], j[o.keep])

    def _deformed(self, run: _Run, values: np.ndarray, eps: float, bonds: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For the bonds ``bonds`` (ascending) of ``run``: their tail and head
        nodes and the component-major block of their deformed bond vectors
        xi + eps (v(head) - v(tail))."""
        ends = np.cumsum(run.counts)
        which = np.searchsorted(ends, bonds, side="right")
        tails, heads = np.empty_like(bonds), np.empty_like(bonds)
        deformed = np.empty((values.shape[1], len(bonds)))
        for q in np.unique(which).tolist():
            at = which == q
            i, j = self._nodes(run.offsets[q])
            k = bonds[at] - (ends[q] - run.counts[q])
            tails[at], heads[at] = i[k], j[k]
            deformed[:, at] = (values[j[k]] - values[i[k]]).T * eps + run.offsets[q].xi[:, None]
        return tails, heads, deformed


def build_pairs(grid: Grid, mask: SubdomainMask | None, radius: float) -> PairSet:
    active = mask.active if mask is not None else np.ones(grid.n_nodes, dtype=bool)
    return PairSet(grid, active, radius)


#: scratch rows an F_n pass holds at once; the energy alone holds three
_FN_ROWS = 6


class _Scratch:
    """Per-bond buffers for passes over one pair set, sized to its largest
    run: ``rows`` rows of temporaries and a component-major bond block.
    Each run of a pass overwrites them.  A set of one run gathers its (n, 2, d)
    bond-end values into the first 2d rows before a pass reads a row, and
    puts its scatter weights in the first two once the pass is done."""

    def __init__(self, pairs: PairSet, rows: int):
        n = max((run.n for run in pairs._runs), default=0)
        d = pairs.grid.dim
        self.temps = np.empty((rows if pairs._ends is None else max(rows, 2 * d), n))
        self.dv = np.empty(d * n)

    def row(self, slot: int, n: int, dtype: type = float) -> np.ndarray:
        """The first n values of row ``slot`` (negative counts from the last),
        uninitialized."""
        return self.temps[slot].view(dtype)[:n]


class _Workspace(_Scratch):
    """What the F_n passes of one minimization share: per run, the per-bond
    lengths |xi| and kernel weights rho, and the scratch of an F_n pass."""

    def __init__(self, pairs: PairSet, kernel: Kernel):
        super().__init__(pairs, _FN_ROWS)
        self.lengths = [run.per_bond(run.r, np.empty(run.n)) for run in pairs._runs]
        self.rho = [run.per_bond(kernel(run.r), np.empty(run.n)) for run in pairs._runs]


def _bond_runs(pairs: PairSet, values: np.ndarray, buf: _Scratch
               ) -> Iterator[tuple[_Run, np.ndarray]]:
    """Per run of offsets: the differences v(x + xi) - v(x) as one contiguous
    component-major (d, n) block in ``buf.dv``, in offset-major, node-minor
    order.  Component-major keeps every per-bond reduction over components a
    sum of contiguous rows."""
    d = values.shape[1]
    if pairs._ends is not None:  # then there is one run
        run, = pairs._runs
        at = buf.temps[:2 * d].reshape(run.n, 2, d)
        # "clip" writes into out directly; indices are in range
        np.take(values, pairs._ends, axis=0, out=at.reshape(2 * run.n, d), mode="clip")
        yield run, np.subtract(at[:, 0].T, at[:, 1].T, out=buf.dv.reshape(d, run.n))
        return
    shaped = np.ascontiguousarray(values.T).reshape(d, *pairs.grid.shape)
    for run in pairs._runs:
        dv = buf.dv[:d * run.n].reshape(d, run.n)
        for o, seg in run.segments(dv):
            head, tail = shaped[(_ALL, *o.dst)], shaped[(_ALL, *o.src)]
            if o.keep is None:
                np.subtract(head, tail, out=seg.reshape(d, *o.shape))
            else:
                seg[...] = (head - tail).reshape(d, -1)[:, o.keep]
        yield run, dv


def _scatter(pairs: PairSet, run: _Run, bonds: np.ndarray, out: np.ndarray,
             buf: _Scratch) -> None:
    """Add a run's component-major (d, n) bond block to the nodal block
    ``out`` of shape (d, *grid.shape): plus at each bond's head, minus at its
    tail, in offset-major, node-minor order."""
    if pairs._ends is not None:
        at = buf.temps[:2].reshape(run.n, 2)
        for col, add in zip(out.reshape(len(bonds), -1), bonds):
            at[:, 0] = add
            np.negative(add, out=at[:, 1])
            col += np.bincount(pairs._ends, weights=at.ravel(), minlength=len(col))
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


def _norm(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Column norms of a component-major (d, n) block."""
    return np.sqrt(np.einsum("kp,kp->p", a, a, out=out), out=out)


def _Fn_pass(v: VectorField, A: SubdomainMask, kernel: Kernel, phi: Potential,
             m: float, pairs: PairSet | None, energy: bool = True,
             gradient: bool = True, ws: _Workspace | None = None
             ) -> tuple[EnergyReport | None, VectorField | None]:
    """One pass over the bonds of F_n: the energy and its nodal gradient.

    Stretches, strains and kernel weights are formed once per run and feed
    both the Phi sum and the gradient scatter; either can be left out.
    Pairs with coincident deformed positions get a zero gradient
    contribution: the stretch direction is undefined there and, for
    smooth-at-zero profiles, the true subgradient contains 0.  A workspace
    ``ws`` of ``pairs`` and ``kernel`` changes where arrays live, not results.
    """
    if gradient and not phi.smooth_at_zero:
        raise ValueError("profile has Phi'(0+) > 0; use gradient-free experiments")
    g = v.grid
    if pairs is None:
        pairs = build_pairs(g, A, kernel.support_radius)
    w2 = 2.0 * g.cell_volume**2
    total = 0.0
    out = np.zeros((g.dim, *g.shape)) if gradient else None
    # Without a workspace, |xi| is written into t's row, and again into a
    # free row where the gradient needs it; rho into the row of the energy
    # terms or, with the gradient, of its coefficients.
    one_off = ws is None
    buf = _Scratch(pairs, _FN_ROWS if gradient else 3) if one_off else ws
    for k, (run, dv) in enumerate(_bond_runs(pairs, v.values, buf)):
        n = run.n
        norm_dv = _norm(dv, out=buf.row(0, n))
        r = run.per_bond(run.r, buf.row(1, n)) if one_off else ws.lengths[k]
        t = np.divide(norm_dv, r, out=buf.row(1, n))
        if not np.isfinite(t.max()):  # t is >= 0 or NaN, so one reduction tests it
            raise ValueError("non-finite stretch encountered")
        s = _strain(m, t, out=buf.row(2, n))
        sign = np.sign(s, out=buf.row(4, n)) if gradient else None
        a = np.abs(s, out=s)  # only the sign of s is used after this
        rho = (run.per_bond(kernel(run.r), buf.row(5 if gradient else 1, n)) if one_off
               else ws.rho[k])
        if energy:  # without the gradient, t is not read again
            total += float(np.sum(np.multiply(rho, phi(a), out=buf.row(3 if gradient else 1, n))))
        if gradient:
            # d/dt Phi(|s_m(t)|) = Phi'(|s|) sign(s) t^(m-1), built in place
            coeff = np.multiply(w2, rho, out=buf.row(5, n))
            coeff *= phi.d(a)
            coeff *= sign
            if m != 1:
                coeff *= np.power(t, m - 1.0, out=buf.row(3, n))
            div = buf.row(4, n)  # where sign was
            div.fill(0.0)
            r = run.per_bond(run.r, buf.row(3, n)) if one_off else r
            dv *= np.divide(coeff, np.multiply(norm_dv, r, out=buf.row(3, n)), out=div,
                            where=np.greater(norm_dv, 0, out=buf.row(1, n, bool)))
            _scatter(pairs, run, dv, out, buf)
    rep = EnergyReport(w2 * total, 2 * len(pairs), g.h) if energy else None
    return rep, VectorField(g, out.reshape(g.dim, g.n_nodes).T) if gradient else None


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


def _strain_of_q(m: float, q: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Overwrite q = t^2 - 1 > -1 with the strain s_m(t), using ``tmp``:
    q / (1 + sqrt(1 + q)) for m = 1 and expm1((m/2) log1p(q)) / m otherwise."""
    if m == 1:
        np.sqrt(np.add(q, 1.0, out=tmp), out=tmp)
        tmp += 1.0
        return np.divide(q, tmp, out=q)
    np.log1p(q, out=q)
    q *= 0.5 * m
    return np.divide(np.expm1(q, out=q), m, out=q)


def _linearized_pass(u: VectorField, pairs: PairSet | None, support_radius: float | None,
                     rho: Callable[[np.ndarray], np.ndarray] | None = None,
                     w: MicroPotential | None = None, m: float = 1.0,
                     eps_list: Sequence[float] = ()) -> tuple[PairSet, float, list]:
    """One pass over the bonds of the linearization table.

    Returns the pairs, the double sum of rho(|xi|) a^2 (0 without ``rho``)
    and, per eps, eps^-2 times the double sum of w(xi, s_m[x + eps u]), with
    a, q and the strain as in :func:`energy_E_eps`.  An eps at which some
    bond's deformed length vanishes gets the :class:`StrainDomainError`
    naming the first such bond in offset-major, node-minor order and takes
    no further work.  Each number is bit-identical to a pass of its own.
    """
    if not all(0 < eps < math.inf for eps in eps_list):
        raise ValueError("eps must be positive and finite")
    if eps_list and m < 1:
        raise ValueError("strain order m must be >= 1")
    g = u.grid
    if pairs is None:
        if support_radius is None:
            raise ValueError("pairs or support_radius is required")
        pairs = build_pairs(g, None, support_radius)
    xrho = 0.0
    totals: list = [0.0] * len(eps_list)
    # rows a (then 2a), b and |xi|, and two spare rows: the bond block's,
    # dead once a and b are formed, and in 1D one more.  The spare rows take
    # E0's weights and terms, then q and the strain's temporary.
    d = g.dim
    buf = _Scratch(pairs, (3 if eps_list else 1) + (d == 1))
    for run, du in _bond_runs(pairs, u.values, buf):
        n = run.n
        a, b = buf.row(0, n), buf.row(1, n) if eps_list else None
        start = 0
        for o, du_o in run.segments(du):
            at, start = slice(start, start + o.n), start + o.n
            rr = o.r * o.r  # |xi|^2, as r**2 squares it
            np.divide(np.einsum("kp,k->p", du_o, o.xi, out=a[at]), rr, out=a[at])
            if eps_list:
                np.divide(np.einsum("kp,kp->p", du_o, du_o, out=b[at]), rr, out=b[at])
        spare = buf.dv[:n], buf.dv[n:2 * n] if d > 1 else buf.row(-1, n)
        if rho is not None:
            terms = np.square(a, out=spare[0])
            xrho += float(np.sum(np.multiply(run.per_bond(rho(run.r), spare[1]), terms,
                                             out=terms)))
        if not eps_list:
            continue
        r = run.per_bond(run.r, buf.row(2, n))
        a *= 2.0
        q, tmp = spare
        for k, eps in enumerate(eps_list):
            if isinstance(totals[k], StrainDomainError):
                continue
            np.multiply(b, eps, out=q)
            q += a
            q *= eps
            near = None
            if not q.min() >= _COMPRESSED:  # or some q is NaN
                near = np.flatnonzero(q < _COMPRESSED)
                tails, heads, deformed = pairs._deformed(run, u.values, eps, near)
                t = _norm(deformed) / r[near]
                if np.any(t <= 0):
                    first = int(np.argmax(t <= 0))
                    i, j = int(tails[first]), int(heads[first])
                    totals[k] = StrainDomainError(
                        f"bond stretch vanished for node pair ({i}, {j})", pair=(i, j))
                    continue
                q[near] = 0.0  # their strains are set below
            s = _strain_of_q(m, q, tmp)
            if near is not None:
                s[near] = _strain(m, t, out=t)
            totals[k] += float(np.sum(w(r, s)))
    w2 = 2.0 * g.cell_volume**2
    return pairs, w2 * xrho, [s if isinstance(s, StrainDomainError) else w2 * s / eps**2
                                for s, eps in zip(totals, eps_list)]


def energy_E_eps(u: VectorField, w: MicroPotential, m: float, eps: float,
                 support_radius: float | None = None,
                 pairs: PairSet | None = None) -> EnergyReport:
    """Rescaled small-displacement energy of the deformation x + eps*u.

    Value is eps^-2 times the double sum of w(y-x, s_m[x + eps u]) over
    ``pairs`` or else the bonds within ``support_radius`` (one of the two is
    required).  The strain comes from the squared stretch minus one,
    q = t^2 - 1 = eps (2a + eps b) with a = (u(y) - u(x)) . (y - x) /
    |y - x|^2 and b = |u(y) - u(x)|^2 / |y - x|^2, as q / (1 + sqrt(1 + q))
    for m = 1 and expm1((m/2) log1p(q)) / m otherwise: accurate to rounding
    at every eps, where t^m - 1 would cancel to an error growing like 1/eps.
    A strongly compressed bond, q < -1/2, takes its stretch t = |y - x +
    eps (u(y) - u(x))| / |y - x| from the deformed bond and s_m(t) =
    (t^m - 1) / m, which does not cancel there.  A bond whose deformed length
    vanishes (t = 0) puts the strain on the boundary of its domain and raises
    :class:`StrainDomainError`; its ``pair`` is the first such bond in
    offset-major, node-minor order.
    """
    pairs, _, (value,) = _linearized_pass(u, pairs, support_radius, w=w, m=m,
                                          eps_list=(eps,))
    if isinstance(value, StrainDomainError):
        raise value
    return EnergyReport(float(value), 2 * len(pairs), u.grid.h)


def energy_E0(u: VectorField, rho: Callable[[np.ndarray], np.ndarray],
              support_radius: float | None = None,
              pairs: PairSet | None = None) -> EnergyReport:
    """Quadratic linearized energy (1/2) * double sum of
    rho(|xi|) ((u(x + xi) - u(x)) . xi / |xi|^2)^2 over ``pairs`` or else the
    bonds within ``support_radius`` (one of the two is required)."""
    pairs, double, _ = _linearized_pass(u, pairs, support_radius, rho)
    return EnergyReport(float(0.5 * double), 2 * len(pairs), u.grid.h)


def seminorm_W(v: VectorField, kernel: Kernel, p: float,
               A: SubdomainMask | None = None, pairs: PairSet | None = None) -> float:
    """p-th power of the nonlocal seminorm: double sum of rho |v(x)-v(y)|^p / |x-y|^p."""
    if pairs is None:
        pairs = build_pairs(v.grid, A, kernel.support_radius)
    total = 0.0
    buf = _Scratch(pairs, 2)
    for run, dv in _bond_runs(pairs, v.values, buf):
        n = run.n
        t = np.divide(_norm(dv, out=buf.row(0, n)), run.per_bond(run.r, buf.row(1, n)),
                      out=buf.row(0, n))
        t **= p  # as t ** p computes it: squaring for p = 2
        rho = run.per_bond(kernel(run.r), buf.row(1, n))  # where |xi| was
        total += float(np.sum(np.multiply(rho, t, out=t)))
    return float(2.0 * v.grid.cell_volume**2 * total)
