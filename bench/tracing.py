"""In-memory spans around the public functions of each ``peribond`` module.

The traced run wraps the library from the benchmark's side, so the library
itself carries no instrumentation.  A public function is replaced in every
``peribond`` namespace that holds it, which catches calls where callers look
the name up (``peribond.solver.energy_Fn``, ``peribond.cli.compute_bounds``,
``peribond.energy_Fn``).  Four methods are wrapped on their classes.  The
untraced run installs no wrappers.

``constructions`` is reached only through ``solver.default_starts`` and is
not wrapped: its time is part of the solver layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

#: peribond module -> layer name; config belongs to the cli layer
MODULE_LAYER = {"grids": "grids", "kernels": "kernels", "materials": "materials",
                "energy": "energy", "density": "density", "solver": "solver",
                "cli": "cli", "config": "cli"}
LAYERS = tuple(dict.fromkeys(MODULE_LAYER.values()))

#: (module, class, method, span name)
METHODS = (("grids", "Grid", "nearest_node", "grids.nearest_node"),
           ("materials", "Potential", "__call__", "materials.potential"),
           ("materials", "Potential", "d", "materials.potential"),
           ("kernels", "Kernel", "__call__", "kernels.kernel"))

#: the laminate search evaluates a 7-point stencil in each of its four
#: parameters per refinement round (peribond.density.density_laminate_upper)
_REFINE_STENCIL = 7 ** 4


def laminate_candidates(search) -> int:
    """Candidates of one laminate search: the initial grid plus refinements."""
    return ((search.n_lambda - 2) * search.n_mag * search.n_angle ** 2
            + search.refine_rounds * _REFINE_STENCIL)


def _count_build_pairs(call, out):
    return len(out)


def _count_energy(call, out):
    return out.pair_count // 2


def _count_gradient(call, out):
    # without ``pairs=`` the call builds its own, counted on its build_pairs child
    pairs = call.get("pairs")
    return None if pairs is None else len(pairs)


def _count_minimize(call, out):
    return out.iterations


def _count_laminate(call, out):
    import peribond.density
    search = call.get("search") or peribond.density.LaminateSearch()
    return laminate_candidates(search)


#: span name -> f(bound arguments, result) giving the count the span records
COUNTERS = {"energy.build_pairs": _count_build_pairs,
            "energy.energy_Fn": _count_energy,
            "energy.gradient_Fn": _count_gradient,
            "solver.minimize_Fng": _count_minimize,
            "density.density_laminate_upper": _count_laminate}


def swap(replacements: dict) -> list[tuple]:
    """Replace functions by identity in every peribond namespace.

    ``replacements`` maps an original function to its stand-in.  Returns the
    (namespace, attribute, original) triples that :func:`restore` undoes.
    """
    import peribond
    namespaces = [peribond] + [importlib.import_module(f"peribond.{m}")
                               for m in (*MODULE_LAYER, "constructions")]
    saved = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in replacements:
                saved.append((ns, attr, obj))
                setattr(ns, attr, replacements[obj])
    return saved


def restore(saved: list[tuple]) -> None:
    for owner, attr, obj in reversed(saved):
        setattr(owner, attr, obj)


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "count")

    def __init__(self, name, start, parent, pass_id):
        self.name, self.start, self.end = name, start, start
        self.parent, self.pass_id, self.count = parent, pass_id, None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call between install() and uninstall()."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), parent, tracer.pass_id)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.count = counter(signature.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def install(self, pass_id: int) -> None:
        """Wrap every public peribond function and the listed methods."""
        self.pass_id = pass_id
        wrappers = {}
        for mod_name, layer in MODULE_LAYER.items():
            mod = importlib.import_module(f"peribond.{mod_name}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        self._saved = swap(wrappers)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"peribond.{mod_name}"), cls_name)
            self._saved.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, self._wrap(vars(cls)[attr], name))

    def uninstall(self) -> None:
        restore(self._saved)
        self._saved = []
        self.pass_id = None

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.pass_id, s.count]
                for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {
    "energy.build_pairs.s": "s", "energy.build_pairs.calls": "count",
    "energy.energy_Fn.s": "s", "energy.energy_Fn.calls": "count",
    "energy.gradient_Fn.s": "s", "energy.gradient_Fn.calls": "count",
    "energy.energy_E_eps.s": "s", "energy.energy_E0.s": "s",
    "energy.seminorm_W.s": "s", "energy.pairs": "count",
    "energy.bonds_per_s": "1/s", "energy.grad_to_energy": "ratio",
    "density.compute_bounds.s": "s", "density.density_laminate_upper.s": "s",
    "density.density_lower.s": "s", "density.density_tilde.s": "s",
    "density.laminate_candidates": "count", "density.candidates_per_s": "1/s",
    "density.batch.s": "s",
    "solver.minimize_Fng.s": "s", "solver.minimize_Fng.calls": "count",
    "solver.iterations": "count", "solver.energy_calls_per_solve": "count",
    "solver.gradient_calls_per_solve": "count", "solver.self_s": "s",
    "solver.linearization_experiment.s": "s",
    "grids.nearest_node.s": "s", "grids.nearest_node.calls": "count",
    "grids.sphere_quadrature.s": "s",
    "materials.potential.s": "s", "kernels.kernel.s": "s",
    "cli.self_s": "s",
    **{f"self.{layer}.s": "s" for layer in LAYERS},
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "share.density_laminate_upper": "ratio", "share.energy_gradient": "ratio",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.coverage": "ratio", "trace.spans": "count",
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did not run (den == 0)."""
    return num / den if den > 0 else 0.0


def pass_metrics(all_spans: list[Span], pass_id: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose timed region took ``wall``."""
    ids = [k for k, s in enumerate(all_spans) if s.pass_id == pass_id]
    spans = [all_spans[k] for k in ids]
    child_time = dict.fromkeys(ids, 0.0)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    self_time = {k: all_spans[k].duration - child_time[k] for k in ids}

    incl, calls, counts, built = {}, {}, {}, {}
    self_layer = dict.fromkeys(LAYERS, 0.0)
    for k, s in zip(ids, spans):
        incl[s.name] = incl.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        self_layer[s.layer] += self_time[k]
        if s.count is not None:
            counts[s.name] = counts.get(s.name, 0) + s.count
        if s.name == "energy.build_pairs" and s.parent >= 0:
            built[s.parent] = built.get(s.parent, 0) + s.count

    def t(name):
        return incl.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    minimize = [k for k, s in zip(ids, spans) if s.name == "solver.minimize_Fng"]
    in_solve = [s.name for s in spans if s.parent in set(minimize)]
    bonds = sum(built.get(k, 0) if s.count is None else s.count
                for k, s in zip(ids, spans)
                if s.name in ("energy.energy_Fn", "energy.gradient_Fn"))
    bond_time = t("energy.energy_Fn") + t("energy.gradient_Fn")
    top = sum(s.duration for s in spans if s.parent < 0)

    return {
        "energy.build_pairs.s": t("energy.build_pairs"),
        "energy.build_pairs.calls": n("energy.build_pairs"),
        "energy.energy_Fn.s": t("energy.energy_Fn"),
        "energy.energy_Fn.calls": n("energy.energy_Fn"),
        "energy.gradient_Fn.s": t("energy.gradient_Fn"),
        "energy.gradient_Fn.calls": n("energy.gradient_Fn"),
        "energy.energy_E_eps.s": t("energy.energy_E_eps"),
        "energy.energy_E0.s": t("energy.energy_E0"),
        "energy.seminorm_W.s": t("energy.seminorm_W"),
        "energy.pairs": counts.get("energy.build_pairs", 0),
        "energy.bonds_per_s": _ratio(bonds, bond_time),
        "energy.grad_to_energy": _ratio(
            _ratio(t("energy.gradient_Fn"), n("energy.gradient_Fn")),
            _ratio(t("energy.energy_Fn"), n("energy.energy_Fn"))),
        "density.compute_bounds.s": t("density.compute_bounds"),
        "density.density_laminate_upper.s": t("density.density_laminate_upper"),
        "density.density_lower.s": t("density.density_lower"),
        "density.density_tilde.s": t("density.density_tilde"),
        "density.laminate_candidates": counts.get("density.density_laminate_upper", 0),
        "density.candidates_per_s": _ratio(counts.get("density.density_laminate_upper", 0),
                                           t("density.density_laminate_upper")),
        "density.batch.s": t("density.density_lower_batch") + t("density.density_tilde_batch"),
        "solver.minimize_Fng.s": t("solver.minimize_Fng"),
        "solver.minimize_Fng.calls": len(minimize),
        "solver.iterations": counts.get("solver.minimize_Fng", 0),
        "solver.energy_calls_per_solve": _ratio(
            in_solve.count("energy.energy_Fn"), len(minimize)),
        "solver.gradient_calls_per_solve": _ratio(
            in_solve.count("energy.gradient_Fn"), len(minimize)),
        "solver.self_s": sum(self_time[k] for k in minimize),
        "solver.linearization_experiment.s": t("solver.linearization_experiment"),
        "grids.nearest_node.s": t("grids.nearest_node"),
        "grids.nearest_node.calls": n("grids.nearest_node"),
        "grids.sphere_quadrature.s": t("grids.sphere_quadrature"),
        "materials.potential.s": t("materials.potential"),
        "kernels.kernel.s": t("kernels.kernel"),
        "cli.self_s": self_layer["cli"],
        **{f"self.{layer}.s": self_layer[layer] for layer in LAYERS},
        **{f"share.{layer}": _ratio(self_layer[layer], wall) for layer in LAYERS},
        "share.density_laminate_upper": _ratio(t("density.density_laminate_upper"), wall),
        "share.energy_gradient": _ratio(bond_time, wall),
        "trace.wall_s": wall,
        "trace.coverage": _ratio(top, wall),
        "trace.spans": len(spans),
    }
