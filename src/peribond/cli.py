"""Experiment runner: ``peribond run|validate|list-catalog``.

``run`` executes the scenario described by a JSON config and writes a CSV
table per experiment plus ``summary.json``.  Outputs are deterministic for a
fixed (config, seed): randomized checks draw from a counter-based generator
keyed by the seed, every sweep runs serially in config order, and number
formatting is fixed; ``--threads`` is accepted and has no effect.  Both ``run``
and ``validate`` check each minimize or localize grid's collar with
``SubdomainMask.collar_fits``.  Exit codes: 0 all contracts pass, 1 contract
failure, 2 parse error, 3 validation error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import EXPERIMENTS, SCHEMA, ConfigError, parse_config, validate_config
from .constructions import laminate_energy_decay, rigidity_reconstruct, sawtooth_energy
from .density import compute_bounds, density_lower, zero_set_predicate
from .energy import build_pairs, energy_Fn, gradient_Fn
from .grids import (Grid, VectorField, affine_field, box_grid, field_from_function,
                    full_mask, sphere_quadrature)
from .kernels import box_kernel, box_sequence, make_fractional, make_rescaled
from .materials import catalog_potential, power_potential, quartic_potential
from .solver import (DirichletProblem, linearization_experiment, localization_experiment,
                     minimize_multistart)

EXIT_OK, EXIT_CONTRACT, EXIT_PARSE, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 1, 2, 3, 4
_DELTA_LAWS = {"1/n": lambda n: 1.0 / n, "1/n^2": lambda n: 1.0 / n**2}  # localize's horizon


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def _write_csv(path: Path, columns: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) for c in row) + "\n")


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=stream))


def _grid_from_config(cfg: dict) -> Grid:
    dom = cfg["domain"]
    return box_grid(dom["dim"], float(dom["lo"]), float(dom["hi"]), dom["n_cells"])


def _kernel_from_config(cfg: dict):
    kern, dim = cfg["kernel"], cfg["domain"]["dim"]
    if kern["family"] == "box":
        return make_rescaled(box_kernel(dim), float(kern["delta"]))
    return make_fractional(dim, float(kern["s"]), float(kern["p"]))


def _potential_from_config(cfg: dict):
    pot = cfg["potential"]
    if pot["profile"] == "quartic":
        return quartic_potential()
    return power_potential(float(pot["p"]), float(pot["scale"]))


def _matrix(entries) -> np.ndarray:
    """A validated flat row-major d*d list as a (d, d) array."""
    d = round(len(entries) ** 0.5)
    return np.asarray(entries, dtype=float).reshape(d, d)


def _localize_grid(cfg: dict, n: int) -> Grid:
    """localize's grid at index n: four cells per horizon, at least base_cells
    and at most 512 per axis (the 1e-12 keeps round-off from adding a cell)."""
    dom, blk = cfg["domain"], cfg["localize"]
    lo, hi = float(dom["lo"]), float(dom["hi"])
    base = dom["n_cells"] if blk["base_cells"] is None else blk["base_cells"]
    cells = np.ceil(4.0 / (_DELTA_LAWS[blk["delta_law"]](n) / (hi - lo)) - 1e-12)
    return box_grid(dom["dim"], lo, hi, int(min(512, max(base, cells))))


def _validated(cfg: dict) -> dict:
    """validate_config, then DirichletProblem's collar rule on each minimize or
    localize grid, with domain.collar resolved (0: the runner's own default)."""
    cfg = validate_config(cfg)
    exp, dom = cfg["experiment"], cfg.get("domain")
    if exp not in ("minimize", "localize"):
        return cfg
    default = 2 * _kernel_from_config(cfg).support_radius if exp == "minimize" else 0.1
    dom["collar"] = float(dom["collar"] or default)
    grids = ([_grid_from_config(cfg)] if exp == "minimize" else
             [_localize_grid(cfg, n) for n in cfg["localize"]["n_values"]])
    for g in grids:
        if not full_mask(g, dom["collar"]).collar_fits():
            raise ConfigError("validation", [
                f"the {exp} collar, {dom['collar']:g}, must be below half the node span "
                f"of the grid with {g.n_cells} cells per axis: set a smaller domain.collar"])
    return cfg


# ---------------------------------------------------------------------------
# experiment implementations: each returns (csv_name, columns, rows, summary,
# contracts) with contracts a dict name -> bool
# ---------------------------------------------------------------------------

def _run_sawtooth(cfg: dict):
    blk = cfg["sawtooth"]
    r = sawtooth_energy(blk["N"], float(blk["delta"]),
                        None if blk["h"] is None else float(blk["h"]))
    # the midpoint rule's relative error is below 1.052 (h/delta)^2 on every
    # in-regime case measured, with or without delta/h an integer
    tol = 2.0 * (r.h / r.delta) ** 2
    contracts = {}
    if r.in_closed_form_regime:
        contracts["closed_form_match"] = r.rel_error <= tol
    rows = [[r.N, r.delta, r.h, r.value, r.expected, r.rel_error,
             r.in_closed_form_regime]]
    cols = ["N", "delta", "h", "value", "expected", "rel_error", "regime"]
    return "sawtooth.csv", cols, rows, {"value": r.value, "expected": r.expected}, contracts


def _run_density(cfg: dict):
    blk = cfg["density"]
    phi = _potential_from_config(cfg)
    m = float(cfg["strain_m"])
    bounds = [compute_bounds(_matrix(entries), phi, m, order=blk["order"],
                             with_laminate=blk["laminate_search"])
              for entries in blk["matrices"]]
    rows, ordering_ok = [], True
    for b in bounds:
        rows.append(list(b.F.ravel()) + list(b.sigma)
                    + [b.lower, b.tilde, b.laminate_upper, b.in_zero_set])
        ordering_ok &= (-1e-12 <= b.lower <= b.laminate_upper + 1e-9
                        and b.laminate_upper <= b.tilde + 1e-9)
    d = bounds[0].F.shape[0]
    cols = ([f"F{i}{j}" for i in range(d) for j in range(d)]
            + [f"sigma{i + 1}" for i in range(d)]
            + ["lower", "tilde", "laminate_upper", "zero_set"])
    return "density.csv", cols, rows, {"count": len(rows)}, {"bound_ordering": ordering_ok}


def _run_laminate(cfg: dict):
    blk = cfg["laminate"]
    phi = _potential_from_config(cfg)
    m = float(cfg["strain_m"])
    rows_data = laminate_energy_decay(blk["lam"], blk["n_values"], phi, m)
    rows = [[r.n, r.k, r.energy] for r in rows_data]
    e = [r.energy for r in rows_data]
    contracts = {"finite_nonnegative": all(np.isfinite(x) and x >= 0 for x in e),
                 "net_decay": e[-1] <= e[0] + 1e-12}
    return "laminate.csv", ["n", "k", "energy"], rows, {"energies": e}, contracts


def _run_rigidity(cfg: dict):
    blk = cfg["rigidity"]
    trials = blk["trials"]
    grid = box_grid(2, -1.0, 1.0, blk["resolution"])
    rng = _rng(cfg["seed"], stream=1)
    rows, ok = [], True
    for t in range(trials):
        th = rng.uniform(0.0, 2.0 * np.pi)
        refl = rng.integers(0, 2)
        U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        if refl:
            U = U @ np.diag([1.0, -1.0])
        b = rng.uniform(-2.0, 2.0, 2)
        v = VectorField(grid, grid.nodes() @ U.T + b)
        rec = rigidity_reconstruct(v, 0.5)
        rows.append([t, th, bool(refl), rec.orthogonality_defect, rec.residual])
        ok &= rec.orthogonality_defect <= 1e-12 and rec.residual <= 1e-12
    cols = ["trial", "angle", "reflection", "orthogonality_defect", "residual"]
    return "rigidity.csv", cols, rows, {"trials": trials}, {"exact_reconstruction": ok}


def _run_energy(cfg: dict):
    grid = _grid_from_config(cfg)
    kernel = _kernel_from_config(cfg)
    phi = _potential_from_config(cfg)
    m = float(cfg["strain_m"])
    v = affine_field(grid, np.eye(grid.dim))
    rep = energy_Fn(v, full_mask(grid), kernel, phi, m)
    summary = {"value": rep.value, "pair_count": rep.pair_count, "h": rep.h}
    contracts = {"identity_zero_energy": abs(rep.value) <= 1e-12}
    return "energy.csv", list(summary), [list(summary.values())], summary, contracts


def _run_minimize(cfg: dict):
    grid = _grid_from_config(cfg)
    kernel = _kernel_from_config(cfg)
    phi = _potential_from_config(cfg)
    m = float(cfg["strain_m"])
    blk = cfg["minimize"]
    F = _matrix(blk["datum"])
    mask = full_mask(grid, cfg["domain"]["collar"])
    g = affine_field(grid, F)
    prob = DirichletProblem(mask, g, kernel, phi, m, max_iters=blk["max_iters"])
    res = minimize_multistart(prob, seed=cfg["seed"])
    affine = energy_Fn(g, mask, kernel, phi, m).value
    rows = [[i, e] for i, e in enumerate(res.energy_trace)]
    summary = {"energy": float(res.energy_trace[-1]), "affine_energy": affine,
               "iterations": res.iterations, "converged": bool(res.converged),
               "stop_reason": res.stop_reason, "grad_norm": res.grad_norm}
    contracts = {"descent": bool(np.all(np.diff(res.energy_trace) <= 1e-12)),
                 "no_worse_than_datum": res.energy_trace[-1] <= affine + 1e-12}
    return "minimize.csv", ["iteration", "energy"], rows, summary, contracts


def _run_linearize(cfg: dict):
    grid = _grid_from_config(cfg)
    blk = cfg["linearize"]
    # an absent catalog parameter takes the catalog's default for the tag
    w = catalog_potential(**{k: v for k, v in cfg["micropotential"].items()
                             if v is not None})
    m = float(cfg["strain_m"])
    radius = blk["support_radius"]
    radius = 4.0 * grid.h if radius is None else float(radius)
    if blk["field"] == "quadratic":
        u = field_from_function(grid, lambda x: x**2)
    else:
        u = field_from_function(grid, lambda x: np.sin(np.pi * x))
    tab = linearization_experiment(u, w, m, blk["eps"], support_radius=radius)
    # flagged rows (a bond left the strain domain) stay, with NaN values
    rows = [[r.eps, r.E_eps, tab.E0, r.abs_err, r.flagged] for r in tab.rows]
    # at least first order; some bonds converge at second order.  If E_eps
    # equals E0 to rounding on every unflagged row, the slope only fits noise
    errs = tab.errors()
    at_limit = errs.size > 0 and bool(np.all(errs <= 64 * np.finfo(float).eps * abs(tab.E0)))
    contracts = {"rate_in_window": at_limit or (tab.slope is not None and tab.slope >= 0.8)}
    summary = {"E0": tab.E0, "slope": tab.slope}
    cols = ["eps", "E_eps", "E0", "abs_err", "flagged"]
    return "linearize.csv", cols, rows, summary, contracts


def _run_localize(cfg: dict):
    blk = cfg["localize"]
    phi = _potential_from_config(cfg)
    m = float(cfg["strain_m"])
    F = _matrix(blk["datum"])
    seq = box_sequence(cfg["domain"]["dim"], _DELTA_LAWS[blk["delta_law"]])
    rows_data = localization_experiment(F, phi, m, seq, blk["n_values"],
                                        lambda n: _localize_grid(cfg, n),
                                        collar_width=cfg["domain"]["collar"],
                                        seed=cfg["seed"])
    rows = [[r.n, r.energy, r.lp_dist_prev, r.lower_int, r.tilde_int]
            for r in rows_data]
    last = rows_data[-1]
    tol = 0.1 * max(1.0, abs(last.tilde_int))
    contracts = {"bracketed": last.lower_int - tol <= last.energy <= last.tilde_int + tol}
    cols = ["n", "energy", "lp_dist_prev", "lower_int", "tilde_int"]
    return "localize.csv", cols, rows, {"terminal_energy": last.energy}, contracts


def _run_checks(cfg: dict):
    """Randomized invariant battery, reproducible from the seed."""
    rng = _rng(cfg["seed"], stream=2)
    phi = power_potential(2.0)
    results = {}
    # kernel masses
    masses = [make_rescaled(box_kernel(d), 0.25).mass() for d in (1, 2, 3)]
    masses += [make_fractional(2, 0.5, 2.0).mass()]
    results["kernel_mass_unit"] = bool(max(abs(m - 1.0) for m in masses) < 1e-6)
    # zero set vs lower bound
    q = sphere_quadrature(2, 256)
    agree = True
    for _ in range(25):
        s = rng.uniform(0.5, 1.5, 2)
        U, _r = np.linalg.qr(rng.standard_normal((2, 2)))
        V, _r = np.linalg.qr(rng.standard_normal((2, 2)))
        F = U @ np.diag(s) @ V.T
        agree &= zero_set_predicate(F) == (density_lower(F, phi, 1.0, q) < 1e-10)
    results["zero_set_matches_lower_bound"] = bool(agree)
    # analytic gradient vs finite differences (one random field)
    grid = box_grid(2, 0.0, 1.0, 12)
    kernel = make_rescaled(box_kernel(2), 0.3)
    vals = grid.nodes() + 0.05 * rng.standard_normal((grid.n_nodes, 2))
    v = VectorField(grid, vals)
    mask = full_mask(grid)
    pairs = build_pairs(grid, mask, kernel.support_radius)
    g_an = gradient_Fn(v, mask, kernel, phi, 1.0, pairs=pairs).values
    k = int(rng.integers(0, grid.n_nodes))
    step = 1e-6
    fd = np.zeros(2)
    for c in range(2):
        vp, vm_ = vals.copy(), vals.copy()
        vp[k, c] += step
        vm_[k, c] -= step
        ep = energy_Fn(VectorField(grid, vp), mask, kernel, phi, 1.0, pairs=pairs).value
        em = energy_Fn(VectorField(grid, vm_), mask, kernel, phi, 1.0, pairs=pairs).value
        fd[c] = (ep - em) / (2 * step)
    rel = np.linalg.norm(g_an[k] - fd) / max(np.linalg.norm(fd), 1e-30)
    results["gradient_matches_finite_differences"] = bool(rel < 1e-5)
    rows = [[name, ok] for name, ok in sorted(results.items())]
    return "checks.csv", ["check", "passed"], rows, results, dict(results)


_RUNNERS = {
    "sawtooth": _run_sawtooth,
    "density": _run_density,
    "laminate": _run_laminate,
    "rigidity": _run_rigidity,
    "energy": _run_energy,
    "minimize": _run_minimize,
    "linearize": _run_linearize,
    "localize": _run_localize,
    "checks": _run_checks,
}


def _error_json(out_dir: Path | None, kind: str, detail) -> None:
    payload = json.dumps({"error": kind, "detail": detail}, sort_keys=True)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "error.json").write_text(payload + "\n")
    print(payload, file=sys.stderr)


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg = _validated(cfg)
    out_dir = Path(args.out) if args.out else Path(args.config).parent / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        csv_name, cols, rows, summary, contracts = _RUNNERS[cfg["experiment"]](cfg)
    except (ValueError, FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        # a plain RuntimeError is the laminate sandwich guard; its subclasses
        # (RecursionError, NotImplementedError) are faults of the program
        if isinstance(exc, RuntimeError) and type(exc) is not RuntimeError:
            raise
        _error_json(out_dir, "numerical", str(exc))
        return EXIT_NUMERICAL
    _write_csv(out_dir / csv_name, cols, rows)
    passed = all(contracts.values())
    payload = {
        "experiment": cfg["experiment"],
        "seed": cfg["seed"],
        "version": __version__,
        "contracts": {k: bool(v) for k, v in sorted(contracts.items())},
        "passed": passed,
        "summary": json.loads(json.dumps(summary, default=_fmt)),
        "artifacts": [csv_name],
    }
    (out_dir / "summary.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"{cfg['experiment']}: {'pass' if passed else 'FAIL'} -> {out_dir}")
    return EXIT_OK if passed else EXIT_CONTRACT


def cmd_validate(args) -> int:
    cfg = _validated(parse_config(args.config))
    print(f"valid: experiment={cfg['experiment']}")
    return EXIT_OK


def cmd_list_catalog(args) -> int:
    print("experiments:")
    for e in EXPERIMENTS:
        print(f"  {e}")
    for title, block, key in (("kernel families", "kernel", "family"),
                              ("potential profiles", "potential", "profile"),
                              ("micro-potential catalog", "micropotential", "tag")):
        print(f"{title}:")
        for name in SCHEMA[block][key].choices:
            print(f"  {name}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="peribond",
                                description="nonlocal bond-energy experiments")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario config")
    run.add_argument("config")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override config seed")
    run.add_argument("--threads", type=int, default=1,
                     help="accepted for older scripts; has no effect")
    val = sub.add_parser("validate", help="validate a scenario config")
    val.add_argument("config")
    sub.add_parser("list-catalog", help="list experiments and catalogs")
    return p


def main(argv=None) -> int:
    # built once per process; the commands are looked up on every call
    args = build_parser().parse_args(argv)
    commands = {"run": cmd_run, "validate": cmd_validate, "list-catalog": cmd_list_catalog}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        # run writes error.json into --out when one is given
        out = getattr(args, "out", None)
        _error_json(Path(out) if out else None, exc.kind, exc.problems)
        return EXIT_PARSE if exc.kind == "parse" else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
