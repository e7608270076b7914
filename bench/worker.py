"""One workload in a process of its own; started by run.py.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1
                 --t0 MONOTONIC [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` covers
interpreter start, ``import peribond`` and input generation.  The last line
of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: the fewest timed passes whose quartiles a run reports
MIN_PASSES = 3


def _git_commit(root: Path) -> str | None:
    """HEAD of the repository at ``root`` read from .git, or None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """Machine, library and design facts; recorded, never gated."""
    import numpy as np
    import scipy

    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    src = ROOT / "src" / "peribond"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(np.show_config),
        "blas_scipy": blas(scipy.show_config),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": _git_commit(ROOT),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, t0: float, tiny: bool = False) -> dict:
    """Build the workload, time passes for ``seconds``, check every output.

    One untimed warm-up pass comes first, so no timed pass pays first-call
    costs.  Then passes run back to back while the next one, at the median
    pass time so far, is expected to end within ``seconds`` of summed pass
    time, and at least ``MIN_PASSES`` run (one with ``tiny``).  Traced:
    passes alternate untraced / traced, the tracer wrapping the library only
    for the traced ones; at least one traced pass runs.
    """
    from workloads import WORKLOADS, Checks

    wl = WORKLOADS[name](seed, workdir, tiny)
    setup_s = time.monotonic() - t0
    checks = Checks()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    untraced, traced, warmup = [], [], []
    t = time.perf_counter()
    out = wl.run()
    warmup.append(time.perf_counter() - t)
    # set-up plus one solution; later passes only add allocator noise
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.check(out, checks)
    del out
    spent = 0.0
    while True:
        traced_pass = tracer is not None and len(untraced) > len(traced)
        if traced_pass:
            tracer.install(pass_id=len(traced))
        t = time.perf_counter()
        out = wl.run()
        dt = time.perf_counter() - t
        if traced_pass:
            tracer.uninstall()
            traced.append(dt)
        else:
            untraced.append(dt)
        wl.check(out, checks)
        del out
        spent += dt
        passes = untraced + traced
        if (spent + statistics.median(passes) > seconds
                and len(passes) >= (1 if tiny else MIN_PASSES)
                and (tracer is None or traced)):
            break
    wl.check_final(checks)
    return {"setup_s": setup_s, "peak_rss_mib": peak_rss_mib,
            "untraced": untraced, "traced": traced, "warmup": warmup,
            "tracer": tracer, "attempted": checks.attempted,
            "failures": checks.failures}


def layer_metrics(res: dict) -> dict[str, float]:
    """Median over traced passes of each per-layer metric."""
    from tracing import pass_metrics

    tracer = res["tracer"]
    per_pass = [pass_metrics(tracer.spans, k, wall) for k, wall in enumerate(res["traced"])]
    out = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    out["trace.untraced_wall_s"] = statistics.median(res["untraced"])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            from workloads import WORKLOADS
            WORKLOADS[args.workload](args.seed, workdir)
            print(json.dumps({"setup_s": time.monotonic() - args.t0}))
            return 0
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           workdir, args.t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), "setup_s": res["setup_s"],
              "warmup_walls": res["warmup"], "untraced_walls": res["untraced"],
              "traced_walls": res["traced"],
              "attempted": res["attempted"], "failures": res["failures"],
              "peak_rss_mib": res["peak_rss_mib"]}
    if args.trace:
        report["layers"] = layer_metrics(res)
        report["spans"] = res["tracer"].dump()
    else:
        report["wall_s"] = statistics.median(res["untraced"])
        report["wall_p75_s"] = statistics.quantiles(res["untraced"], n=4)[2]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))
    report.pop("spans", None)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
