"""peribond benchmark: one workload per call, in a process of its own.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file).  The workload runs in a child process with BLAS/OpenMP threads
pinned to one, and ``peribond run`` uses ``--threads 1``.  Set-up
is measured in that child and in a few set-up-only children; the median is
``setup_s``.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  ``attempted``/``failed`` count correctness checks, so
failed_frac = failed / attempted.  Reports (and, traced, every span) go to
``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("density_sandwich", "bond_sums", "localize_2d")
SETUP_PROBES = 4          # set-up-only children, after one discarded warm-up
DEADLINE_S = 175.0        # the whole run, set-up probes included

E2E_UNITS = {"wall_p75_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _child_env() -> dict:
    """One BLAS/OpenMP thread: the library's BLAS calls are matrix-vector
    products that a second thread does not speed up, while its spinning
    makes the timing depend on what else the host runs."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Start worker.py, wait for it, return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.run([*cmd, "--t0", repr(t0)], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "peribond" / "__init__.py").is_file():
        print(f"no peribond sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        _child(args, deadline, "--setup-only")  # fills bytecode and page caches
        setups = [_child(args, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = _child(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        from tracing import PER_LAYER_UNITS
        values, units = res["layers"], PER_LAYER_UNITS
    else:
        values = {"wall_p75_s": res["wall_p75_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mib": res["peak_rss_mib"]}
        units = E2E_UNITS
    failed = len(res["failures"])
    attempted = res["attempted"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"passes warm-up {res['warmup_walls']}  untraced {res['untraced_walls']}"
          f"  traced {res['traced_walls']}")
    print(f"setup_s samples {setups}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:.6g} {unit}")
    if not args.trace:
        print(f"  {'wall_s (median, not gated)':40s} {res['wall_s']:.6g} s"
              f" ({len(res['untraced_walls'])} timed passes)")
    print(f"  {'failed_frac':40s} {failed / max(attempted, 1):.6g} ratio"
          f" ({failed} of {attempted} checks failed)")
    for name in sorted(set(res["failures"])):
        print(f"  FAILED: {name}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
