"""Self-test of the benchmark: are its checks and its tracer live?

    python3 bench/selftest.py

For each workload at a tiny size it runs one clean pass, which must pass
every check; one pass with a deliberately corrupted library result, which
must fail the named check and so count in failed_frac; and one traced pass,
which must report every per-layer metric, cover >= 90 % of the traced time
and leave the library unwrapped afterwards.  It also checks that
BENCHMARK.json declares exactly the metrics the benchmark prints.  Exits 0
when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import peribond  # noqa: E402
from run import E2E_UNITS, WORKLOADS  # noqa: E402
from tracing import PER_LAYER_UNITS, restore, swap  # noqa: E402
from worker import OUT, layer_metrics, run_workload  # noqa: E402


def _scaled_energy(fn):
    def energy(*args, **kwargs):
        rep = fn(*args, **kwargs)
        return dataclasses.replace(rep, value=rep.value * (1.0 + 1e-3))
    return energy


def _scaled(factor):
    def wrap(fn):
        return lambda *args, **kwargs: factor * np.asarray(fn(*args, **kwargs))
    return wrap


#: workload -> (function to corrupt, corruption, check that must then fail)
CORRUPTIONS = {
    "density_sandwich": (peribond.density.density_tilde, _scaled(1.0 + 1e-6),
                         "density: sandwich tilde equals the closed form"),
    "bond_sums": (peribond.energy.energy_Fn, _scaled_energy,
                  "bond_sums 2D: gradient matches central differences"),
    "localize_2d": (peribond.density.density_lower_batch, _scaled(10.0),
                    "localize: bracketed"),
}


def _run(name: str, trace: bool = False) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=OUT))
    try:
        return run_workload(name, seed=0, seconds=0.0, trace=trace, workdir=workdir,
                            t0=time.monotonic(), tiny=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _declared() -> list[str]:
    """BENCHMARK.json must declare exactly what run.py prints."""
    bm = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in bm["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    if {m["name"]: m["unit"] for m in bm["end_to_end"]} != E2E_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if {m["name"]: m["unit"] for m in bm["per_layer"]} != PER_LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer differs from tracing.py")
    return problems


def main() -> int:
    problems = _declared()
    originals = {k: v for k, v in vars(peribond.energy).items() if callable(v)}
    for name, (fn, corrupt, must_fail) in CORRUPTIONS.items():
        clean = _run(name)
        if clean["failures"] or clean["attempted"] == 0:
            problems.append(f"{name}: clean run failed {clean['failures']}")

        saved = swap({fn: corrupt(fn)})
        try:
            bad = _run(name)
        finally:
            restore(saved)
        if must_fail not in bad["failures"]:
            problems.append(f"{name}: corrupted {fn.__name__} not caught "
                            f"({bad['failures']})")

        traced = _run(name, trace=True)
        layers = layer_metrics(traced)
        missing = set(PER_LAYER_UNITS) - set(layers)
        if missing:
            problems.append(f"{name}: per-layer metrics missing {sorted(missing)}")
        if not layers["trace.coverage"] >= 0.9:
            problems.append(f"{name}: spans cover {layers['trace.coverage']:.3f} < 0.9")
        if any(vars(peribond.energy)[k] is not v for k, v in originals.items()):
            problems.append(f"{name}: tracer left wrappers installed")
        print(f"{name}: clean {clean['attempted']} checks ok; corrupted "
              f"{fn.__name__} failed {len(bad['failures'])} of {bad['attempted']}; "
              f"traced coverage {layers['trace.coverage']:.3f}")

    for p in problems:
        print("SELFTEST FAILED:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
