"""Benchmark entry point: one workload, one seed, printed metrics.

    python3 perfbench/run.py --workload scaling_small_n --seed 31 --seconds 25 --trace 0

Run from the root of a checkout. The workload runs in its own process
(worker.py), a closed loop with one caller, with BLAS thread pools capped
at one thread: on 2 cores a second OpenBLAS thread made scaling_large_n
about a third slower and noisier, and spun the other core on
identity_ladder. ``setup_s`` is the fastest of that process's set-up and
those of a few set-up-only processes started before and after it: the
library import dominates it, and other load on the host only stretches it. With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics; the lines before it give the
provenance, the solver metrics by name and, when traced, a table of
self times.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from spec import (
    DEFAULT_SEED,
    END_TO_END,
    HOLDOUT_SEED,
    SIZES,
    SOLVE_METRICS,
    WORKLOADS,
    per_layer_metrics,
)

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _worker(cmd: list[str], env: dict, deadline: float) -> dict:
    """Run the worker to completion and return its last JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *cmd],
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(deadline - time.monotonic(), 1.0),
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="gel-expand benchmark: one workload per run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help=f"workload seed; default {DEFAULT_SEED}, holdout {HOLDOUT_SEED}")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=tuple(SIZES), default="full",
                   help="'tiny' shrinks every round for the smoke test")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        p.error("--seed must lie in [0, 2**32)")

    root = Path.cwd()
    if not (root / "src" / "gel_expand" / "__init__.py").is_file():
        print(f"error: {root} holds no src/gel_expand; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)

    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    probes = 0 if args.trace else SIZES[args.size]["setup_samples"] - 1
    setups = [_worker([*common, "--setup-only"], env, deadline)["setup_s"]
              for _ in range(probes // 2)]
    res = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                  env, deadline)
    setups.append(res["setup_s"])
    setups += [_worker([*common, "--setup-only"], env, deadline)["setup_s"]
               for _ in range(probes - probes // 2)]

    provenance = {
        "git_sha": _git_sha(root),
        **res["versions"],
        "nproc": nproc,
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "load": "closed loop, one caller",
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"rounds {res['rounds']} of {res['datasets_per_round']} datasets, "
          f"setup samples {len(setups)}")
    for name, value in res["solve"].items():
        unit = SOLVE_METRICS.get(name, ("count",))[0]
        print(f"{name} = {value!r} {unit}")
    print("outcomes " + json.dumps(res["outcomes"]))
    print("round_rates " + json.dumps(res["round_rates"]))
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        units = per_layer_metrics()
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
        for name, value in sorted(res["self_s"].items(), key=lambda kv: -kv[1]):
            calls = res["per_layer"][f"{name}.calls"]
            print(f"{name}.self_s = {value!r} s  ({calls} calls)")
    else:
        values = {
            "setup_s": min(setups),
            "datasets_per_s": res["datasets_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if not res["correct"]:
        metrics = {}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
