"""One workload in one process: set-up, warm-up, timed rounds, checks.

Started by run.py, with the BLAS thread caps in the environment; imports
gel_expand from the ``src`` directory next to this one. Prints one JSON
object as its last line of standard output.

    python3 perfbench/worker.py --workload hull_edge --seed 31 --seconds 25 --trace 0
    python3 perfbench/worker.py --workload hull_edge --seed 31 --setup-only

The untraced body runs rounds back to back until ``--seconds`` have passed;
``datasets_per_s`` is the datasets it processed over its duration. The
traced body runs the first ``TRACED_ROUNDS`` rounds twice each, untraced
then traced, so the overhead compares equal work and the counts cover a
fixed amount of work; it then runs untraced rounds for the rest of the
time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

from spec import LAYER_FUNCTIONS, OUTCOME_CLASSES, SIZES, TRACED_ROUNDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Tally:
    """Running totals over a set of rounds; each round is dropped once added."""

    def __init__(self) -> None:
        self.attempted = self.done = self.failed = 0
        self.seconds = 0.0
        self.rates: list[float] = []
        self.latencies_ms = array("d")
        self.outcomes: Counter = Counter()
        self.iterations: list[int] = []

    def add(self, res, dt: float) -> None:
        self.attempted += res.attempted
        self.done += res.done
        self.failed += res.failed
        self.seconds += dt
        self.rates.append(res.done / dt)
        self.latencies_ms.extend(res.latencies_ms)
        self.outcomes.update(res.outcomes)
        self.iterations.extend(res.iterations)

    def rate(self) -> float:
        return self.done / self.seconds if self.seconds else 0.0

    def outcome_counts(self) -> dict[str, int]:
        counts = Counter(self.outcomes)
        out = {cls: counts.pop(cls, 0) for cls in OUTCOME_CLASSES}
        out.update(counts)
        return out

    def fail_share(self) -> float:
        total = sum(self.outcomes.values())
        return (total - self.outcomes["ok"]) / total if total else 0.0

    def solve_stats(self) -> dict:
        if not self.latencies_ms:
            return {}
        lat = sorted(self.latencies_ms)
        p95 = statistics.quantiles(lat, n=20)[18] if len(lat) > 1 else lat[0]
        return {
            "solve_ms_p50": statistics.median(lat),
            "solve_ms_p95": p95,
            "solve_fail_share": self.fail_share(),
            "solve_samples": len(lat),
            "solve_samples_beyond_p95": sum(v > p95 for v in lat),
        }


def _timed(wl):
    start = time.perf_counter()
    res = wl.run_round()
    return res, time.perf_counter() - start


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import gel_expand.cli  # noqa: F401  (the import is what is being timed)

    import_s = time.perf_counter() - t0
    import workloads

    work_dir = ROOT / ".bench_build"
    wl = workloads.make(args.workload, args.size, args.seed, work_dir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.instrument()
    t1 = time.perf_counter()
    wl.setup()
    build_s = time.perf_counter() - t1
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstrument()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems: list[str] = []
    untraced, traced, paired = Tally(), Tally(), Tally()

    def add(r, res, dt, *tallies):
        # every round repeats the warm-up's inputs and must reproduce its outputs
        if res.fingerprint != wl.first_fingerprint:
            problems.append(f"round {r}: outputs differ from the warm-up run of the same inputs")
        problems.extend(f"round {r}: {p}" for p in res.problems)
        for tally in tallies:
            tally.add(res, dt)

    try:
        problems += wl.warmup()
        body_start = time.perf_counter()
        r = 0
        if tracer is not None:
            for r in range(TRACED_ROUNDS):
                add(r, *_timed(wl), untraced, paired)
                tracer.round = r
                tracer.instrument()
                try:
                    res, dt = _timed(wl)
                finally:
                    tracer.uninstrument()
                add(r, res, dt, traced)
            r = TRACED_ROUNDS
        while not untraced.rates or time.perf_counter() - body_start < args.seconds:
            add(r, *_timed(wl), untraced)
            r += 1
    except Exception as exc:  # report a broken workload instead of timings
        traceback.print_exc(file=sys.stderr)
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        wl.close()

    out = {
        "correct": not problems,
        "attempted": max(untraced.attempted, 1),
        "failed": untraced.failed or int(bool(problems)),
        "problems": problems[:20],
        "rounds": len(untraced.rates),
        "setup_s": setup_s,
        "datasets_per_s": untraced.rate(),
        "round_rates": untraced.rates,
        "datasets_per_round": untraced.attempted // max(len(untraced.rates), 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve": untraced.solve_stats(),
        "outcomes": untraced.outcome_counts(),
        "versions": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if tracer is not None:
        out["per_layer"], out["self_s"] = _per_layer(tracer, traced, paired, build_s, import_s)
        tracer.write(
            work_dir / "trace" / f"{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "per_layer": out["per_layer"],
             "self_s": out["self_s"]},
        )
    print(json.dumps(out))
    return 0


def _per_layer(tracer, traced: Tally, paired: Tally, build_s: float, import_s: float):
    window_s = build_s + traced.seconds
    summary = tracer.summary(traced.done)
    metrics: dict[str, float] = {"setup.import_s": import_s}
    for layer, fns in LAYER_FUNCTIONS.items():
        names = [f"{layer}.{fn}" for fn in fns]
        metrics[f"{layer}.self_share"] = sum(summary["self_s"][n] for n in names) / window_s
        for n in names:
            metrics[f"{n}.calls"] = summary["calls"][n]
            metrics[f"{n}.self_share"] = summary["self_s"][n] / window_s
    its = traced.iterations
    metrics.update(
        {
            "estimators.calls_per_dataset": summary["estimators.calls_per_dataset"],
            "estimators.stacked_jacobian.rows_per_s": summary["estimators.stacked_jacobian.rows_per_s"],
            "estimators.newton_iters_mean": sum(its) / len(its) if its else 0.0,
            "estimators.step_accept_ratio": summary["estimators.step_accept_ratio"],
            "estimators.retry_share": summary["estimators.retry_share"],
            "estimators.solve_fail_share": traced.fail_share(),
        }
    )
    for cls in OUTCOME_CLASSES:
        metrics[f"outcome.{cls}"] = traced.outcomes[cls]
    metrics.update(
        {
            "trace.window_s": window_s,
            "trace.datasets_per_s": traced.rate(),
            "trace.untraced_datasets_per_s": paired.rate(),
            "trace.overhead_share": traced.seconds / paired.seconds - 1.0,
        }
    )
    return metrics, summary["self_s"]


if __name__ == "__main__":
    sys.exit(main())
