"""Command line interface.

    gel-expand run --suite identities --model MeanVarModel --seed 42 \
        [--config run.ini] [--n 50,100,200,400] [--reps 1000] \
        [--samples 50] [--out results/] [--tol-override key=val ...]

Exit status: 0 when every check passes, 1 on a check failure, 2 on a
usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, GelError
from .harness import SUITE_NAMES, parse_config, run_suite
from .models import MODEL_NAMES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gel-expand",
        description="Verification suites for stacked ETEL/EL estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--config", help="INI-style config file; flags override it")
    run.add_argument("--suite", choices=SUITE_NAMES, help="suite to run")
    run.add_argument("--model", choices=MODEL_NAMES, help="built-in model name")
    run.add_argument("--seed", help="base RNG seed (mandatory, here or in the file)")
    run.add_argument("--n", help="comma-separated sample sizes, e.g. 50,100,200,400")
    run.add_argument("--reps", help="Monte Carlo replications")
    run.add_argument("--samples", help="simulated samples for per-sample identity checks")
    run.add_argument("--theta-star", dest="theta_star", help="true parameter value")
    run.add_argument("--skew-df", dest="skew_df", help="chi-square df for SkewModel")
    run.add_argument("--n-nodes", dest="n_nodes", help="quadrature nodes of the plug-in measure")
    run.add_argument("--out", help="output directory for report.json and tables")
    run.add_argument(
        "--tol-override",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help="override a named tolerance (repeatable)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    overrides: dict[str, str] = {}
    for key in ("suite", "model", "seed", "n", "reps", "samples", "theta_star",
                "skew_df", "n_nodes", "out"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = str(value)
    for item in args.tol_override:
        if "=" not in item:
            print(f"error: --tol-override expects KEY=VAL, got {item!r}", file=sys.stderr)
            return 2
        key, val = item.split("=", 1)
        overrides[f"tol.{key.strip()}"] = val.strip()

    try:
        config = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_suite(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"[{status}] {check.name}: {check.value:.3e} (tol {check.tol:.3e})"
                  + (f"  [{check.detail}]" if check.detail else ""))
    print(
        f"suite={report.suite} model={report.model} seed={report.seed} "
        f"checks={len(report.checks)} overall={'PASS' if report.overall_pass else 'FAIL'} "
        f"runtime={report.runtime_s:.2f}s"
    )
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
