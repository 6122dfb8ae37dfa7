"""Command line interface.

    gel-expand run --seed 42 [--config run.ini] [--suite identities]
        [--model MeanVarModel] [--n 50,100,200,400] [--reps 1000] ...
        [--tol-override key=val ...] [--quiet]

Every run setting in ``harness._SETTINGS`` is a flag named after its key
(``theta_star`` is ``--theta-star``); a flag wins over the same key in the
``--config`` file. Exit status: 0 when every check passes, 1 on a check
failure, 2 on a usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, GelError
from .harness import _SETTINGS, parse_config, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gel-expand",
        description="Verification suites for stacked ETEL/EL estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--config", help="INI-style config file; flags override it")
    for key, setting in _SETTINGS.items():
        choices = setting.kind if isinstance(setting.kind, tuple) else None
        run.add_argument("--" + key.replace("_", "-"), choices=choices, help=setting.help)
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

    overrides = {key: getattr(args, key) for key in _SETTINGS}
    for item in args.tol_override:
        if "=" not in item:
            print(f"error: --tol-override expects KEY=VAL, got {item!r}", file=sys.stderr)
            return 2
        key, val = item.split("=", 1)
        overrides[f"tol.{key.strip()}"] = val.strip()

    try:
        report = run_suite(parse_config(args.config, overrides))
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
