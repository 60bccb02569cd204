"""Command line front end.

Subcommands: run (per-measurement uncertainties), sweep (asymptotic
uncertainty against the quiescent interval), validate (pairwise engine
agreement, exit 1 on failure), distribution (final outcome density).
Exit codes: 0 success, 1 validation failure, 2 configuration or usage
error, 3 numerical failure.
"""

import argparse
import dataclasses
import sys
import time

from .collapse import GridCoverageError
from .harness import (
    ConfigError,
    TruncationError,
    _read_config,
    cross_validate,
    distribution,
    emit,
    emit_distribution,
    run,
    sweep,
    validate_config,
)
from .oscillator import QuadratureError
from .pde import BoundaryLeakError
from .stroboscopic import ChainUnderflowError

_NUMERICAL = (TruncationError, QuadratureError, GridCoverageError,
              ChainUnderflowError, BoundaryLeakError, ArithmeticError)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE", help="JSON configuration (defaults apply without it)")
    p.add_argument("--engines", metavar="LIST", help="comma separated subset of A,B,C")
    p.add_argument("--filter", metavar="KIND", choices=("gaussian", "step"),
                   help="override the filter kind")
    p.add_argument("--out", metavar="DIR", help="override the output directory")
    p.add_argument("--formats", metavar="LIST", help="comma separated subset of csv,json,svg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="stroboscopic quantum measurement laboratory for the 1-D oscillator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "per-measurement effective uncertainties for each engine"),
        ("sweep", "asymptotic uncertainty over a grid of quiescent intervals"),
        ("validate", "cross-engine agreement check (exit 1 on disagreement)"),
        ("distribution", "outcome density of the final measurement"),
    ):
        _add_common(sub.add_parser(name, help=text, description=text))
    return parser


def _apply_overrides(cfg, args):
    if args.engines:
        cfg = dataclasses.replace(
            cfg, engines=tuple(e.strip().upper() for e in args.engines.split(",") if e.strip()))
    if args.command == "distribution":
        # the outcome density comes from engine C alone; unknown names stay
        # for validate_config to report
        if "C" not in cfg.engines:
            raise ConfigError("distribution runs only on engine C; include C in the engines")
        cfg = dataclasses.replace(
            cfg, engines=tuple(e for e in cfg.engines if e not in ("A", "B")))
    if args.filter:
        cfg = dataclasses.replace(cfg, filter=dataclasses.replace(cfg.filter, kind=args.filter))
    output = cfg.output
    if args.out:
        output = dataclasses.replace(output, directory=args.out)
    if args.formats:
        output = dataclasses.replace(
            output, formats=tuple(f.strip().lower() for f in args.formats.split(",") if f.strip()))
    cfg = dataclasses.replace(cfg, output=output)
    return validate_config(cfg)


def _summarize(records) -> str:
    lines = []
    for engine in sorted({r.engine for r in records}):
        rows = [r for r in records if r.engine == engine]
        last = rows[-1]
        lines.append(f"engine {engine}: {len(rows)} records, "
                     f"final delta_a_eff = {last.delta_a_eff:.6g} at n = {last.n}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(_read_config(args.config), args)
        started = time.perf_counter()
        if args.command in ("run", "sweep"):
            records = run(cfg) if args.command == "run" else sweep(cfg)
            paths = emit(cfg, records, args.command)
        elif args.command == "distribution":
            dist = distribution(cfg)
            paths = emit_distribution(cfg, dist)
            print(f"a_tilde = {dist.a_tilde:.6g}, delta_a_eff = {dist.delta_a_eff:.6g}")
        else:
            report = cross_validate(cfg)
            for pair in report.pairs:
                verdict = "ok" if pair.passed else "FAIL"
                print(f"{pair.engines}: transient {pair.max_rel_early * 100:.3f}% "
                      f"(tol {pair.tol_early * 100:.0f}%), "
                      f"late {pair.max_rel_late * 100:.3f}% "
                      f"(tol {pair.tol_late * 100:.0f}%) [{verdict}]")
            paths = emit(cfg, list(report.records), "validate", extra={
                "validation": {
                    "passed": report.passed,
                    "pairs": [dataclasses.asdict(p) | {"passed": p.passed}
                              for p in report.pairs],
                },
            })
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    elapsed = time.perf_counter() - started
    if args.command in ("run", "sweep"):
        print(_summarize(records))
    for path in paths:
        print(f"wrote {path}")
    if args.command == "validate":
        print("PASS" if report.passed else "FAIL")
        return 0 if report.passed else 1
    print(f"done in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
