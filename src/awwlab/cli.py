"""Command-line front end.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from . import config, harness
from .errors import AwwlabError, ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awwlab",
        description="Slowly driven atom radiating one excitation: "
                    "simulations, sweeps and limit-law checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("simulate", "run one (eps, lambda) point, write trajectory CSVs"),
            ("sweep", "run a parameter sweep and fit convergence slopes"),
            ("emission", "emitted-spectrum average vs the limit laws"),
            ("regimes", "classify sweep points into coupling regimes"),
            ("validate", "check coupling smallness and bath certificates")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="key=value config file")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--override-smallness", action="store_true",
                         help="run even when the coupling-smallness bound fails")
        if name == "sweep":
            cmd.add_argument("--threads", type=int, default=1,
                             help="worker processes for sweep points")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = config.load_config(args.config)
        runner = {
            "simulate": harness.run_simulate,
            "sweep": harness.run_sweep,
            "emission": harness.run_emission,
            "regimes": harness.run_regimes,
            "validate": harness.run_validate,
        }[args.command]
        extra = {"threads": args.threads} if args.command == "sweep" else {}
        result = runner(cfg, args.out, override=args.override_smallness, **extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AwwlabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        for key, val in result.items():
            print(f"{key}: {val}")
        return 0 if result["ok"] else 1
    if args.command == "sweep":
        for metric, (slope, stderr) in result["slopes"].items():
            print(f"{metric}: slope {slope:.3f} +/- {stderr:.3f}")
        if result["partial"]:
            first = next(res["error"] for res in result["results"] if "error" in res)
            print(f"warning: some sweep points failed ({first}); see sweep.csv",
                  file=sys.stderr)
            return 1
        return 0
    if args.command == "emission":
        print(f"<B>_t = {result['average']:.6f}  limit = {result['limit']:.6f} "
              f"(r = {result['r']:g}, eps = {result['eps']:g})")
        return 0
    if args.command == "regimes":
        for rep in result:
            print(f"r = {rep.ratio:g}: {rep.regime} (p_down ~ {rep.p_down:.4f})")
        return 0
    for path in result:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
