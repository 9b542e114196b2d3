"""Command-line entry point.

    qsl-lab <fig4|fig5|appendix-c|swap-demo|custom> --out DIR
            [--config FILE] [--seed N] [--threads N]

Writes <out>/<experiment>.csv, SVG plots and <out>/report.txt.  Exit codes:
0 on success, 1 when an embedded experiment check fails, 2 on configuration
errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .experiments import EXPERIMENTS, execute, load_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsl-lab", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="key = value config file (defaults apply)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--threads", type=int, default=None, help="worker processes for sweeps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config, args.experiment, seed_override=args.seed, threads_override=args.threads
        )
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    result, elapsed, ok = execute(config, args.out)
    for line in result.summary:
        print(line)
    for check in result.checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    print(f"done in {elapsed:.3f} s; artifacts in {args.out}")
    if not ok:
        print("one or more embedded checks failed", file=sys.stderr)
        return 1
    return 0


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
