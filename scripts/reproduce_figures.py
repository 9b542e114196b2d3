#!/usr/bin/env python3
"""Run every built-in experiment with its defaults and collect the artifacts.

Usage:
    python scripts/reproduce_figures.py --out out [--threads 4] [--seed N]

Each experiment lands in its own subdirectory of --out with a CSV table,
SVG plots and a report.txt.
"""

import argparse
import sys
from pathlib import Path

# run from a source checkout without installing: import the package from src
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qsl_lab.experiments import EXPERIMENTS, execute, load_config  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out", help="output root directory")
    parser.add_argument("--threads", type=int, default=1, help="workers for the sweep")
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    parser.add_argument(
        "--skip-sweep", action="store_true", help="skip the (slow) appendix-c sweep"
    )
    args = parser.parse_args(argv)
    failures = []
    for name in EXPERIMENTS:
        if name == "custom":
            continue
        if name == "appendix-c" and args.skip_sweep:
            continue
        config = load_config(None, name, seed_override=args.seed, threads_override=args.threads)
        result, elapsed, ok = execute(config, Path(args.out) / name)
        status = "ok" if ok else "CHECK FAILED"
        print(f"{name:12s} {elapsed:8.2f} s  {status}")
        for line in result.summary:
            print(f"    {line}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"failed experiments: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
