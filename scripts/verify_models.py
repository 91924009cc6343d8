#!/usr/bin/env python3
"""Verify every built-in model and print the reports.

Exit status is nonzero if any report fails.  Useful as a quick smoke
test after changes:

    python3 scripts/verify_models.py
    python3 scripts/verify_models.py --only node_curve --seed 7
"""

import argparse
import sys

from cfcalc import build_model, list_models


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", action="append", choices=[info.name for info in list_models()],
        help="model name, repeatable",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true", help="one line per model")
    args = parser.parse_args(argv)

    names = args.only or [info.name for info in list_models()]
    failed = []
    for name in names:
        scene = build_model(name)
        report = scene.verify(seed=args.seed)
        if args.quiet:
            counts = report.counts()
            verdict = "PASS" if report.passed else "FAIL"
            print(f"{scene.name}: {verdict} ({counts['pass']} pass, {counts['fail']} fail)")
        else:
            print(report.to_text())
            print()
        if not report.passed:
            failed.append(scene.name)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
