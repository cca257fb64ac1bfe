#!/usr/bin/env python3
"""Sweep every bundled model with the full report and summarize verdicts.

Writes one JSON report per model into --out (default: reports/) and prints
a one-line verdict per model. Exits nonzero if any model fails.

    python3 scripts/run_report.py --samples 200 --seed 0
"""

import argparse
import sys
import time
from pathlib import Path

from compbase.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
MODELS = sorted((REPO / "models").glob("m*.json"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=REPO / "reports")
    # the numbers are passed on as text, for the CLI's integer grammar to read
    ap.add_argument("--samples", default="200")
    ap.add_argument("--seed", default="0")
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    worst = 0
    for model in MODELS:
        target = args.out / f"{model.stem}_report.json"
        t0 = time.monotonic()
        code = cli_main(
            [
                "report",
                str(model),
                "--samples",
                args.samples,
                "--seed",
                args.seed,
                "--output",
                str(target),
            ]
        )
        verdict = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"{model.name:10s} {verdict:12s} {time.monotonic() - t0:6.1f}s  -> {target}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
