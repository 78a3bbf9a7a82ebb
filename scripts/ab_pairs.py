#!/usr/bin/env python3
"""Paired A/B timing of two checkouts on one benchmark workload.

Runs cold `bench/worker.py` passes of checkout BASE and of checkout CHANGE
in alternating order (BASE first in even pairs, CHANGE first in odd ones).
Each pass is a fresh interpreter with the environment `bench/run.py` gives
its workers (no PYTHON* variables, PYTHONHASHSEED=0), plus
PYTHONDONTWRITEBYTECODE=1 so that no pass leaves bytecode for the next.
Times are divided by each pass's measured slowdown, as `bench/run.py`
divides them.  Prints each side's median verify_s, cpu_s and setup_s, the
spread between the quartiles of BASE's verify_s, the median of the per-pair
verify_s ratios CHANGE/BASE and the number of pairs in which CHANGE was
faster.  Exits 1 if an item failed or the two sides' item digests differ
in some pair.

Both checkouts should be fresh copies (`git archive`) without __pycache__
directories, so that both sides compile pfaffkit alike on every pass: the
passes write no bytecode, but they read what is there, and a side that
reads it sets up much faster.  So the script exits 2, before any pass,
when only one side holds a __pycache__ under src/pfaffkit or bench; the
same checkout on both sides is compared as it is.

Usage: python3 scripts/ab_pairs.py BASE CHANGE [--workload uea-central]
           [--pairs 10] [--seed 11]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode in bench/, which the workers read
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from run import SCALED_BY, WORKLOADS  # noqa: E402

METRICS = ("verify_s", "cpu_s", "setup_s")


def one_pass(checkout: Path, workload: str, seed: int) -> dict:
    """The JSON record of one cold worker pass of `checkout`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    spawned_at = time.monotonic()
    cmd = [sys.executable, "-s", str(checkout / "bench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--spawned-at", repr(spawned_at)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"ab_pairs: the worker of {checkout} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def holds_bytecode(checkout: Path) -> bool:
    """Whether `checkout` holds a __pycache__ directory under src/pfaffkit or bench."""
    return any(next((checkout / d).rglob("__pycache__"), None) is not None for d in ("src/pfaffkit", "bench"))


def scaled_ms(record: dict, metric: str) -> float:
    return 1000 * record[metric] / record[SCALED_BY[metric]]


def items(record: dict) -> list:
    return [(item["id"], item["passed"], item["digest"]) for item in record["items"]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout root of the base side")
    ap.add_argument("change", type=Path, help="checkout root of the changed side")
    ap.add_argument("--workload", choices=WORKLOADS, default="uea-central")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = (args.base.resolve(), args.change.resolve())
    held = [holds_bytecode(side) for side in sides]
    if held[0] != held[1]:
        print(f"ab_pairs: only {sides[held.index(True)]} holds __pycache__ under src/pfaffkit or bench; "
              "compare two fresh copies", file=sys.stderr)
        return 2

    pairs = []
    for k in range(args.pairs):
        records = {}
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            records[side] = one_pass(sides[side], args.workload, args.seed)
        pairs.append((records[0], records[1]))

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs; "
          "medians in ms, each pass divided by its slowdown")
    print(f"{'side':8}" + "".join(f"{m:>11}" for m in METRICS) + "   verify_s quartiles")
    quartiles = []
    for name, side in (("base", 0), ("change", 1)):
        medians = [statistics.median(scaled_ms(pair[side], m) for pair in pairs) for m in METRICS]
        verify = [scaled_ms(pair[side], "verify_s") for pair in pairs]
        quartiles.append(statistics.quantiles(verify, n=4) if len(verify) > 1 else verify * 3)
        print(f"{name:8}" + "".join(f"{v:11.2f}" for v in medians)
              + f"   {quartiles[-1][0]:.2f} .. {quartiles[-1][2]:.2f}")
    print(f"base verify_s quartile spread {quartiles[0][2] - quartiles[0][0]:.2f} ms")
    ratios = [scaled_ms(c, "verify_s") / scaled_ms(b, "verify_s") for b, c in pairs]
    faster = sum(r < 1 for r in ratios)
    print(f"verify_s change/base: median ratio {statistics.median(ratios):.3f}, "
          f"change faster in {faster} of {len(ratios)} pairs")

    failed = sorted({i for pair in pairs for r in pair for i, passed, _ in items(r) if not passed})
    differing = sum(items(b) != items(c) for b, c in pairs)
    print(f"failed items: {', '.join(failed) or 'none'}; "
          f"item digests differ in {differing} of {len(pairs)} pairs")
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main())
