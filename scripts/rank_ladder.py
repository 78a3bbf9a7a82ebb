#!/usr/bin/env python3
"""Rank ladder: the largest rank each forced suite verifies within a wall budget.

Runs `pfaffkit verify --suite S --n k --force --format json` for each
suite S in `ncmsf` and `central`, and `pfaffkit verify --suite msf --pq
k k --force --format json`, at k = 4, 5, ..., one child process at a
time; every rung is a 2k x 2k matrix, and its record names k as `n`.  A
ladder stops at its first rung that does not pass: a child still running
at the wall budget is killed there and recorded as `over-budget`, a
failed check as `fail`, any other exit as `error`.  The budget bounds a
child's memory too: at 30 s the killed central rung at n = 8 had reached
a VmHWM of 730 MiB.  `--max-n` ends a ladder early.  The msf ladder ends
at k = 8 whatever `--max-n` and `--budget` say (`MSF_LAST_RANK`).

Each rung records its wall time, the child's own peak RSS (`VmHWM`, read
by the child as it exits, or just before it is killed, so the spawning
process's memory is not in it) and the check with the largest `millis`.
The ladders go to `BENCH_ranks.json` (or `--out`) with the SHA-256 of
`src/pfaffkit/*.py` (`bench/run.py`'s digest), the commit and whether
`src` differs from it (both null outside a git checkout), and a host
note.

Usage: python3 scripts/rank_ladder.py [--budget 30] [--max-n N] [--out BENCH_ranks.json]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from itertools import count
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no bytecode in bench/, which the benchmark's workers read
sys.path.insert(0, str(ROOT / "bench"))
from run import _source_digest  # noqa: E402

SUITES = ("ncmsf", "central", "msf")
FIRST_RANK = 4
# The msf ladder never starts p = q = 9 (p + q = 18): the last whole (9, 9)
# run took 7.6 GiB of an 8 GiB host, so no budget makes that rung safe.
MSF_LAST_RANK = 8

# the child: the pfaffkit CLI, reporting its own VmHWM on stderr as it exits
CHILD = """
import atexit, sys
from pfaffkit.cli import main

def report():
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write(f"rank_ladder VmHWM {kib}\\n")

atexit.register(report)
sys.exit(main(sys.argv[1:]))
"""


def vmhwm_mib(status_path: str) -> float:
    """The VmHWM line of a /proc status file, in MiB."""
    with open(status_path) as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    return round(int(kib) / 1024, 1)


def ranks(suite: str, max_n: int | None) -> Iterable[int]:
    """The ranks a ladder may start, in order: from `FIRST_RANK` to `max_n`,
    and for msf never past `MSF_LAST_RANK`."""
    last = min(filter(None, (max_n, MSF_LAST_RANK if suite == "msf" else None)), default=None)
    return count(FIRST_RANK) if last is None else range(FIRST_RANK, last + 1)


def run_rung(suite: str, n: int, budget: float) -> dict:
    """One forced verify run of `suite` at rank n (msf: the coloring (n, n)),
    as a JSON-ready record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    rank = ["--pq", str(n), str(n)] if suite == "msf" else ["--n", str(n)]
    cmd = [sys.executable, "-c", CHILD, "verify", "--suite", suite, *rank, "--force", "--format", "json"]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        record = {"n": n, "status": "over-budget", "wall_s": round(budget, 3)}
        try:  # the running child's peak so far
            record["vmhwm_mib"] = vmhwm_mib(f"/proc/{proc.pid}/status")
        except (OSError, StopIteration):
            pass
        proc.kill()
        proc.communicate()
        return record
    record = {"n": n, "wall_s": round(time.monotonic() - start, 3)}
    hwm = [line.split()[-1] for line in err.splitlines() if line.startswith("rank_ladder VmHWM ")]
    if hwm:
        record["vmhwm_mib"] = round(int(hwm[-1]) / 1024, 1)
    if proc.returncode not in (0, 1) or not out.strip():
        lines = [line for line in err.splitlines() if not line.startswith("rank_ladder VmHWM ")]
        record.update(status="error", exit=proc.returncode, stderr=lines[-1] if lines else "")
        return record
    report = json.loads(out)
    top = max(report["checks"], key=lambda check: check["millis"])
    record.update(status="pass" if report["status"] == "pass" else "fail",
                  top_check={"id": top["id"], "millis": top["millis"]})
    return record


def git(*args: str) -> str | None:
    """The output of a git command on this checkout; None outside a checkout, or if git fails."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_note() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"{platform.python_implementation()} {platform.python_version()} on {platform.machine()} "
            f"{platform.system()} {platform.release()}, {os.cpu_count()} CPUs, load average {load} at start")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=float, default=30.0, help="wall seconds per rung (default: 30)")
    ap.add_argument("--max-n", type=int, help="the last rank to run")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_ranks.json")
    args = ap.parse_args()
    if args.budget <= 0:
        ap.error("--budget must be positive")
    if args.max_n is not None and args.max_n < FIRST_RANK:
        ap.error(f"--max-n must be at least {FIRST_RANK}")

    status = git("status", "--porcelain", "--", "src")
    record = {
        "src_sha256": _source_digest(),
        "commit": git("rev-parse", "HEAD"),
        "src_differs_from_commit": None if status is None else bool(status),
        "host": host_note(),
        "budget_s": args.budget,
        "ladders": {},
    }
    for suite in SUITES:
        rungs = record["ladders"][suite] = []
        for n in ranks(suite, args.max_n):
            rung = run_rung(suite, n, args.budget)
            rungs.append(rung)
            top = rung.get("top_check", {})
            print(f"{suite} n={n}: {rung['status']}, {rung['wall_s']:.2f} s, "
                  f"VmHWM {rung.get('vmhwm_mib', '-')} MiB, top check {top.get('id', '-')} "
                  f"{top.get('millis', '-')} ms", flush=True)
            if rung["status"] != "pass":
                break
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
