"""One cold benchmark pass, run by run.py in a fresh interpreter.

Usage: python3 bench/worker.py --workload W --seed N --spawned-at T
           [--trace-to PATH | --setup-only]

`--spawned-at` is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start, `import pfaffkit` and
input generation.  The pass then runs every item of the workload once, in
order, and prints one JSON line with its timings and per-item results.
`--trace-to` installs the tracer around the items and writes the spans
there.  `--setup-only` stops after set-up and reports only its time.
Each time comes with the slowdown calibrate.py measured right after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is short, so it is calibrated for half its own time, not SHARE.
SETUP_SHARE = 0.5


def _import_pfaffkit():
    """Import pfaffkit from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pfaffkit

    origin = Path(pfaffkit.__file__).resolve().parent
    if origin != SRC / "pfaffkit":
        sys.exit(f"worker: imported pfaffkit from {origin}, expected {SRC / 'pfaffkit'}")
    return origin


def run_items(item_list, tracer=None, calibrator=None) -> list[dict]:
    """Run items in order; an item that raises counts as failed.  The
    calibrator, if any, samples the machine's speed after each item."""
    results = []
    for item_id, check in item_list:
        if tracer is not None:
            tracer.begin_item(item_id)
        t0 = time.perf_counter()
        try:
            passed, witness = check()
        except Exception as exc:  # a crashed check is a failed check
            passed, witness = False, f"{type(exc).__name__}: {exc}"
        millis = (time.perf_counter() - t0) * 1000
        if tracer is not None:
            tracer.end_item()
        results.append({"id": item_id, "passed": bool(passed), "witness": witness, "millis": millis})
        if calibrator is not None:
            calibrator.after(millis / 1000)
    return results


def digest_witnesses(results: list[dict]):
    """Replace each witness by its digest, outside the timed pass; the
    witness of a failed item (an exception, or the failing index set) is
    reported on stderr first."""
    from workloads import witness_digest

    for r in results:
        if not r["passed"]:
            print(f"worker: item {r['id']} failed: {str(r['witness'])[:500]}", file=sys.stderr)
        r["digest"] = witness_digest(r.pop("witness"))


def main():
    ap = argparse.ArgumentParser(description="one cold benchmark pass")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-to")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    origin = _import_pfaffkit()
    import workloads
    from calibrate import Calibrator
    from tracer import Tracer

    inputs = workloads.make_inputs(args.workload, args.seed)
    item_list = workloads.items(args.workload, inputs)
    setup_s = time.monotonic() - args.spawned_at
    setup_calibrator = Calibrator(share=SETUP_SHARE)
    setup_calibrator.after(setup_s)
    if args.setup_only:
        print(json.dumps({
            "pfaffkit": str(origin),
            "setup_s": setup_s,
            "setup_slowdown": setup_calibrator.slowdown(),
            "input_digest": workloads.input_digest(inputs),
        }))
        return

    tracer = Tracer() if args.trace_to else None
    if tracer is not None:
        tracer.install()
    calibrator = Calibrator()
    c0 = time.process_time()
    t0 = time.perf_counter()
    results = run_items(item_list, tracer, calibrator)
    verify_s = time.perf_counter() - t0 - calibrator.wall_s
    cpu_s = time.process_time() - c0 - calibrator.cpu_s
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        Path(args.trace_to).write_text(json.dumps({
            "span_fields": ["name", "start", "end", "parent", "item"],
            "spans": tracer.spans,
        }))
    digest_witnesses(results)

    print(json.dumps({
        "pfaffkit": str(origin),
        "setup_s": setup_s,
        "setup_slowdown": setup_calibrator.slowdown(),
        "verify_s": verify_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "slowdown": calibrator.slowdown(),
        "input_digest": workloads.input_digest(inputs),
        "items": results,
        "layers": tracer.summary() if tracer is not None else None,
    }))


if __name__ == "__main__":
    main()
