#!/usr/bin/env python3
"""pfaffkit verification benchmark.

Usage: python3 bench/run.py --workload {msf-rational,msf-symbolic,uea-central}
           --seed N --seconds S --trace {0,1}

Each pass is one cold `python3 bench/worker.py` process that imports
pfaffkit from this checkout's src/, builds the seeded inputs and runs every
item of the workload once; passes run one after another (a closed loop with
one caller) until the next one would end after S seconds, with at least
MIN_PASSES of them.

With --trace 0 each pass is followed by SETUP_ONLY_PER_PASS processes that
only set up, for more setup_s samples, and the last stdout line reports the
median end-to-end metrics.  Each time is divided by the slowdown of the
shared machine that calibrate.py measured next to it; the measured times are
printed above.  With --trace 1 passes alternate between untraced and traced,
and it reports the per-layer metrics of the traced ones.
Every item compares two independent routes by exact equality; the exit code
is 1 when any item fails or the passes disagree, 2 on a bad invocation or a
checkout without src/pfaffkit.  Full records, and the spans of traced
passes, go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("msf-rational", "msf-symbolic", "uea-central")
MIN_PASSES = 3
DEADLINE_S = 170  # the whole run, every pass included

END_TO_END = (("verify_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
# Times reported at the reference speed: the measured time divided by the
# slowdown calibrate.py measured next to it in the same process.
SCALED_BY = {"verify_s": "slowdown", "cpu_s": "slowdown", "setup_s": "setup_slowdown"}
# Set-up is short and noisy, so each untraced pass is followed by this many
# processes that only set up, for more samples of setup_s.
SETUP_ONLY_PER_PASS = 2

# per-layer metric -> (tracer span name, field); see tracer.TARGETS
_COUNTED = ("calls", "self_s")
PER_LAYER = {
    **{f"rings.Poly.{op}.{f}": (f"rings.Poly.{op}", f) for op in ("mul", "add") for f in _COUNTED},
    "rings.Poly.mul.out_terms_max": ("rings.Poly.mul", "out_terms_max"),
    **{f"linalg.{fn}.{f}": (f"linalg.{fn}", f) for fn in ("det_leibniz", "det_exact", "mat_mul") for f in _COUNTED},
    **{f"pfaffian.{fn}.{f}": (f"pfaffian.{fn}", f)
       for fn in ("pfaffian", "copfaffian_matrix", "complementary_minor_check") for f in _COUNTED},
    "pfaffian.pfaffian.distinct_ratio": ("pfaffian.pfaffian", "distinct_ratio"),
    **{f"pfaffian.{fn}.s": (f"pfaffian.{fn}", "s")
       for fn in ("pfaffian_definitional", "minor_summation_rhs", "equivariance_check")},
    **{f"uea.UEAElement.{op}.{f}": (f"uea.UEAElement.{op}", f) for op in ("mul", "add") for f in _COUNTED},
    "uea.UEAElement.mul.out_terms_max": ("uea.UEAElement.mul", "out_terms_max"),
    **{f"uea.normal_order.{f}": ("uea.normal_order", f) for f in _COUNTED},
    "uea.bracket.calls": ("uea.bracket", "calls"),
    "uea.bracket.distinct_ratio": ("uea.bracket", "distinct_ratio"),
    **{f"uea.{fn}.s": (f"uea.{fn}", "s") for fn in (
        "nc_pfaffian", "nc_pfaffian_unrestricted", "nc_minor_summation_rhs", "centrality_failures", "hc_coefficient")},
    **{f"grassmann.GrassmannElement.mul.{f}": ("grassmann.GrassmannElement.mul", f) for f in _COUNTED},
    "grassmann.GrassmannElement.power.s": ("grassmann.GrassmannElement.power", "s"),
    "grassmann.build_forms.s": ("grassmann.build_forms", "s"),
    **{f"matrixio.loads.{f}": ("matrixio.loads", f) for f in _COUNTED},
    **{f"verify.{fn}.s": (f"verify.{fn}", "s") for fn in ("ncmsf_suite", "central_suite", "forms_suite")},
    "verify.millis_coverage": None,
    "trace.overhead_ratio": None,
}
_UNITS = {"calls": "count", "out_terms_max": "count", "distinct_ratio": "ratio", "self_s": "s", "s": "s"}

# Layers a workload must not touch at all; bench/test_bench.py checks them.
PREDICTED_ZERO = {
    "msf-rational": ("uea.", "rings.Poly."),
    "msf-symbolic": ("uea.",),
}


def unit_of(metric: str) -> str:
    spec = PER_LAYER[metric]
    return "ratio" if spec is None else _UNITS[spec[1]]


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (trace.overhead_ratio excluded)."""
    out = {}
    for metric, spec in PER_LAYER.items():
        if spec is None:
            continue
        span, field = spec
        st = summary[span]
        if field == "distinct_ratio":
            out[metric] = st["distinct"] / st["calls"] if st["calls"] else 0.0
        else:
            out[metric] = st[field]
    suites = [summary[f"verify.{fn}"] for fn in ("ncmsf_suite", "central_suite", "forms_suite")]
    outer = sum(st["s"] for st in suites)
    out["verify.millis_coverage"] = sum(st["millis"] for st in suites) / 1000 / outer if outer else 0.0
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pfaffkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    """HEAD of this checkout read from .git, or None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    return {
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


class Runner:
    """Starts worker processes one at a time, each bounded by the run deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline reached")
        spawned_at = time.monotonic()
        cmd = [sys.executable, "-s", str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--spawned-at", repr(spawned_at), *extra]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["wall_s"] = time.monotonic() - spawned_at
        return record

    def passes(self, seconds: float, kinds: tuple[str, ...], minimum: int) -> list[tuple[str, dict]]:
        """Rounds of passes (one per kind) until the next round would overrun."""
        out: list[tuple[str, dict]] = []
        start = time.monotonic()
        rounds = 0
        while True:
            round_start = time.monotonic()
            for kind in kinds:
                extra = ()
                if kind == "setup":
                    extra = ("--setup-only",)
                if kind == "traced":
                    extra = ("--trace-to", str(OUT / f"spans-{self.workload}-seed{self.seed}-{rounds}.json"))
                out.append((kind, self.spawn(*extra)))
            rounds += 1
            last = time.monotonic() - round_start
            if rounds >= minimum and time.monotonic() - start + last > seconds:
                return out


def end_to_end_samples(records: list[tuple[str, dict]], scaled: bool = True) -> dict[str, list[float]]:
    """Each end-to-end metric's values over the untraced passes, times at the
    reference speed unless `scaled` is false; setup_s also takes the set-up-only
    processes."""
    out = {}
    for name, _ in END_TO_END:
        kinds = ("untraced", "setup") if name == "setup_s" else ("untraced",)
        out[name] = [r[name] / r[SCALED_BY[name]] if scaled and name in SCALED_BY else r[name]
                     for kind, r in records if kind in kinds]
    return out


def _item_view(record: dict) -> list:
    return [(i["id"], i["passed"], i["digest"]) for i in record["items"]]


def _describe(values: list[float]) -> str:
    return f"median {statistics.median(values):.6g}, min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pfaffkit verification benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pfaffkit" / "__init__.py").is_file():
        print(f"run.py: no pfaffkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    prov = provenance()
    runner = Runner(args.workload, args.seed)
    try:
        kinds = ("untraced", "traced") if args.trace else ("untraced",) + ("setup",) * SETUP_ONLY_PER_PASS
        records = runner.passes(args.seconds, kinds, minimum=1 if args.trace else MIN_PASSES)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    prov["pfaffkit"] = records[0][1]["pfaffkit"]
    print(json.dumps({"provenance": prov}))

    untraced = [r for kind, r in records if kind == "untraced"]
    traced = [r for kind, r in records if kind == "traced"]
    checked = untraced + traced
    attempted = sum(len(r["items"]) for r in checked)
    failed = sum(not i["passed"] for r in checked for i in r["items"])
    reference = _item_view(checked[0])
    problems = sorted({i["id"] for r in checked for i in r["items"] if not i["passed"]})
    if any(_item_view(r) != reference for r in checked):
        problems.append("passes disagree on item results (traced and untraced included)")
    if len({r["input_digest"] for _, r in records}) != 1:
        problems.append("passes built different inputs")

    if args.trace:
        per_pass = [layer_metrics(r["layers"]) for r in traced]
        metrics = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if unit_of(name) == "count" and len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = statistics.median(values)
        metrics["trace.overhead_ratio"] = (statistics.median(r["verify_s"] / r["slowdown"] for r in traced)
                                           / statistics.median(r["verify_s"] / r["slowdown"] for r in untraced))
        for prefix in PREDICTED_ZERO.get(args.workload, ()):
            touched = [k for k, v in metrics.items() if k.startswith(prefix) and v]
            if touched:
                print(f"note: predicted-zero layer {prefix}* is nonzero: {touched}")
        units = {name: unit_of(name) for name in PER_LAYER}
    else:
        samples = end_to_end_samples(records)
        measured = end_to_end_samples(records, scaled=False)
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"{name} {_describe(samples[name])} {unit}")
            if name in SCALED_BY:
                print(f"  measured {_describe(measured[name])} {unit}")
        print(f"slowdown {_describe([r['slowdown'] for r in untraced])}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} item checks failed)")
    for problem in problems:
        print(f"FAIL {problem}")

    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "provenance": prov, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": [{"kind": kind, **r} for kind, r in records], "metrics": metrics,
    }, indent=1))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
