"""Each script in scripts/ runs to completion at its smallest size."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["form_expansion.py", "--rank", "2", "--mode", "uea"],
    ["form_expansion.py", "--rank", "2", "--mode", "commutative"],
    ["weight_table.py", "--rank", "2", "--max-part", "2"],
    ["ab_pairs.py", str(ROOT), str(ROOT), "--workload", "msf-rational", "--pairs", "1"],
], ids=["form_expansion-uea", "form_expansion-commutative", "weight_table", "ab_pairs"])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_ab_pairs_refuses_checkouts_that_differ_in_bytecode(tmp_path):
    # a side that reads bytecode sets up faster, so the pairs would not
    # compare like with like: exit 2 before any pass
    sides = []
    for name, cached in (("base", "src/pfaffkit"), ("change", None), ("bench-cached", "bench")):
        side = tmp_path / name
        (side / "src" / "pfaffkit").mkdir(parents=True)
        (side / "bench").mkdir()
        if cached:
            (side / cached / "__pycache__").mkdir()
        sides.append(side)
    for base, change, cached in ((sides[0], sides[1], sides[0]), (sides[1], sides[2], sides[2])):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_pairs.py"), str(base), str(change),
                               "--pairs", "1"], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"ab_pairs: only {cached.resolve()} holds __pycache__ under src/pfaffkit or bench; "
                               "compare two fresh copies\n")


def _rank_ladder(tmp_path, *args):
    out = tmp_path / "ranks.json"
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the script puts its own src first for the children
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "rank_ladder.py"), *args, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_rank_ladder_runs_one_rung(tmp_path):
    record = _rank_ladder(tmp_path, "--max-n", "4")
    # the source it ran is named by its hash, in a checkout or a copy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pfaffkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert record["src_sha256"] == digest.hexdigest()
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        assert record["commit"] == (head.stdout.strip() if head.returncode == 0 else None)
    else:
        assert record["commit"] is None and record["src_differs_from_commit"] is None
    assert record["host"] and record["budget_s"] == 30
    assert list(record["ladders"]) == ["ncmsf", "central", "msf"]
    for suite, (rung,) in record["ladders"].items():
        assert rung["n"] == 4 and rung["status"] == "pass" and 0 < rung["wall_s"] < 30
        assert rung["vmhwm_mib"] > 1
        # the msf rung is the coloring (4, 4), named by --pq
        rank = ":p4q4" if suite == "msf" else ":n4"
        assert rung["top_check"]["id"].startswith(f"{suite}:") and rung["top_check"]["id"].endswith(rank)


def test_rank_ladder_kills_a_rung_at_the_budget(tmp_path):
    # the interpreter alone takes longer than this budget: the first rung of
    # each ladder is killed there, and the ladder stops
    record = _rank_ladder(tmp_path, "--budget", "0.01")
    for (rung,) in record["ladders"].values():
        rung.pop("vmhwm_mib", None)  # read if the child was still there to read
    killed = [{"n": 4, "status": "over-budget", "wall_s": 0.01}]
    assert record["ladders"] == {"ncmsf": killed, "central": killed, "msf": killed}


def test_rank_ladder_never_starts_msf_past_its_last_rank():
    # read in a child, so the script's import-time settings stay out of this process
    code = ("import json, sys; from itertools import islice; sys.path.insert(0, sys.argv[1]); import rank_ladder as r; "
            "print(json.dumps([r.MSF_LAST_RANK, {s: [list(islice(r.ranks(s, m), 12)) for m in (None, 6, 20)] "
            "for s in r.SUITES}]))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts")], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    last, ranks = json.loads(proc.stdout)
    unbounded = list(range(4, 16))  # the first 12 rungs
    assert last == 8
    assert ranks == {"ncmsf": [unbounded, [4, 5, 6], unbounded], "central": [unbounded, [4, 5, 6], unbounded],
                     "msf": [[4, 5, 6, 7, 8], [4, 5, 6], [4, 5, 6, 7, 8]]}
