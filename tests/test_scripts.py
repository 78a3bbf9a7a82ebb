"""Each script in scripts/ runs to completion at its smallest size."""

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
