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
