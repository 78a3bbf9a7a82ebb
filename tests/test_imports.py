"""Importing pfaffkit stays cheap: no introspection machinery at start-up.

Every CLI call and every benchmark pass is a fresh interpreter, so what
`import pfaffkit` loads is paid on each of them.  The package defines plain
classes, not dataclasses, and `dataclasses` alone would pull in `inspect`,
`ast`, `dis` and `tokenize`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# the modules each import adds to what the interpreter's start-up loaded,
# one space-separated line per import
_PROBE = """\
import sys
before = set(sys.modules)
import pfaffkit
mid = set(sys.modules)
import pfaffkit.cli
print(" ".join(sorted(mid - before)))
print(" ".join(sorted(set(sys.modules) - mid)))
"""


def test_import_adds_no_introspection_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    package, cli = (set(line.split()) for line in proc.stdout.splitlines())
    assert {"pfaffkit", "pfaffkit.uea", "pfaffkit.verify"} <= package
    assert "pfaffkit.cli" in cli
    assert not package & set(HEAVY), sorted(package & set(HEAVY))
    assert not cli & set(HEAVY), sorted(cli & set(HEAVY))
