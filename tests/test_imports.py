"""Importing pfaffkit stays cheap: no introspection machinery and no
precomputed tables at start-up.

Every CLI call and every benchmark pass is a fresh interpreter, so what
`import pfaffkit` loads or builds is paid on each of them.  The package
defines plain classes, not dataclasses, and `dataclasses` alone would pull
in `inspect`, `ast`, `dis` and `tokenize`.  The matching walks of
`pfaffian_definitional` are built inside its first call at each size.
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


def _run(code: str) -> list[str]:
    """The stdout lines of `code` in a fresh interpreter on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_adds_no_introspection_modules():
    package, cli = (set(line.split()) for line in _run(_PROBE))
    assert {"pfaffkit", "pfaffkit.uea", "pfaffkit.verify"} <= package
    assert "pfaffkit.cli" in cli
    assert not package & set(HEAVY), sorted(package & set(HEAVY))
    assert not cli & set(HEAVY), sorted(cli & set(HEAVY))


# the sizes of the cached matching walks after the imports, then after one call
_WALK_PROBE = """\
import sys
import pfaffkit, pfaffkit.cli
walks = sys.modules["pfaffkit.pfaffian"]._WALKS
print(sorted(walks))
pfaffkit.pfaffian_definitional(pfaffkit.AlternatingMatrix.generic(4))
print(sorted(walks))
"""


def test_import_builds_no_matching_walk():
    assert _run(_WALK_PROBE) == ["[]", "[4]"]
