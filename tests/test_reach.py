"""Every function and class of the package is reached from outside its
own definition: code that nothing uses gets deleted, not kept as API."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pfaffkit"
WORD = re.compile(r"\w+")


def test_every_def_is_named_outside_its_own_def_line():
    # a name counts as reached when it occurs as a whole word in the
    # package (less its own def line and the `__init__` exports), in
    # scripts/ or in bench/; tests do not count
    modules = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    reaching = [text for path, text in modules.items() if path.name != "__init__.py"]
    reaching += [path.read_text() for pattern in ("scripts/*.py", "bench/*.py") for path in sorted(ROOT.glob(pattern))]
    words = Counter(word for text in reaching for word in WORD.findall(text))
    defs = [(path, node) for path, text in modules.items() for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__")]
    assert len(defs) > 100
    unreached = []
    for path, node in defs:
        own_line = modules[path].splitlines()[node.lineno - 1]
        if words[node.name] == WORD.findall(own_line).count(node.name):
            unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreached, unreached
