"""Every function and class of the package is reached from outside its
own definition: code that nothing uses gets deleted, not kept as API."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pfaffkit"
WORD = re.compile(r"\w+")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_words(tree: ast.AST) -> Counter:
    """The names the code of `tree` uses: identifiers, attribute names,
    imported names, and the words of every string constant that is not a
    docstring (`bench/tracer.py` names its targets in strings).  Comments
    and docstrings are not in it, and neither is a def's own name."""
    docstrings = {id(scope.body[0].value) for scope in ast.walk(tree)
                  if isinstance(scope, SCOPES) and ast.get_docstring(scope, clean=False) is not None}
    words = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words[node.id] += 1
        elif isinstance(node, ast.Attribute):
            words[node.attr] += 1
        elif isinstance(node, ast.alias):
            words.update(WORD.findall(node.name))
            if node.asname:
                words[node.asname] += 1
        elif isinstance(node, ast.Constant) and type(node.value) is str and id(node) not in docstrings:
            words.update(WORD.findall(node.value))
    return words


def test_every_def_is_named_outside_its_own_def_line():
    # a def counts as reached when the code of the package (less the
    # `__init__` exports), of scripts/ or of bench/ uses its name; tests,
    # docstrings and comments do not count
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reaching = [tree for path, tree in modules.items() if path.name != "__init__.py"]
    reaching += [ast.parse(path.read_text()) for pattern in ("scripts/*.py", "bench/*.py")
                 for path in sorted(ROOT.glob(pattern))]
    words = sum(map(code_words, reaching), Counter())
    defs = [(path, node) for path, tree in modules.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__")]
    assert len(defs) > 100
    unreached = [f"{path.name}:{node.lineno} {node.name}" for path, node in defs if not words[node.name]]
    assert not unreached, unreached


def test_docstrings_and_comments_do_not_reach():
    tree = ast.parse('"""helper is named here"""\n'
                     'def used():\n    """and helper here"""\n    return other  # helper\n'
                     'TARGETS = ("rings.helper_two",)\n')
    words = code_words(tree)
    assert not words["helper"] and not words["used"]
    assert words["other"] == 1 and words["helper_two"] == 1 and words["rings"] == 1
