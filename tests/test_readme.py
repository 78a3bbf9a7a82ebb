"""The README's library quick start and eigenvalue examples print what it
says, and every qualified or snake_case name it cites exists."""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

from pfaffkit import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _quick_start() -> str:
    section = README.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_expected_lines():
    code = _quick_start()
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    assert len(expected) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_eigenvalue_examples_print_their_output(capsys):
    examples = re.findall(r"^\$ (pfaffkit eigenvalue .*)\n(.*)$", README, re.M)
    assert len(examples) == 3
    for command, output in examples:
        assert cli.main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out == output + "\n", command


MODULES = ("rings", "indexing", "linalg", "pfaffian", "uea", "grassmann", "matrixio", "verify", "cli")


def test_qualified_names_resolve():
    # `module.name` or `Class.attr` in inline code must still exist, so a
    # deletion cannot leave the README citing a name that is gone
    modules = {name: importlib.import_module(f"pfaffkit.{name}") for name in MODULES}
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if isinstance(obj, type) and not name.startswith("_")}
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    cited = set()
    for span in spans:
        for dotted in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            head, *rest = dotted.split(".")
            if head in modules or head in classes:
                cited.add(dotted)
                obj = modules.get(head) or classes[head]
                for attr in rest:
                    assert hasattr(obj, attr), f"README cites {dotted}, which does not exist"
                    obj = getattr(obj, attr)
    assert len(cited) >= 15
    # a bare snake_case span such as `det_exact` must name an attribute of
    # some module or public class
    names = {name for obj in (*modules.values(), *classes.values()) for name in dir(obj)}
    bare = {span for span in spans if re.fullmatch(r"_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+", span)}
    assert not bare - names, f"README cites {sorted(bare - names)}, which do not exist"
    assert len(bare) >= 15
