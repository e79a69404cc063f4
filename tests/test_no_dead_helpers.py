"""No dead helpers: every function, method and class that `src/ternfield`
defines is named somewhere other than where it is defined, in the package,
in `perfbench` or in either README.  Code that only tests call belongs with
the tests (`tests/oracles.py` holds the shared oracles).

Names are counted as words of the files' text.  Dunder methods are called
by Python itself, and the `cmd_*` handlers through the command table that
`@command` fills, so neither needs another mention."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ternfield").glob("*.py"))
READERS = [*SOURCES, *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "README.md", ROOT / "perfbench" / "README.md"]


def registered_command(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "command"
               for d in node.decorator_list)


def definitions(path):
    """(name, line) of every function, method and class in a source file
    that needs a caller."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name.startswith("cmd_") and registered_command(node):
                continue
            yield name, node.lineno


def test_every_definition_in_src_is_named_where_it_is_not_defined():
    words = Counter(w for path in READERS for w in re.findall(r"\w+", path.read_text()))
    defs = [(path, name, line) for path in SOURCES for name, line in definitions(path)]
    defined = Counter(name for _, name, _ in defs)
    assert [f"{path.name}:{line} {name}" for path, name, line in defs
            if words[name] <= defined[name]] == []
