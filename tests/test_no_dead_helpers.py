"""No dead helpers: every function, method and class that `src/ternfield`
defines is named somewhere other than where it is defined, in the package,
in `perfbench` or in either README.  Code that only tests call belongs with
the tests (`tests/oracles.py` holds the shared oracles).

Names are counted as words: of the Python sources without their docstrings
and comments, so that a docstring naming a helper keeps no helper alive,
and of the READMEs in full.  Dunder methods are called by Python itself,
and the `cmd_*` handlers through the command table that `@command` fills,
so neither needs another mention."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ternfield").glob("*.py"))
CODE = [*SOURCES, *sorted((ROOT / "perfbench").glob("*.py"))]
READMES = [ROOT / "README.md", ROOT / "perfbench" / "README.md"]


def registered_command(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "command"
               for d in node.decorator_list)


def code_words(text):
    """The words of a Python source, its docstrings and comments left out."""
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node) is not None}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type != tokenize.COMMENT and tok.start not in docstrings:
            yield from re.findall(r"\w+", tok.string)


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
    words = Counter(w for path in CODE for w in code_words(path.read_text()))
    words.update(w for path in READMES for w in re.findall(r"\w+", path.read_text()))
    defs = [(path, name, line) for path in SOURCES for name, line in definitions(path)]
    defined = Counter(name for _, name, _ in defs)
    assert [f"{path.name}:{line} {name}" for path, name, line in defs
            if words[name] <= defined[name]] == []


def imported_names(tree):
    """(name, line) of every name an import statement binds in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_name_a_module_imports_is_used_in_it():
    # the package's __init__ imports to re-export
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
                   if name not in used]
    assert unused == []
