"""No dead helpers: every function, method and class that `src/ternfield`
defines is used somewhere other than in its own body, in the package or in
`perfbench`, or is public (`ternfield.__all__`) or documented (a word
inside a code span or fenced block of either README; an English word of
the prose keeps nothing alive).  Code that only tests call belongs with
the tests (`tests/oracles.py` holds the shared oracles), and every
definition there is used by a test module or by another oracle.

Uses are read from the ast, so a docstring, a comment, a string or a
builtin of the same name keeps no helper alive:
- a method is used by attribute access (`x.name`), or by name in a class
  body, as an alias such as `__radd__ = __add__` is;
- a function or class is used by name or by attribute (`module.name`).

Dunder methods are called by Python itself, and the `cmd_*` handlers
through the command table that `@command` fills, so neither needs a use.

No dead parameters either: every parameter with a default, of a function
or constructor in `src/ternfield`, is passed by keyword or by position at
some call in the package or `perfbench`; a value only tests pass is no
reason for an option, which is then a constant.  Calls are matched by the
name they call, so a call of any function of that name counts."""

import ast
import math
import re
from collections import defaultdict
from pathlib import Path

import ternfield

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ternfield").glob("*.py"))
CODE = [*SOURCES, *sorted((ROOT / "perfbench").glob("*.py"))]
ORACLES = ROOT / "tests" / "oracles.py"
TESTS = sorted((ROOT / "tests").glob("*.py"))
READMES = [ROOT / "README.md", ROOT / "perfbench" / "README.md"]


def registered_command(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "command"
               for d in node.decorator_list)


def uses(path):
    """(kind, name, line) of every use in a source file: kind "attr" for an
    attribute access, "name" for a name read, and "alias" for a name read
    in a class body outside its methods."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield "attr", node.attr, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                            yield "alias", sub.id, sub.lineno


def definitions(path):
    """(name, is_method, first line, last line) of every function, method
    and class in a source file that needs a use."""
    tree = ast.parse(path.read_text())
    methods = {id(stmt) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for stmt in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name.startswith("cmd_") and registered_command(node):
                continue
            yield name, id(node) in methods, node.lineno, node.end_lineno


def dead_definitions(sources, code, public=frozenset()):
    """"file:line name" of every definition in the sources that is neither
    public nor used in the code outside its own body."""
    seen = defaultdict(list)          # (kind, name) -> [(path, line)]
    for path in code:
        for kind, name, line in uses(path):
            seen[kind, name].append((path, line))
    dead = []
    for path in sources:
        for name, is_method, first, last in definitions(path):
            kinds = ("attr", "alias") if is_method else ("attr", "name")
            if name in public or any(not (p == path and first <= line <= last)
                                     for kind in kinds for p, line in seen[kind, name]):
                continue
            dead.append(f"{path.name}:{first} {name}")
    return dead


def documented_names(path):
    """Every word inside a code span or a fenced block of a Markdown file."""
    for span in re.findall(r"```.*?```|`[^`\n]*`", path.read_text(), re.S):
        yield from re.findall(r"\w+", span)


def test_every_definition_in_src_is_used_outside_its_own_body():
    public = set(ternfield.__all__)
    public.update(w for path in READMES for w in documented_names(path))
    assert dead_definitions(SOURCES, CODE, public) == []


def test_every_oracle_is_used_by_a_test_or_another_oracle():
    assert ORACLES in TESTS
    assert dead_definitions([ORACLES], TESTS) == []


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


def defaulted_parameters(path):
    """(call names, function, parameter, call position or None, line) of
    every parameter with a default.  A constructor is called by its class
    name, or as `__init__` (`super().__init__`); a method's and a
    constructor's positions count from after `self`, as a call writes them;
    a keyword-only parameter has no position."""
    tree = ast.parse(path.read_text())
    owner = {id(stmt): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for stmt in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        shift = 1 if cls is not None and not static else 0
        names = {node.name}
        if cls is not None and node.name == "__init__":
            names.add(cls.name)
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None]
        for param, position in params:
            yield names, node.name, param, position, node.lineno


def calls(path):
    """(name, positional count, keywords) of every call in a source file; a
    `*args` counts as every position and a `**kwargs` (keyword None) as
    every keyword."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            star = any(isinstance(a, ast.Starred) for a in node.args)
            yield name, math.inf if star else len(node.args), {k.arg for k in node.keywords}


def test_every_defaulted_parameter_is_passed_somewhere():
    passed = defaultdict(list)               # name -> [(positional count, keywords)]
    for path in CODE:
        for name, count, keywords in calls(path):
            passed[name].append((count, keywords))
    unused = [f"{path.name}:{line} {function}({param}=)"
              for path in SOURCES
              for names, function, param, position, line in defaulted_parameters(path)
              if not any(param in keywords or None in keywords
                         or (position is not None and count > position)
                         for name in names for count, keywords in passed[name])]
    assert unused == []
