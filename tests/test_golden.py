"""The stdout contract: every command in `golden/cli.json` prints exactly the
recorded stdout and exits with the recorded code.

The file maps each argv to its exit code and stdout, taken from the commit
before a change.  A change that keeps stdout byte-identical passes as it
is; a named stdout change regenerates the file and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

The argv list covers every command of README "Command line", both formats
of `paper-suite`, the automorphism groups and checks whose output earlier
changes compared by hand, `envelope` of F0(5) and of odd(1024) (refused by
the ring validation guard), `field build` of the product F0(2)xF0(2), and
the three n = 512 commands, `struct triangular 3` over odd(4), `field check`
of odd(1024) and `field build` of odd(1024), whose prime subfield is the
whole field, and `field aut` of F0(9), 128 automorphisms of a 256-element
field, a size at which checking each map alone took seconds.
"""

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from ternfield import cli

from test_cli import README_COMMANDS

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"


EXTRA_COMMANDS = [
    ["paper-suite", "--format", "json"],
    ["paper-suite", "--format", "markdown"],
    ["field", "aut", "--spec", "F0(5)"],
    ["field", "aut", "--spec", "F0(6)"],
    ["field", "aut", "--spec", "F0(7)"],
    ["field", "aut", "--spec", "F0(5)", "--labels", "paper"],
    ["field", "check", "--spec", "F0(3,3)", "--limit", "256"],
    ["field", "check", "--spec", "F0(6)", "--format", "json"],
    ["envelope", "--spec", "F0(5)"],
    ["envelope", "--spec", "odd(1024)"],
    ["field", "build", "--spec", "F0(2)xF0(2)"],
    ["struct", "triangular", "3", "--spec", "odd(4)"],
    ["field", "check", "--spec", "odd(1024)", "--limit", "512"],
    ["field", "aut", "--spec", "F0(9)", "--labels", "canonical"],
    ["field", "build", "--spec", "odd(1024)"],
]


def run_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def golden_argvs():
    argvs = []
    for argv in README_COMMANDS + EXTRA_COMMANDS:
        if argv not in argvs:
            argvs.append(argv)
    return argvs


def _load():
    """argv as one shell line -> entry; empty before the file is written, which
    the coverage test then refuses."""
    if not GOLDEN.exists():
        return {}
    return {shlex.join(e["argv"]): e for e in json.loads(GOLDEN.read_text())}


GOLDEN_ENTRIES = _load()


@pytest.mark.parametrize("key", list(GOLDEN_ENTRIES))
def test_stdout_and_exit_code_match_the_golden_file(key):
    entry = GOLDEN_ENTRIES[key]
    code, out = run_main(entry["argv"])
    assert code == entry["exit"]
    assert out == entry["stdout"]


def test_the_golden_file_covers_every_listed_command():
    assert [shlex.join(argv) for argv in golden_argvs()] == list(GOLDEN_ENTRIES)


if __name__ == "__main__":
    entries = []
    for argv in golden_argvs():
        code, out = run_main(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} commands to {GOLDEN}", file=sys.stderr)
