"""The command-line tests start Python subprocesses: put the directory the
tests import ternfield from on their PYTHONPATH, so that they run the same
code, also when pytest found it through its own `pythonpath` setting."""

import os
from pathlib import Path

import ternfield

_SRC = str(Path(ternfield.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
