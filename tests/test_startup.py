"""What a process loads at start: the package imports a module on first use,
and the command line never imports dataclasses, nor csv outside --output csv.

Each test runs a fresh interpreter, since the modules this one has loaded
say nothing about a new process; the tests assert module sets, not times."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    _SRC, os.environ.get("PYTHONPATH"))))}


def _python(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_ENV,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def _imported(argv: str) -> set[str]:
    """Every module `python -m qeuler ARGV` imports, read from -X importtime."""
    stderr = _python("-X", "importtime", "-m", "qeuler", *argv.split()).stderr
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and not line.endswith("imported package")}


def test_a_character_group_loads_only_the_characters_module():
    done = _python("-c", "import sys, qeuler\n"
                         "qeuler.build_character_group(15)\n"
                         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'qeuler'))")
    assert done.stdout.split() == ["qeuler", "qeuler.characters", "qeuler.errors"]


_EVAL = "eval-qeuler --d 3 --chi 1 --r 2 --q 0.5 --n 3 --x 0.5"
_VERIFY = "verify --identity T2 --d 3 --q 0.5 --a 1 --b 3 --n-max 2"


@pytest.mark.parametrize("argv,output,csv", [
    (_EVAL, "pretty", False), (_EVAL, "json", False), (_EVAL, "csv", True),
    (_VERIFY, "pretty", False), (_VERIFY, "csv", True),
])
def test_the_command_line_imports_no_dataclasses_and_csv_only_for_csv(argv, output, csv):
    imported = _imported(f"{argv} --output {output}")
    assert {"qeuler.cli", "numpy"} <= imported  # the parse saw the whole import log
    assert "dataclasses" not in imported
    assert ("csv" in imported) == csv


def test_every_public_name_is_its_home_modules_object():
    done = _python("-c", """
import importlib, qeuler
for name in qeuler.__all__:
    home = importlib.import_module("qeuler." + qeuler._HOMES[name])
    assert getattr(qeuler, name) is getattr(home, name), name
assert set(qeuler.__all__) <= set(dir(qeuler))
try:
    qeuler.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name was found")
namespace = {}
exec("from qeuler import *", namespace)
assert {k for k in namespace if k != "__builtins__"} == set(qeuler.__all__)
print(len(qeuler.__all__))
""")
    assert done.stdout.split() == ["41"]
