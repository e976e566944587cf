"""numpy is loaded only by the float route (Perron values).

Each case runs a fresh interpreter, so modules imported by other tests do not
leak in. The child reports through its exit code, not through assert, so the
check also holds under ``python -O``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfactor

SRC = str(Path(qfactor.__file__).parents[1])

# Exit code: 100 if numpy was loaded, plus the command's own exit code.
RUN_MAIN = """
import sys
from qfactor.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.exit(100 * ("numpy" in sys.modules) + code)
"""

# Exit code 1 if importing any module of the package loads numpy.
IMPORT_ALL = """
import importlib, pkgutil, sys
import qfactor
for info in pkgutil.walk_packages(qfactor.__path__, "qfactor."):
    importlib.import_module(info.name)
sys.exit("numpy" in sys.modules)
"""


def _child(source, argv=(), stdin=""):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", source, *argv],
        input=stdin, env=env, capture_output=True, text=True, timeout=60,
    ).returncode


def test_importing_the_package_does_not_load_numpy():
    assert _child(IMPORT_ALL) == 0


@pytest.mark.parametrize("argv, stdin, code", [
    (["--version"], "", 0),
    (["agreement", "--n", "4", "--connected-only"], "", 0),
    (["factor"], "G]o_GK\nG~~~~{\n", 0),
    (["verify", "--jobs", "0", "--stream", "-"], "", 2),
    # K7 and K9: odd order, so every row is not_applicable and nothing is solved
    (["verify", "--stream", "-"], "F~~~w\nH~~~~~~\n", 0),
], ids=["version", "agreement", "factor", "usage-error", "verify-not-applicable"])
def test_exact_commands_do_not_load_numpy(argv, stdin, code):
    assert _child(RUN_MAIN, argv, stdin) == code


@pytest.mark.parametrize("argv, stdin", [
    (["spectrum"], "G~~~~{\n"),
    (["verify", "--stream", "-"], "G~~~~{\n"),
], ids=["spectrum", "verify-applicable"])
def test_perron_commands_load_numpy(argv, stdin):
    assert _child(RUN_MAIN, argv, stdin) == 100
