"""Each command loads only the modules it runs, and numpy only for Perron values.

The CLI parses before it loads: ``--version``, ``--help`` and usage errors
load no qfactor module beyond the package and ``qfactor.cli``, and each
subcommand imports its own modules when it is dispatched.

Each case runs a fresh interpreter, so modules imported by other tests do not
leak in. The child reports through its exit code, not through assert, so the
check also holds under ``python -O``.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qfactor

SRC = str(Path(qfactor.__file__).parents[1])

# argv[1] is a comma-separated list of modules the command must not load.
# Exit code: 100 if one of them was loaded, plus the command's own exit code.
RUN_MAIN = """
import sys
from qfactor.cli import main
forbidden = sys.argv[1].split(",")
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
sys.exit(100 * any(name in sys.modules for name in forbidden) + code)
"""

# Exit code 1 if importing any module of the package loads numpy.
IMPORT_ALL = """
import importlib, pkgutil, sys
import qfactor
for info in pkgutil.walk_packages(qfactor.__path__, "qfactor."):
    importlib.import_module(info.name)
sys.exit("numpy" in sys.modules)
"""

# What --version, --help and usage errors must not load: every module of the
# package but the CLI (listed without importing any), numpy, and the standard
# modules the computational ones use.
PARSER_ONLY = (
    *(info.name for info in pkgutil.iter_modules(qfactor.__path__, "qfactor.")
      if info.name != "qfactor.cli"),
    "numpy", "fractions", "dataclasses", "datetime",
)


def _child(source, argv=(), stdin=""):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", source, *argv],
        input=stdin, env=env, capture_output=True, text=True, timeout=60,
    ).returncode


def _run_main(forbidden, argv, stdin=""):
    return _child(RUN_MAIN, [",".join(forbidden), *argv], stdin)


def test_importing_the_package_does_not_load_numpy():
    assert _child(IMPORT_ALL) == 0


@pytest.mark.parametrize("argv, stdin, forbidden, code", [
    (["--version"], "", PARSER_ONLY, 0),
    (["--help"], "", PARSER_ONLY, 0),
    (["verify", "--jobs", "0", "--stream", "-"], "", PARSER_ONLY, 2),
    (["factor"], "G]o_GK\nG~~~~{\n",
     ("qfactor.harness", "qfactor.spectra", "qfactor.extremal", "numpy"), 0),
    (["spectrum"], "G~~~~{\n", ("qfactor.harness", "qfactor.factors", "qfactor.extremal"), 0),
    (["extremal", "--family", "gstar", "--n", "8", "--delta", "2"], "",
     ("qfactor.harness", "qfactor.factors"), 0),
], ids=["version", "help", "usage-error", "factor", "spectrum", "extremal"])
def test_each_command_loads_only_what_it_runs(argv, stdin, forbidden, code):
    assert _run_main(forbidden, argv, stdin) == code


@pytest.mark.parametrize("argv, stdin, code", [
    (["--version"], "", 0),
    (["agreement", "--n", "4", "--connected-only"], "", 0),
    (["factor"], "G]o_GK\nG~~~~{\n", 0),
    (["verify", "--jobs", "0", "--stream", "-"], "", 2),
    # K7 and K9: odd order, so every row is not_applicable and nothing is solved
    (["verify", "--stream", "-"], "F~~~w\nH~~~~~~\n", 0),
], ids=["version", "agreement", "factor", "usage-error", "verify-not-applicable"])
def test_exact_commands_do_not_load_numpy(argv, stdin, code):
    assert _run_main(["numpy"], argv, stdin) == code


@pytest.mark.parametrize("argv, stdin", [
    (["spectrum"], "G~~~~{\n"),
    (["verify", "--stream", "-"], "G~~~~{\n"),
], ids=["spectrum", "verify-applicable"])
def test_perron_commands_load_numpy(argv, stdin):
    assert _run_main(["numpy"], argv, stdin) == 100
