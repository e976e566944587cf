"""Each command loads only the modules it runs, numpy only for the Perron
values of input graphs (so never for ``extremal``, ``identities`` or
``lemmas``), ``fractions`` and ``dataclasses`` never, and ``datetime`` and
``inspect`` only through numpy.

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
    "numpy", "fractions", "dataclasses", "datetime", "csv", "json",
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
     ("qfactor.harness", "qfactor.factors", "numpy"), 0),
    # The theorem check, the suites and the census are separate modules:
    # each command compiles only its own.
    (["agreement", "--n", "4", "--connected-only"], "",
     ("qfactor.spectra", "qfactor.extremal", "qfactor.harness", "qfactor.suites"), 0),
    (["lemmas"], "",
     ("qfactor.factors", "qfactor.harness", "qfactor.census"), 0),
    (["identities"], "",
     ("qfactor.factors", "qfactor.harness", "qfactor.census"), 0),
    (["verify", "--stream", "-"], "G~~~~{\n", ("qfactor.suites", "qfactor.census"), 0),
], ids=["version", "help", "usage-error", "factor", "spectrum", "extremal", "agreement",
        "lemmas", "identities", "verify"])
def test_each_command_loads_only_what_it_runs(argv, stdin, forbidden, code):
    assert _run_main(forbidden, argv, stdin) == code


@pytest.mark.parametrize("argv, stdin, code", [
    (["--version"], "", 0),
    (["agreement", "--n", "4", "--connected-only"], "", 0),
    (["factor"], "G]o_GK\nG~~~~{\n", 0),
    (["verify", "--jobs", "0", "--stream", "-"], "", 2),
    # K7 and K9: odd order, so every row is not_applicable and nothing is solved
    (["verify", "--stream", "-"], "F~~~w\nH~~~~~~\n", 0),
    # every radius of the identity suite is an exact quotient root
    (["identities"], "", 0),
    # and so is every radius of the lemma suite; its edge margins are
    # integer certificates
    (["lemmas"], "", 0),
    # and so is the radius of every extremal family member, g4 included
    (["extremal", "--family", "g4", "--n", "14", "--delta", "3", "--s", "2"], "", 0),
], ids=["version", "agreement", "factor", "usage-error", "verify-not-applicable",
        "identities", "lemmas", "extremal"])
def test_exact_commands_do_not_load_numpy(argv, stdin, code):
    assert _run_main(["numpy"], argv, stdin) == code


@pytest.mark.parametrize("argv, stdin", [
    (["spectrum"], "G~~~~{\n"),
    (["verify", "--stream", "-"], "G~~~~{\n"),
], ids=["spectrum", "verify-applicable"])
def test_perron_commands_load_numpy(argv, stdin):
    assert _run_main(["numpy"], argv, stdin) == 100


# Two usable CPUs, so that verify --jobs 2 forks on any machine.
TWO_CPUS = "import os\nos.sched_getaffinity = lambda pid: {0, 1}\n"


# The per-line commands share one chunked reader (graphs.line_chunks,
# graphs.chunk_rows), and verify's fan-out forks over plain pipes: none of
# them loads multiprocessing, even when verify forks (300 lines are three
# chunks).
@pytest.mark.parametrize("argv, stdin, code", [
    (["spectrum"], "G~~~~{\n", 0),
    (["factor"], "G]o_GK\nG~~~~{\n", 0),
    (["verify", "--jobs", "2", "--stream", "-"], "G~~~~{\n" * 300, 0),
], ids=["spectrum", "factor", "verify-jobs-2"])
def test_per_line_commands_do_not_load_multiprocessing(argv, stdin, code):
    assert _child(TWO_CPUS + RUN_MAIN, ["multiprocessing", *argv], stdin) == code


# The exact routes are integer-only: no command loads fractions.
@pytest.mark.parametrize("argv, stdin", [
    (["verify", "--stream", "-"], "G~~~~{\n"),
    (["lemmas"], ""),
    (["identities"], ""),
    (["extremal", "--family", "gstar", "--n", "8", "--delta", "2"], ""),
    (["agreement", "--n", "4", "--connected-only"], ""),
], ids=["verify", "lemmas", "identities", "extremal-g2", "agreement"])
def test_no_command_loads_fractions(argv, stdin):
    assert _run_main(["fractions"], argv, stdin) == 0


# qfactor imports neither dataclasses nor datetime, so a run that loads no
# numpy loads neither, and no inspect (which dataclasses used to pull in, with
# ast, dis and tokenize). numpy imports datetime and inspect itself.
EXACT_RUN = ("dataclasses", "datetime", "inspect")
PERRON_RUN = ("dataclasses",)


@pytest.mark.parametrize("argv, stdin, forbidden, code", [
    (["--version"], "", EXACT_RUN, 0),
    (["agreement", "--n", "4", "--connected-only"], "", EXACT_RUN, 0),
    (["lemmas"], "", EXACT_RUN, 0),
    (["identities"], "", EXACT_RUN, 0),
    (["extremal", "--family", "g4", "--n", "14", "--delta", "3", "--s", "2"], "", EXACT_RUN, 0),
    (["factor"], "G]o_GK\nG~~~~{\n", EXACT_RUN, 0),
    (["verify", "--stream", "-"], "F~~~w\nH~~~~~~\n", EXACT_RUN, 0),
    (["spectrum"], "G~~~~{\n", PERRON_RUN, 0),
    (["verify", "--stream", "-"], "G~~~~{\n", PERRON_RUN, 0),
], ids=["version", "agreement", "lemmas", "identities", "extremal", "factor",
        "verify-not-applicable", "spectrum", "verify-applicable"])
def test_no_command_loads_dataclasses(argv, stdin, forbidden, code):
    assert _run_main(forbidden, argv, stdin) == code
