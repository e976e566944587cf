"""End-to-end tests for the command-line interface and its exit-code contract."""

import copy
import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import qfactor
import qfactor.harness
import qfactor.suites
from qfactor.cli import _cmd_per_line, _cmd_verify, main, verify_exit_code
from qfactor.graphs import CHUNK_LINES, parse_graph6, random_graph, write_graph6
from qfactor.reportio import dumps_canonical, strip_volatile
from qfactor.spectra import perron_many

C8 = "GhCGKC"
K8 = "G~~~~{"
K10 = "I~~~~~~~w"
GSTAR82 = "G~~~}?"
FACTORLESS = "G]o_GK"
GSTAR82_PLUS_EDGE = "G~~~}C"  # G*(8,2) plus the edge 67


@pytest.fixture
def smoke_file(tmp_path):
    path = tmp_path / "smoke.g6"
    path.write_text(f"{C8}\n{K8}\n{GSTAR82}\n")
    return str(path)


@pytest.fixture
def factorless_file(tmp_path):
    path = tmp_path / "factorless.g6"
    path.write_text(f"{FACTORLESS}\n")
    return str(path)


@pytest.fixture
def no_threshold(monkeypatch):
    """A threshold band so wide that every applicable graph climbs past it,
    which makes FACTORLESS a counterexample."""
    monkeypatch.setattr(qfactor.harness, "EPS", 1e6)


@pytest.fixture(scope="module")
def suite_runs():
    return {}


@pytest.fixture
def cached_suites(monkeypatch, suite_runs):
    """The lemma and identity suites, each run once per module and argument:
    at their one fixed size they take about 0.3 s together."""
    def cached(suite):
        def run_once(**kwargs):
            key = (suite.__name__, tuple(sorted(kwargs.items())))
            if key not in suite_runs:
                suite_runs[key] = suite(**kwargs)
            return copy.deepcopy(suite_runs[key])
        return run_once

    for name in ("lemma_suite", "identity_suite"):
        monkeypatch.setattr(qfactor.suites, name, cached(getattr(qfactor.suites, name)))


def _stdin(text):
    """A text stdin whose bytes the CLI reads through .buffer."""
    return io.TextIOWrapper(io.BytesIO(text.encode("ascii")), encoding="ascii")


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


class TestSpectrum:
    def test_text_rows(self, capsys, smoke_file):
        code, out, _ = run(capsys, "spectrum", smoke_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # three rows plus a summary line
        assert C8 in lines[0] and "q=4" in lines[0]
        assert lines[-1] == "spectrum: 3 graphs, 0 errors"

    def test_json_envelope(self, capsys, smoke_file):
        code, out, _ = run(capsys, "spectrum", smoke_file, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "qfactor.report/v2"
        assert report["tool"]["name"] == "qfactor"
        assert report["command"] == "spectrum"
        rows = report["results"]["items"]
        assert [row["graph6"] for row in rows] == [C8, K8, GSTAR82]
        assert rows[0]["q"] == pytest.approx(4.0, abs=1e-9)
        assert rows[0]["rho"] == pytest.approx(2.0, abs=1e-9)
        assert rows[1]["q"] == pytest.approx(14.0, abs=1e-9)
        assert rows[2]["delta"] == 2

    def test_csv(self, capsys, smoke_file):
        code, out, _ = run(capsys, "spectrum", smoke_file, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert rows[0]["graph6"] == C8
        assert float(rows[1]["q"]) == pytest.approx(14.0, abs=1e-9)

    def test_malformed_line_lax_vs_strict(self, capsys, tmp_path):
        # Malformed lines are error rows, and any error row exits 2, as in
        # factor and verify.
        path = tmp_path / "bad.g6"
        path.write_text("C~\n!!bogus!!\n?\n")  # '?' is the order-0 graph
        code, out, _ = run(capsys, "spectrum", str(path), "--format", "json")
        assert code == 2
        results = json.loads(out)["results"]
        assert results["errors"] == 2
        assert [row["line"] for row in results["items"] if "error" in row] == [2, 3]
        assert "strict" not in json.loads(out)["config"]
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 2
        assert out.count("  error: ") == 2
        assert out.splitlines()[-1] == "spectrum: 3 graphs, 2 errors"
        code, _, err = run(capsys, "spectrum", str(path), "--strict")
        assert code == 2 and "--strict" in err

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(f"{C8}\n"))
        code, out, _ = run(capsys, "spectrum", "-")
        assert code == 0 and C8 in out

    @pytest.mark.parametrize("env", [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8:strict"}],
                             ids=["posix-locale", "utf8-strict"])
    @pytest.mark.parametrize("payload", [b"G\xc3\xa9~~~{", b"G\xff~~~~{"], ids=["utf8", "xff"])
    def test_non_ascii_stdin_exits_2_without_rows(self, env, payload):
        # stdin follows the file rule whatever the locale: the bytes are
        # decoded as strict ASCII, so a non-ASCII byte stops the run before
        # any row, as it does when the same bytes come from a file.
        child_env = {k: v for k, v in os.environ.items()
                     if k not in ("PYTHONIOENCODING", "LC_ALL", "LC_CTYPE", "LANG")}
        child_env.update(env, PYTHONPATH=str(Path(qfactor.__file__).parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", "import sys; from qfactor.cli import main; sys.exit(main())",
             "spectrum", "-"],
            input=b"G~~~~{\n" + payload + b"\n", env=child_env, capture_output=True, timeout=60)
        assert child.returncode == 2
        assert child.stdout == b""
        assert child.stderr.startswith(b"qfactor: ")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "spectrum", "/nonexistent/file.g6")
        assert code == 2 and "qfactor:" in err
        latin = tmp_path / "latin.g6"
        latin.write_bytes(b"C~\n\xe9\n")
        for path in (str(tmp_path), str(latin)):  # a directory, a non-ASCII byte
            code, _, err = run(capsys, "spectrum", path)
            assert code == 2 and "qfactor:" in err
            code, _, err = run(capsys, "verify", "--stream", path)
            assert code == 2 and "qfactor:" in err


# ---------------------------------------------------------------------------
# extremal
# ---------------------------------------------------------------------------


class TestExtremal:
    def test_gstar_frozen(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--family", "gstar", "--n", "8", "--delta", "2",
            "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["results"]
        assert result["graph6"] == GSTAR82
        assert result["coefficients"] == [-120, 104, -20, 1]
        assert result["threshold"] == pytest.approx(12.385164807134505, abs=1e-9)

    def test_g1_parts(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--family", "g1", "--n", "10", "--s", "2",
            "--parts", "3,3", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        result = report["results"]
        # g1 has no n parameter: the results report the order it builds,
        # and the config keeps the flags as they were passed
        assert "n" not in result and "parts" not in result and result["order"] == 8
        assert report["config"]["n"] == 10 and report["config"]["parts"] == [3, 3]

    def test_text_shows_only_the_family_parameters(self, capsys):
        # The report keeps every option in config and none in results; the
        # text shows the family's own: gstar has no s.
        argv = ["extremal", "--family", "gstar", "--n", "8", "--delta", "2", "--s", "5"]
        code, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert code == 0 and "n = 8" in lines and "delta = 2" in lines
        assert "s = 5" not in lines
        code, out, _ = run(capsys, *argv, "--format", "json")
        report = json.loads(out)
        assert report["config"]["s"] == 5
        assert not report["results"].keys() & {"family", "n", "delta", "s", "parts"}

    def test_g4_surgery_metadata(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--family", "g4", "--n", "14", "--delta", "3",
            "--s", "2", "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["results"]
        assert result["surgery"]["removed"] == [[2, 3]]
        assert result["embeds_in_extremal"] is True

    def test_g4_builds_its_plan_and_g3_once(self, capsys, monkeypatch):
        # build_g4 rewires the G3 and the plan the command built; the
        # surgery metadata reads that same plan.
        from qfactor import extremal
        counts = {"surgery_plan": 0, "build_g3": 0}
        for name in counts:
            def counting(*args, name=name, build=getattr(extremal, name)):
                counts[name] += 1
                return build(*args)
            monkeypatch.setattr(extremal, name, counting)
        code, _, _ = run(capsys, "extremal", "--family", "g4", "--n", "14", "--delta", "3",
                         "--s", "2")
        assert code == 0
        assert counts == {"surgery_plan": 1, "build_g3": 1}

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(
            capsys, "extremal", "--family", "gstar", "--n", "5", "--delta", "3"
        )
        assert code == 2
        assert "need n >= 2*delta" in err

    @pytest.mark.parametrize("family, flag", [("gstar", "--delta")])
    def test_odd_order_gstar_is_g2(self, capsys, family, flag):
        # G2(n, s) is G*(n, s) at either parity, so gstar builds it
        code, out, _ = run(capsys, "extremal", "--family", family, "--n", "9", flag, "2")
        assert code == 0
        assert out.startswith("H~~~~~?\ncoefficients = [-168, 136, -23, 1]\n")
        assert "\nq = 14.3245553203368\n" in out

    @pytest.mark.parametrize("argv", [
        ["--family", "g1", "--s", "2", "--parts", "63"],
        ["--family", "g4", "--n", "3000", "--delta", "5", "--s", "3"],
    ], ids=["g1", "g4"])
    def test_order_above_62_exit_2_before_any_build(self, capsys, monkeypatch, argv):
        from qfactor import extremal

        def fail(*args):
            raise AssertionError("built a graph write_graph6 must refuse")

        for name in ("build_gstar", "build_g1", "build_g3", "build_g4", "surgery_plan"):
            monkeypatch.setattr(extremal, name, fail)
        code, out, err = run(capsys, "extremal", *argv)
        assert (code, out, err) == (2, "", "extremal: short-form graph6 supports n <= 62 only\n")

    def test_g2_is_not_a_family(self, capsys):
        # G2(n, s) is gstar --delta s: argparse refuses a second name for it
        code, out, err = run(capsys, "extremal", "--family", "g2", "--n", "8", "--s", "2")
        assert (code, out) == (2, "")
        assert "argument --family: invalid choice: 'g2'" in err

    def test_bad_parts_string_exit_2(self, capsys):
        code, _, err = run(
            capsys, "extremal", "--family", "g1", "--n", "10", "--s", "2",
            "--parts", "3,x",
        )
        assert code == 2

    @pytest.mark.parametrize("parts", ["3,,5", "3,", ",3"])
    def test_empty_parts_item_exit_2(self, capsys, parts):
        # dropping the empty item would quietly build K2 v (K3 u K5) from "3,,5"
        code, out, err = run(capsys, "extremal", "--family", "g1", "--s", "2",
                             "--parts", parts)
        assert (code, out) == (2, "")
        assert f"parts {parts!r} must be comma-separated integers" in err


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------


class TestFactor:
    def test_rows(self, capsys, smoke_file):
        code, out, _ = run(capsys, "factor", smoke_file, "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]["items"]
        by_g6 = {row["graph6"]: row for row in rows}
        assert by_g6[C8]["agreement"] == "criterion_no_factor_yes"
        assert by_g6[K8]["agreement"] == "both_yes"
        assert by_g6[GSTAR82]["criterion_holds"] is False
        assert by_g6[GSTAR82]["blocking"] == [0, 1]
        assert len(by_g6[GSTAR82]["certificate"]) == 8  # two 4-cycles

    def test_factor_has_no_guard_flags(self, capsys, smoke_file):
        # factor takes no guard flags: even factors and the criterion are
        # decided in polynomial time.
        for flag in (["--max-cert-order", "4"], ["--max-cert-edges", "4"],
                     ["--allow-undecided"]):
            code, _, err = run(capsys, "factor", smoke_file, *flag)
            assert code == 2
            assert flag[0] in err
        code, out, _ = run(capsys, "factor", smoke_file, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert "guard_blocked" not in report["results"]
        assert "allow_undecided" not in report["config"]

    def test_criterion_has_no_guard_flag(self, capsys, smoke_file):
        # The criterion is polynomial; its old subset-scan guard flag is gone.
        code, _, err = run(capsys, "factor", smoke_file, "--max-subset-order", "4")
        assert code == 2
        assert "--max-subset-order" in err
        code, out, _ = run(capsys, "factor", smoke_file, "--format", "json")
        assert code == 0
        assert "guards" not in json.loads(out)["config"]

    def test_odd_order_line_is_an_error_row(self, capsys, tmp_path):
        # The criterion rejects odd order; that line fails, the run goes on,
        # and the exit code is 2 (malformed input), never 1 (counterexample).
        path = tmp_path / "odd.g6"
        path.write_text(f"D??\n{C8}\n")
        code, out, _ = run(capsys, "factor", str(path), "--format", "json")
        assert code == 2
        results = json.loads(out)["results"]
        assert results["errors"] == 1
        odd, good = results["items"]
        assert odd == {"line": 1, "graph6": "D??", "error": "criterion requires even order"}
        assert good["graph6"] == C8
        assert good["agreement"] == "criterion_no_factor_yes"

    @pytest.mark.parametrize("copies", [1, 600], ids=["flushed-at-end", "flushed-midway"])
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, copies):
        # A reader that leaves early (`| head -n 1`) does not change the
        # verdict: a bad line still exits 2, and nothing reaches stderr.
        # The pipe's read end is closed before the run starts, so every
        # write to stdout fails, whether the text fits one buffer or not.
        path = tmp_path / "in.g6"
        path.write_text(f"{C8}\n" * copies + "!!bogus!!\n")
        env = dict(os.environ, PYTHONPATH=str(Path(qfactor.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "qfactor.cli", "factor", str(path)],
                env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert done.stderr == b""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_clean_run(self, capsys, smoke_file):
        code, out, _ = run(capsys, "verify", "--stream", smoke_file, "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["total"] == 3
        assert results["counts"]["below_threshold"] == 1
        assert results["counts"]["confirmed_factor"] == 1
        assert results["counts"]["extremal_match"] == 1

    def test_counterexample_exit_1(self, capsys, tmp_path, no_threshold):
        path = tmp_path / "noeven.g6"
        path.write_text(FACTORLESS + "\n")
        code, out, _ = run(capsys, "verify", "--stream", str(path), "--format", "json")
        assert code == 1
        results = json.loads(out)["results"]
        assert "counterexamples" not in results
        assert [row["graph6"] for row in results["items"]
                if row["classification"] == "counterexample"] == [FACTORLESS]
        assert results["items"][0]["witness"] == {"kind": "no_even_factor"}

    def test_malformed_exit_2_wins_over_counterexample(self, capsys, tmp_path, no_threshold):
        path = tmp_path / "mixed.g6"
        path.write_text(FACTORLESS + "\n!!bogus!!\n")
        code, _, _ = run(capsys, "verify", "--stream", str(path))
        assert code == 2

    def test_failed_instance_is_an_error_row(self, capsys, tmp_path, monkeypatch):
        # Skew the top eigenvalue of order-10 matrices past the residual gate;
        # K_10 becomes an error row and K_8 is still classified. The matrices
        # arrive stacked, so the order is the last axis.
        eigh = np.linalg.eigh

        def skewed(m):
            values, vectors = eigh(m)
            return (values + 1e-9 if m.shape[-1] == 10 else values), vectors

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        path = tmp_path / "mixed.g6"
        path.write_text(f"{K8}\n{K10}\n")
        code, out, _ = run(capsys, "verify", "--stream", str(path), "--format", "json")
        assert code == 2
        results = json.loads(out)["results"]
        assert results["counts"]["confirmed_factor"] == 1
        assert results["errors"] == 1
        assert "residual" in results["items"][1]["error"]

    # FACTORLESS has no even factor. With the threshold disabled it is a
    # counterexample, whatever the old certificate-search flags say: verify
    # still accepts them for the benchmark, and ignores them.
    def test_counterexample_despite_certificate_flags(self, capsys, factorless_file,
                                                      no_threshold):
        code, out, _ = run(
            capsys, "verify", "--stream", factorless_file,
            "--max-cert-order", "4", "--max-cert-edges", "4", "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["results"]["items"][0]["classification"] == "counterexample"
        assert report["results"]["counts"]["undecided"] == 0
        assert "guards" not in report["config"]

    def test_undecided_allowed(self, capsys, factorless_file, no_threshold):
        # --allow-undecided is accepted and ignored: nothing is undecided.
        code, out, _ = run(
            capsys, "verify", "--stream", factorless_file,
            "--max-cert-order", "4", "--allow-undecided", "--format", "json",
        )
        assert code == 1
        assert "allow_undecided" not in json.loads(out)["config"]

    def test_report_determinism(self, capsys, smoke_file, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(capsys, "verify", "--stream", smoke_file, "--report", str(r1))[0] == 0
        assert run(capsys, "verify", "--stream", smoke_file, "--report", str(r2))[0] == 0
        a = strip_volatile(json.loads(r1.read_text()))
        b = strip_volatile(json.loads(r2.read_text()))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_jobs_invariance(self, capsys, smoke_file, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(capsys, "verify", "--stream", smoke_file, "--report", str(r1))
        run(capsys, "verify", "--stream", smoke_file, "--jobs", "2", "--report", str(r2))
        a = strip_volatile(json.loads(r1.read_text()))
        b = strip_volatile(json.loads(r2.read_text()))
        # The jobs knob may echo into config; results must be identical.
        assert a["results"] == b["results"]

    # --eps is gone, so every value, the once rejected negative and NaN ones
    # included, is a usage error and classifies nothing.
    @pytest.mark.parametrize("eps", ["-1", "-0.5e-8", "nan", "NaN", "-inf", "x"])
    def test_negative_or_nan_eps_is_a_usage_error(self, capsys, tmp_path, eps):
        path = tmp_path / "plus_edge.g6"
        path.write_text(GSTAR82_PLUS_EDGE + "\n")
        report = tmp_path / "r.json"
        code, out, err = run(capsys, "verify", "--stream", str(path), f"--eps={eps}",
                             "--report", str(report))
        assert code == 2
        assert "--eps" in err and "below_threshold" not in out
        assert not report.exists()

    def test_zero_eps_accepted(self, capsys, tmp_path, monkeypatch):
        # G*(8,2) plus one edge: q = 12.623 lies above the threshold 12.385
        # with no band at all.
        monkeypatch.setattr(qfactor.harness, "EPS", 0.0)
        path = tmp_path / "plus_edge.g6"
        path.write_text(GSTAR82_PLUS_EDGE + "\n")
        code, out, _ = run(capsys, "verify", "--stream", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["items"][0]["classification"] == "confirmed_factor"

    @pytest.mark.parametrize("jobs", ["0", "-3", "1.5"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, smoke_file, jobs):
        code, out, err = run(capsys, "verify", "--stream", smoke_file, f"--jobs={jobs}",
                             "--format", "json")
        assert code == 2
        assert "--jobs" in err and out == ""

    def test_text_summary_line(self, capsys, smoke_file):
        code, out, _ = run(capsys, "verify", "--stream", smoke_file)
        assert code == 0
        assert "total=3" in out.replace(" ", "")


# ---------------------------------------------------------------------------
# the process boundary: entry() flushes and leaves through os._exit
# ---------------------------------------------------------------------------

SRC = str(Path(qfactor.__file__).parents[1])

# entry() with two usable CPUs, so that --jobs 2 forks on any machine.
POOL_ENTRY = ("import os; os.sched_getaffinity = lambda pid: {0, 1}; "
              "from qfactor.cli import entry; entry()")
# The same, with every forked child killing itself at its first graph.
KILLED_CHILD_ENTRY = (
    "import os, signal; import qfactor.harness as h; parent = os.getpid(); "
    "connected = h.is_connected; "
    "h.is_connected = lambda g: (os.getpid() == parent or os.kill(os.getpid(), signal.SIGKILL)) "
    "and connected(g); " + POOL_ENTRY)
# entry() around a main that raises the exception named in argv[1].
RAISING_ENTRY = ("import sys, builtins, qfactor.cli as cli; error = getattr(builtins, sys.argv[1]); "
                 "cli.main = lambda: (_ for _ in ()).throw(error('bug')); cli.entry()")


def _child_env(**env):
    """This environment with the package on the path, ``env`` overriding it
    (a None value unsets the variable)."""
    merged = {**os.environ, "PYTHONPATH": SRC, **env}
    return {key: value for key, value in merged.items() if value is not None}


def _cli(*argv, **kwargs):
    """``python -m qfactor.cli *argv`` in a child process."""
    kwargs.setdefault("env", _child_env())
    return subprocess.run([sys.executable, "-m", "qfactor.cli", *argv], timeout=60, **kwargs)


# PYTHONUNBUFFERED unset and set: entry's flush, or the interpreter's, has to
# write what a block-buffered stdout still holds.
UNBUFFERED = pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])


class TestExitPath:
    @UNBUFFERED
    def test_version(self, unbuffered):
        done = _cli("--version", env=_child_env(PYTHONUNBUFFERED=unbuffered),
                    capture_output=True)
        assert done.returncode == 0
        assert done.stdout == f"qfactor {qfactor.__version__}\n".encode("ascii")
        assert done.stderr == b""

    def test_version_without_stdout(self):
        # stdout closed by the shell: argparse prints to stderr, and the
        # missing stream leaves the interpreter's way, still with exit 0.
        done = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "qfactor.cli",
             "--version"], env=_child_env(), capture_output=True, timeout=60)
        assert done.returncode == 0
        assert done.stderr == f"qfactor {qfactor.__version__}\n".encode("ascii")

    @pytest.mark.parametrize("argv", [
        ["identities"],
        ["verify", "--stream", "-", "--format", "csv"],
        ["verify", "--stream", "-", "--format", "json"],
    ], ids=["identities", "verify-csv", "verify-json"])
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, argv):
        # stdout closed by the shell, so sys.stdout is None: the run still
        # writes its report and exits 0, not 1 through a flush on None.
        report = tmp_path / "report.json"
        done = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "qfactor.cli", *argv,
             "--report", str(report)],
            input=f"{K8}\n".encode("ascii"), env=_child_env(), capture_output=True, timeout=60)
        assert done.returncode == 0 and done.stderr == b""
        assert json.loads(report.read_text())["command"] == argv[0]

    @pytest.mark.parametrize("argv", [
        ["verify", "--stream", "-"],
        ["factor"],
        ["spectrum"],
    ], ids=["verify", "factor", "spectrum"])
    def test_closed_stdin_is_a_usage_error(self, argv):
        # stdin closed by the shell, so sys.stdin is None: reading "-" is
        # unreadable input (exit 2, one line), not a traceback from entry.
        done = subprocess.run(
            ["sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-m", "qfactor.cli", *argv],
            env=_child_env(), capture_output=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == b"qfactor: standard input is closed\n"

    def test_unmapped_exception_exits_2(self):
        # A bug, not a finding: the traceback goes to stderr, and exit 1
        # stays reserved for counterexamples and suite failures.
        done = subprocess.run([sys.executable, "-c", RAISING_ENTRY, "LookupError"],
                              env=_child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("Traceback") and done.stderr.endswith("LookupError: bug\n")

    def test_keyboard_interrupt_keeps_its_default_exit(self):
        done = subprocess.run([sys.executable, "-c", RAISING_ENTRY, "KeyboardInterrupt"],
                              env=_child_env(), capture_output=True, timeout=60)
        assert done.returncode == -signal.SIGINT

    def test_usage_error(self):
        done = _cli("verify", "--jobs", "0", "--stream", "-", capture_output=True, text=True)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("usage: qfactor verify ")
        assert done.stderr.endswith("error: argument --jobs: must be at least 1, got '0'\n")

    @UNBUFFERED
    def test_redirected_stdout_is_complete(self, capsys, tmp_path, unbuffered):
        # About 280 KB of rows: an exit that skipped the last flush would
        # lose the tail of a block-buffered stdout.
        path = tmp_path / "in.g6"
        path.write_text(f"{C8}\n" * 3000 + "!!bogus!!\n")
        code, expected, _ = run(capsys, "factor", str(path))
        assert code == 2
        out = tmp_path / "out.txt"
        with open(out, "wb") as fh:
            done = _cli("factor", str(path), env=_child_env(PYTHONUNBUFFERED=unbuffered),
                        stdout=fh, stderr=subprocess.PIPE)
        assert done.returncode == 2 and done.stderr == b""
        assert out.read_bytes() == expected.encode("ascii")

    def test_pool_leaves_no_process_behind(self, tmp_path):
        # Three chunks. In its own session, the child's process group is
        # empty once it has exited: no process it forked outlives it.
        path = tmp_path / "in.g6"
        path.write_text(f"{C8}\n{K8}\n{GSTAR82}\n" * CHUNK_LINES)
        reports = []
        for jobs in ("1", "2"):
            reports.append(tmp_path / f"jobs{jobs}.json")
            child = subprocess.Popen(
                [sys.executable, "-c", POOL_ENTRY, "verify", "--stream", str(path),
                 "--jobs", jobs, "--report", str(reports[-1])],
                env=_child_env(), stdout=subprocess.DEVNULL, start_new_session=True)
            assert child.wait(timeout=60) == 0
            with pytest.raises(ProcessLookupError):
                os.killpg(child.pid, 0)
        one, two = (strip_volatile(json.loads(report.read_text())) for report in reports)
        assert one["config"].pop("jobs") == 1 and two["config"].pop("jobs") == 2
        assert one == two

    def test_killed_child_exits_2_and_leaves_no_process_behind(self, tmp_path):
        # A forked child dies by SIGKILL: its rows are lost, so the run stops
        # with exit 2 within the timeout, and nothing of it outlives it.
        path = tmp_path / "in.g6"
        path.write_text(f"{K8}\n" * 3 * CHUNK_LINES)
        child = subprocess.Popen(
            [sys.executable, "-c", KILLED_CHILD_ENTRY, "verify", "--stream", str(path),
             "--jobs", "2"],
            env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            _, err = child.communicate(timeout=60)
            assert child.returncode == 2
            assert re.fullmatch(rb"qfactor: verify worker \d+ was killed by signal 9\n", err)
            with pytest.raises(ProcessLookupError):
                os.killpg(child.pid, 0)
        finally:  # a hung run fails the test without leaving its processes running
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_stderr_keeps_exit_2(self, tmp_path):
        # The message cannot be written: it is dropped, and the usage
        # failure still exits 2, not 1 through a second error.
        with open("/dev/full", "w") as full:
            done = _cli("verify", "--stream", str(tmp_path / "missing.g6"),
                        stdout=subprocess.PIPE, stderr=full)
        assert done.returncode == 2 and done.stdout == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_unwritable_stdout_after_argparse_exits_2(self, flag):
        # argparse's text waits in a block-buffered stdout, so entry's flush
        # is the write that fails: a message and exit 2, not the
        # interpreter's exit 120. (Unbuffered, argparse's own write fails
        # and argparse ignores it.)
        with open("/dev/full", "w") as full:
            done = _cli(flag, env=_child_env(PYTHONUNBUFFERED=None), stdout=full,
                        stderr=subprocess.PIPE)
        assert done.returncode == 2
        assert re.fullmatch(rb"qfactor: \[Errno 28\] [^\n]*\n", done.stderr)

    def test_closed_stderr_keeps_exit_2_and_stdout_clean(self, tmp_path):
        # stderr closed by the shell, so sys.stderr is None: the message goes
        # nowhere, not into the stdout a CSV or JSON reader parses.
        done = subprocess.run(
            ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "qfactor.cli",
             "verify", "--stream", str(tmp_path / "missing.g6")],
            env=_child_env(), stdout=subprocess.PIPE, timeout=60)
        assert done.returncode == 2 and done.stdout == b""


# ---------------------------------------------------------------------------
# the per-line pipeline shared by spectrum, factor and verify
# ---------------------------------------------------------------------------


def _mixed_stream():
    """2*CHUNK_LINES + 37 lines, so three chunks: random graphs of orders 1..12
    (7 is odd) with a blank, a header-prefixed, a malformed and an order-0
    line among them."""
    lines = [write_graph6(random_graph((8, 10, 4, 12, 6, 7, 10, 1)[i % 8],
                                       (0.3, 0.6, 0.9)[i % 3], seed=i))
             for i in range(2 * CHUNK_LINES + 37)]
    lines[5] = ""
    lines[60] = ">>graph6<<" + lines[60]
    lines[101] = "!!bogus!!"
    lines[200] = "?"
    return lines


def test_per_line_commands_share_one_reader(tmp_path):
    # The three commands run one reader: the same rows in the same order,
    # each with the same line number and graph6. A malformed line is an
    # error row in all three; beyond it each command fails only where its
    # own fields do: spectrum on order 0 (no minimum degree), factor on odd
    # orders (the criterion needs an even order), verify nowhere.
    lines = _mixed_stream()
    path = tmp_path / "mixed.g6"
    path.write_text("\n".join(lines) + "\n")
    runs = {name: _cmd_per_line(Namespace(subcommand=name, input=str(path)))
            for name in ("spectrum", "factor")}
    runs["verify"] = _cmd_verify(Namespace(stream=str(path), jobs=1))
    rows = {name: run.results["items"] for name, run in runs.items()}
    keys = [(row["line"], row["graph6"]) for row in rows["verify"]]
    assert len(keys) == len(lines) - 1 and keys[59] == (61, lines[60][len(">>graph6<<"):])
    fails = {
        "spectrum": lambda g: g.n == 0,
        "factor": lambda g: g.n % 2 == 1,
        "verify": lambda g: False,
    }
    for name, command_rows in rows.items():
        assert [(row["line"], row["graph6"]) for row in command_rows] == keys, name
        errors = [row["line"] for row in command_rows if "error" in row]
        expected = [line for line, text in keys
                    if text == "!!bogus!!" or fails[name](parse_graph6(text))]
        assert errors == expected, name
        assert runs[name].exit_code == 2
    assert (201, "?") in keys
    # spectrum's q and rho are the one-graph values, bit for bit, though
    # each order of a chunk is one eigh call
    for row in rows["spectrum"]:
        if "error" not in row:
            g = parse_graph6(row["graph6"])
            assert (row["q"], row["rho"]) == (perron_many([g], 1)[0], perron_many([g], 0)[0])


@pytest.mark.parametrize("argv, text, rows", [
    (["factor", "-"], f"{K8}\x0c{K8}\n{K8}\n",
     [(1, f"{K8}\x0c{K8}", "expected 6 bytes for n=8, got 13"), (2, K8, None)]),
    (["verify", "--stream", "-"], f"{K8}\x1dF~~~w\n",
     [(1, f"{K8}\x1dF~~~w", "expected 6 bytes for n=8, got 12")]),
    (["factor", "-"], f"{K8}\x1f\n", [(1, f"{K8}\x1f", "expected 6 bytes for n=8, got 7")]),
    (["factor", "-"], f"{K8}\r\n{C8}\r\n", [(1, K8, None), (2, C8, None)]),
], ids=["form-feed", "group-separator", "unit-separator", "crlf"])
def test_lines_end_at_newline_only(capsys, monkeypatch, argv, text, rows):
    # A control byte inside a line neither splits it nor is stripped from
    # it: the line is one error row with its own number. "\r\n" ends a line.
    monkeypatch.setattr("sys.stdin", _stdin(text))
    code, out, _ = run(capsys, *argv, "--format", "json")
    items = json.loads(out)["results"]["items"]
    assert [(row["line"], row["graph6"], row.get("error")) for row in items] == rows
    assert code == (2 if any(error for _, _, error in rows) else 0)


class TestVerifyExitCode:
    def test_clean(self):
        results = {"errors": 0, "counts": {"counterexample": 0}}
        assert verify_exit_code(results) == 0

    def test_counterexample(self):
        results = {"errors": 0, "counts": {"counterexample": 2}}
        assert verify_exit_code(results) == 1

    def test_undecided(self):
        # The undecided count is a benchmark holdover; it never sets the
        # exit code.
        results = {"errors": 0, "counts": {"counterexample": 0, "undecided": 1}}
        assert verify_exit_code(results) == 0

    def test_errors_outrank_everything(self):
        results = {"errors": 1, "counts": {"counterexample": 5}}
        assert verify_exit_code(results) == 2


# ---------------------------------------------------------------------------
# lemmas / identities
# ---------------------------------------------------------------------------


class TestSuitesCli:
    def test_lemmas_pass(self, capsys, cached_suites):
        code, out, _ = run(capsys, "lemmas", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["all_passed"] is True
        assert "seed" not in report
        assert report["config"] == {"seed": 0}

    def test_lemmas_seed_in_envelope(self, capsys, cached_suites):
        code, out, _ = run(capsys, "lemmas", "--seed", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 3

    # --grid is gone: any grid, the once unknown, repeated or below-minimum
    # keys included, is a usage error before a suite runs.
    def test_unknown_grid_key(self, capsys):
        for grid in ("bogus=3", "det_eval_max_order=8"):
            code, out, err = run(capsys, "lemmas", "--grid", grid)
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --grid" in err

    def test_lemma_failure_exits_1_with_its_report(self, capsys, monkeypatch, tmp_path):
        # A G* partition that is not equitable (vertex 0 alone, every other
        # vertex in one cell) fails a section: a suite failure (exit 1) with
        # the report written, not a usage error.
        monkeypatch.setattr("qfactor.suites.gstar_cells",
                            lambda n, delta: [[0], list(range(1, n))])
        path = tmp_path / "lemmas.json"
        code, out, err = run(capsys, "lemmas", "--report", str(path))
        assert (code, err) == (1, "")
        assert "eigenvector_cells: FAIL" in out and "lemmas: FAILURES" in out
        results = json.loads(path.read_text())["results"]
        assert results["eigenvector_cells"]["passed"] is False
        assert results["all_passed"] is False

    def test_bad_grid_syntax(self, capsys):
        code, _, _ = run(capsys, "identities", "--grid", "max_delta")
        assert code == 2

    @pytest.mark.parametrize("command, grid, key", [
        ("lemmas", "max_n=6,max_n=8", "max_n"),
        ("identities", "max_delta=2, max_delta =3", "max_delta"),
    ])
    def test_repeated_grid_key_is_a_usage_error(self, capsys, command, grid, key):
        code, out, err = run(capsys, command, "--grid", grid)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --grid" in err and "more than once" not in err

    @pytest.mark.parametrize("command, grid, message", [
        ("lemmas", "max_n=5", "max_n must be at least 6, got 5"),
        ("lemmas", "max_s=1", "max_s must be at least 2, got 1"),
        ("lemmas", "pairs=0", "pairs must be at least 1, got 0"),
        ("lemmas", "max_n=-1,max_s=-1,pairs=0", "max_n must be at least 6, got -1"),
        ("identities", "max_delta=1", "max_delta must be at least 2, got 1"),
        ("identities", "max_delta=0", "max_delta must be at least 2, got 0"),
    ])
    def test_grid_below_minimum_is_a_usage_error(self, capsys, command, grid, message):
        code, out, err = run(capsys, command, "--grid", grid)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --grid" in err and message not in err

    @pytest.mark.parametrize("command", ["lemmas", "identities"])
    def test_suite_passes_with_valid_json(self, capsys, cached_suites, command):
        code, out, _ = run(capsys, command, "--format", "json")
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        assert json.loads(out, parse_constant=reject)["results"]["all_passed"] is True

    def test_identities_pass(self, capsys, cached_suites):
        code, out, _ = run(capsys, "identities", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["all_passed"] is True
        assert report["config"] == {}


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------


@pytest.fixture
def tampered_threshold(monkeypatch):
    """phi_bstar with its constant term off by one, which threshold_q's
    cross-check must reject. The threshold cache is cleared before, so no
    value computed earlier skips the check, and after."""
    from qfactor.extremal import phi_bstar, threshold_q

    def tampered(n, delta):
        poly = phi_bstar(n, delta)
        return (poly[0] - 1, *poly[1:])

    monkeypatch.setattr("qfactor.extremal.phi_bstar", tampered)
    threshold_q.cache_clear()
    yield
    threshold_q.cache_clear()


class TestHardChecks:
    """A hard check that fails outside a stream's error rows exits 2 with one
    ``qfactor: <message>`` line on stderr: no traceback, and never exit 1,
    which reports a counterexample or a failed suite."""

    # extremal and lemmas run no eigensolver (every radius is an exact
    # quotient root), so no residual gate can fail them.
    @pytest.mark.parametrize("argv, last_line", [
        (["extremal", "--family", "gstar", "--n", "8", "--delta", "2"],
         "threshold = 12.3851648071345\n"),
        (["lemmas"], "lemmas: all passed\n"),
    ], ids=["extremal", "lemmas"])
    def test_residual_gate(self, capsys, monkeypatch, argv, last_line):
        monkeypatch.setattr("qfactor.spectra.RESIDUAL_GATE", -1.0)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.endswith(last_line)

    def test_tampered_threshold_polynomial_fails_identities(self, capsys, tampered_threshold):
        code, out, err = run(capsys, "identities")
        assert (code, out) == (2, "")
        assert err.startswith("qfactor: threshold cross-validation failed at (n=22, delta=2)")

    def test_tampered_threshold_polynomial_is_a_verify_error_row(self, capsys, tmp_path,
                                                                 tampered_threshold):
        path = tmp_path / "k8.g6"
        path.write_text(f"{K8}\n")
        code, out, _ = run(capsys, "verify", "--stream", str(path), "--format", "json")
        assert code == 2
        results = json.loads(out)["results"]
        assert results["errors"] == 1 and results["total"] == 1
        assert "threshold cross-validation failed at (n=8, delta=2)" in results["items"][0]["error"]


class TestAgreement:
    def test_n4_exhaustive(self, capsys):
        code, out, _ = run(capsys, "agreement", "--n", "4", "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["counts"] == {
            "both_yes": 1,
            "both_no": 54,
            "criterion_yes_factor_no": 0,
            "criterion_no_factor_yes": 9,
        }

    def test_odd_n_exit_2(self, capsys):
        code, _, err = run(capsys, "agreement", "--n", "5")
        assert code == 2
        assert "even" in err

    def test_sampled(self, capsys):
        code, out, _ = run(
            capsys, "agreement", "--n", "8", "--samples", "20", "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["total"] == 20 and results["mode"] == "sampled"

    @pytest.mark.parametrize("argv", [
        ["--n", "8", "--samples", "5", "--p", "0", "--connected-only"],
        ["--n", "0", "--samples", "1", "--connected-only"],
    ], ids=["argv0", "argv1"])  # explicit, the names they had by position
    def test_sampled_without_connected_graphs_exit_2(self, capsys, argv):
        code, _, err = run(capsys, "agreement", *argv)
        assert code == 2
        assert "no connected graph" in err

    def test_sampled_with_vanishing_connection_probability_exit_2(self):
        # Connected graphs exist at p = 1e-6 but are never drawn: the bounded
        # rejection count ends the run. A separate process, so a regression
        # fails on the timeout instead of hanging the suite.
        env = dict(os.environ, PYTHONPATH=str(Path(qfactor.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "qfactor.cli", "agreement", "--n", "8",
             "--samples", "1", "--p", "1e-6", "--connected-only"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert "no connected graph in 10000 draws" in done.stderr
        assert "n=8, p=1e-06" in done.stderr

    def test_sampled_order_above_62_exit_2_before_any_graph(self, capsys, monkeypatch):
        # A disagreement above order 62 has no short-form graph6, so the
        # order is refused before the first graph is drawn or evaluated.
        def evaluated(g):
            pytest.fail(f"evaluated a graph of order {g.n}")

        monkeypatch.setattr("qfactor.census.factor_verdict", evaluated)
        code, out, err = run(capsys, "agreement", "--n", "64", "--samples", "20",
                             "--p", "0.08", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == "agreement: short-form graph6 supports n <= 62 only\n"

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        code, out, err = run(capsys, "agreement", "--n", "6", "--samples", samples)
        assert code == 2 and out == ""
        assert err == f"agreement: samples must be at least 1, got {samples}\n"

    def test_exhaustive_is_default_and_modes_are_exclusive(self, capsys):
        # Without --samples the census is exhaustive; --exhaustive is gone.
        code, out, _ = run(capsys, "agreement", "--n", "4", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["mode"] == "exhaustive"
        # The mode is a result; the config does not restate it.
        assert "exhaustive" not in report["config"]
        code, _, _ = run(
            capsys, "agreement", "--n", "4", "--exhaustive", "--samples", "5"
        )
        assert code == 2


# ---------------------------------------------------------------------------
# removed knobs
# ---------------------------------------------------------------------------


# Each run parameter has one value: the flags that once set another are usage
# errors that print nothing to stdout, and so is a census above order 7.  The
# benchmark's certificate flags still parse, and are ignored.
@pytest.mark.parametrize("argv, exit_code", [
    (["verify", "--stream", "-", "--eps", "1"], 2),
    (["lemmas", "--grid", "max_n=6"], 2),
    (["identities", "--grid", "max_delta=2"], 2),
    (["agreement", "--n", "4", "--exhaustive"], 2),
    (["agreement", "--n", "4", "--max-enum-order", "7"], 2),
    (["agreement", "--n", "8"], 2),
    (["verify", "--stream", "-", "--max-cert-order", "24", "--max-cert-edges", "400",
      "--allow-undecided"], 0),
], ids=["verify-eps", "lemmas-grid", "identities-grid", "agreement-exhaustive",
        "agreement-max-enum-order", "agreement-n8", "verify-cert-flags"])
def test_one_value_per_run_parameter(capsys, monkeypatch, argv, exit_code):
    monkeypatch.setattr("sys.stdin", _stdin(f"{C8}\n{K8}\n{GSTAR82}\n"))
    code, out, err = run(capsys, *argv)
    assert code == exit_code
    if exit_code == 2:
        assert out == "" and err
    else:
        assert out.endswith("confirmed_factor=1 extremal_match=1 counterexample=0 undecided=0\n")


# ---------------------------------------------------------------------------
# envelope details
# ---------------------------------------------------------------------------


class TestEnvelope:
    def test_report_file_is_canonical_and_complete(self, capsys, smoke_file, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "spectrum", smoke_file, "--report", str(report_path)
        )
        assert code == 0
        text = report_path.read_text()
        report = json.loads(text)
        assert report["schema"] == "qfactor.report/v2"
        assert "timestamp" in report["meta"]
        assert "wall_time_s" in report["meta"]
        assert "config" in report
        # Canonical serialization: sorted keys, two-space indent, newline EOF.
        assert text.endswith("\n")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_floats_rounded_to_15_significant_digits(self, capsys, smoke_file):
        _, out, _ = run(capsys, "spectrum", smoke_file, "--format", "json")
        q = json.loads(out)["results"]["items"][1]["q"]
        assert q == float(format(q, ".15g"))

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "qfactor" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# golden projections
# ---------------------------------------------------------------------------

# Every (subcommand, --format) projection, pinned byte for byte against
# tests/golden/cli/<name>.<format>. Graph input comes from stdin, so the
# report's "input" is "-" and no temporary path leaks into the output. The
# stream mixes the smoke graphs, a blank line, a malformed line, a graph
# with no even factor (a counterexample, since the golden run lifts the
# threshold by setting harness.EPS to 1e6), an odd-order graph and G*(8,2)
# plus one edge.
GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
GOLDEN_INPUT = "\n".join(
    [C8, K8, GSTAR82, "", "!!bogus!!", FACTORLESS, "D??", GSTAR82_PLUS_EDGE]) + "\n"

# Each case's test id is explicit, so deleting a row renames no other case.
# The ids keep the names pytest once gave these cases by position: a row's
# last column is the argv number in its first format's id, and each further
# format counts up from it.
GOLDEN_CASES = [
    # (name, argv without --format, formats, exit code, first id number)
    ("spectrum", ["spectrum", "-"], ("text", "json", "csv"), 2, 0),
    ("factor", ["factor", "-"], ("text", "json", "csv"), 2, 3),
    ("verify", ["verify", "--stream", "-"], ("text", "json", "csv"), 2, 6),
    ("extremal_gstar", ["extremal", "--family", "gstar", "--n", "8", "--delta", "2"],
     ("text", "json"), 0, 9),
    ("extremal_g1", ["extremal", "--family", "g1", "--n", "10", "--s", "2",
                     "--parts", "3,3"], ("text", "json"), 0, 11),
    ("extremal_gstar_odd", ["extremal", "--family", "gstar", "--n", "9", "--delta", "2"],
     ("text", "json"), 0, 13),
    ("extremal_g3", ["extremal", "--family", "g3", "--n", "14", "--delta", "3", "--s", "2"],
     ("text", "json"), 0, 15),
    ("extremal_g4", ["extremal", "--family", "g4", "--n", "14", "--delta", "3", "--s", "2"],
     ("text", "json"), 0, 17),
    ("lemmas", ["lemmas", "--seed", "3"], ("text", "json"), 0, 19),
    ("identities", ["identities"], ("text", "json"), 0, 21),
    ("agreement", ["agreement", "--n", "4"], ("text", "json"), 0, 23),
    ("agreement_sampled", ["agreement", "--n", "6", "--samples", "5", "--seed", "1"],
     ("text", "json"), 0, 25),
]

# spectrum and verify print eigh values, and eigensolver noise (a radius of
# 7 printed as 7.00000000000001) differs between OpenBLAS kernels on the
# same input, so in their output every decimal float is compared at 9
# significant digits and anything below 1e-9 in magnitude reads as 0;
# integers, graph6 strings, keys, column order and layout are compared
# exactly. Every other command computes its floats exactly (correctly
# rounded roots, integer certificates), so its output is compared byte for
# byte.
EIGH_COMMANDS = ("spectrum", "verify")
_DECIMAL = re.compile(r"-?\d+(?:\.\d+(?:e[-+]?\d+)?|e[-+]?\d+)")


def _mask_floats(text):
    def canonical(match):
        x = float(match.group())
        return "0" if abs(x) < 1e-9 else format(x, ".9g")
    return _DECIMAL.sub(canonical, text)


def _golden_stdout(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", _stdin(GOLDEN_INPUT))
    code, out, _ = run(capsys, *argv)
    if "json" in argv:
        out = dumps_canonical(strip_volatile(json.loads(out)))
    return code, out


@pytest.mark.parametrize("name, argv, fmt, exit_code", [
    pytest.param(name, argv, fmt, exit_code, id=f"{name}-argv{first + i}-{fmt}-{exit_code}")
    for name, argv, formats, exit_code, first in GOLDEN_CASES
    for i, fmt in enumerate(formats)
])
def test_golden_projection(capsys, monkeypatch, no_threshold, cached_suites,
                           name, argv, fmt, exit_code):
    code, out = _golden_stdout(capsys, monkeypatch, [*argv, "--format", fmt])
    expected = (GOLDEN_DIR / f"{name}.{fmt}").read_text(encoding="ascii")
    assert code == exit_code
    if argv[0] in EIGH_COMMANDS:
        out, expected = _mask_floats(out), _mask_floats(expected)
    assert out == expected


def test_golden_json_with_report_prints_the_envelope(capsys, monkeypatch, tmp_path,
                                                      no_threshold):
    # --report does not change the json projection: stdout is still the
    # golden envelope that --format json alone prints.
    path = tmp_path / "r.json"
    argv = ["verify", "--stream", "-", "--format", "json", "--report", str(path)]
    code, out = _golden_stdout(capsys, monkeypatch, argv)
    assert code == 2
    assert _mask_floats(out) == _mask_floats((GOLDEN_DIR / "verify.json").read_text())


@pytest.mark.parametrize("argv, formats", [
    pytest.param(argv, formats, id=name) for name, argv, formats, _, _ in GOLDEN_CASES
])
def test_report_does_not_depend_on_format(capsys, monkeypatch, tmp_path, no_threshold,
                                          cached_suites, argv, formats):
    # --report PATH writes the same envelope, volatile meta aside, under
    # every --format, and --format json prints exactly the bytes of PATH.
    envelopes = set()
    for fmt in formats:
        path = tmp_path / f"{fmt}.json"
        monkeypatch.setattr("sys.stdin", _stdin(GOLDEN_INPUT))
        _, out, _ = run(capsys, *argv, "--format", fmt, "--report", str(path))
        written = path.read_text(encoding="ascii")
        if fmt == "json":
            assert out == written
        envelopes.add(dumps_canonical(strip_volatile(json.loads(written))))
    assert len(envelopes) == 1


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=name) for name, argv, _, _, _ in GOLDEN_CASES
])
def test_report_states_each_fact_once(capsys, monkeypatch, no_threshold, cached_suites, argv):
    # command names the subcommand and config holds the options, so config
    # does not name it again; extremal's results repeat no option, and
    # verify's do not list its counterexample rows a second time.
    monkeypatch.setattr("sys.stdin", _stdin(GOLDEN_INPUT))
    _, out, _ = run(capsys, *argv, "--format", "json")
    report = json.loads(out)
    assert set(report) == {"schema", "tool", "command", "config", "meta", "results"}
    assert report["schema"] == "qfactor.report/v2"
    assert "subcommand" not in report["config"]
    if argv[0] == "extremal":
        assert not report["results"].keys() & report["config"].keys()
    if argv[0] == "verify":
        assert "counterexamples" not in report["results"]


# Explicit ids, each the name pytest once gave the case by position.
@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=f"argv{number}-{message}")
    for number, argv, message in [
        (0, ["--family", "gstar", "--n", "8"], "extremal: gstar requires --n and --delta"),
        (1, ["--family", "g1", "--s", "2"], "extremal: g1 requires --s and --parts"),
        (2, ["--family", "g4", "--n", "7", "--delta", "4", "--s", "2"],
         "extremal: big part m=2 must be >= delta+1-s=3"),
        (3, ["--family", "g3", "--n", "14", "--delta", "3"],
         "extremal: g3 requires --n, --delta and --s"),
        (4, ["--family", "g4", "--delta", "3", "--s", "2"],
         "extremal: g4 requires --n, --delta and --s"),
        (5, ["--family", "g3", "--n", "14", "--delta", "3", "--s", "3"],
         "extremal: need 2 <= s <= delta-1"),
    ]
])
def test_extremal_missing_flags_message(capsys, argv, message):
    code, out, err = run(capsys, "extremal", *argv)
    assert (code, out, err) == (2, "", message + "\n")
