"""End-to-end tests for the command-line interface and its exit-code contract."""

import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfactor
import qfactor.harness
from qfactor.cli import main, verify_exit_code
from qfactor.reportio import dumps_canonical, strip_volatile

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
        assert report["schema"] == "qfactor.report/v1"
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
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{C8}\n"))
        code, out, _ = run(capsys, "spectrum", "-")
        assert code == 0 and C8 in out

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

    def test_g2_matches_gstar(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--family", "g2", "--n", "8", "--s", "2",
            "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["results"]
        assert result["graph6"] == GSTAR82

    def test_g1_parts(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--family", "g1", "--n", "10", "--s", "2",
            "--parts", "3,3", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        result = report["results"]
        assert result["parts"] == [3, 3]
        # g1 has no n parameter: the results report the order it builds,
        # and the config keeps the flag as it was passed
        assert "n" not in result and result["order"] == 8
        assert report["config"]["n"] == 10

    def test_results_hold_only_the_family_parameters(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--family", "gstar", "--n", "8", "--delta", "2",
            "--s", "5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert (report["results"]["n"], report["results"]["delta"]) == (8, 2)
        assert "s" not in report["results"] and report["config"]["s"] == 5

    def test_g4_surgery_metadata(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--family", "g4", "--n", "14", "--delta", "3",
            "--s", "2", "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["results"]
        assert result["surgery"]["removed"] == [[2, 3]]
        assert result["embeds_in_extremal"] is True

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(
            capsys, "extremal", "--family", "gstar", "--n", "7", "--delta", "2"
        )
        assert code == 2
        assert "even" in err

    def test_bad_parts_string_exit_2(self, capsys):
        code, _, err = run(
            capsys, "extremal", "--family", "g1", "--n", "10", "--s", "2",
            "--parts", "3,x",
        )
        assert code == 2


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
        assert len(by_g6[GSTAR82]["certificate"]) == 8  # a Hamiltonian cycle

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

    def test_counterexample_exit_1(self, capsys, tmp_path):
        path = tmp_path / "noeven.g6"
        path.write_text(FACTORLESS + "\n")
        code, out, _ = run(
            capsys, "verify", "--stream", str(path), "--eps", "1e6",
            "--format", "json",
        )
        assert code == 1
        results = json.loads(out)["results"]
        assert results["counterexamples"] == [FACTORLESS]
        assert results["items"][0]["witness"] == {"kind": "no_even_factor"}

    def test_malformed_exit_2_wins_over_counterexample(self, capsys, tmp_path):
        path = tmp_path / "mixed.g6"
        path.write_text(FACTORLESS + "\n!!bogus!!\n")
        code, _, _ = run(capsys, "verify", "--stream", str(path), "--eps", "1e6")
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
    def test_counterexample_despite_certificate_flags(self, capsys, factorless_file):
        code, out, _ = run(
            capsys, "verify", "--stream", factorless_file,
            "--eps", "1e6", "--max-cert-order", "4", "--max-cert-edges", "4",
            "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["results"]["items"][0]["classification"] == "counterexample"
        assert report["results"]["counts"]["undecided"] == 0
        assert "guards" not in report["config"]

    def test_undecided_allowed(self, capsys, factorless_file):
        # --allow-undecided is accepted and ignored: nothing is undecided.
        code, out, _ = run(
            capsys, "verify", "--stream", factorless_file,
            "--eps", "1e6", "--max-cert-order", "4",
            "--allow-undecided", "--format", "json",
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

    # G*(8,2) plus one edge: q = 12.623 lies above the threshold 12.385, so
    # a negative band would call it below_threshold.
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

    def test_zero_eps_accepted(self, capsys, tmp_path):
        path = tmp_path / "plus_edge.g6"
        path.write_text(GSTAR82_PLUS_EDGE + "\n")
        code, out, _ = run(capsys, "verify", "--stream", str(path), "--eps", "0",
                           "--format", "json")
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


class TestVerifyExitCode:
    def test_clean(self):
        results = {"errors": 0, "counts": {"counterexample": 0}}
        assert verify_exit_code(results) == 0

    def test_counterexample(self):
        results = {"errors": 0, "counts": {"counterexample": 2}}
        assert verify_exit_code(results) == 1

    def test_undecided(self):
        # The undecided count is a benchmark holdover; it never sets the
        # exit code, and 3 is left to agreement's enumeration guard.
        results = {"errors": 0, "counts": {"counterexample": 0, "undecided": 1}}
        assert verify_exit_code(results) == 0

    def test_errors_outrank_everything(self):
        results = {"errors": 1, "counts": {"counterexample": 5}}
        assert verify_exit_code(results) == 2


# ---------------------------------------------------------------------------
# lemmas / identities
# ---------------------------------------------------------------------------


class TestSuitesCli:
    def test_lemmas_pass(self, capsys):
        code, out, _ = run(
            capsys, "lemmas", "--grid", "max_n=10,max_s=3,pairs=10",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["all_passed"] is True
        assert report["seed"] == 0

    def test_lemmas_seed_in_envelope(self, capsys):
        code, out, _ = run(
            capsys, "lemmas", "--seed", "9", "--grid", "max_n=10,max_s=3,pairs=5",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_unknown_grid_key(self, capsys):
        code, _, err = run(capsys, "lemmas", "--grid", "bogus=3")
        assert code == 2
        # The divisibility check always runs; its old order cap is no key.
        code, out, err = run(capsys, "lemmas", "--grid", "det_eval_max_order=8")
        assert (code, out) == (2, "")
        assert err.startswith("lemmas: unknown grid keys ['det_eval_max_order']")

    def test_lemma_failure_exits_1_with_its_report(self, capsys, monkeypatch, tmp_path):
        # A Perron vector that is not constant on a cell fails a section:
        # a suite failure (exit 1) with the report written, not a usage error.
        perron_q = qfactor.harness.perron_q

        def skewed(g):
            data = perron_q(g)
            vector = data.vector.copy()
            vector[0] += 1e-3
            return dataclasses.replace(data, vector=vector)

        monkeypatch.setattr("qfactor.harness.perron_q", skewed)
        path = tmp_path / "lemmas.json"
        code, out, err = run(capsys, "lemmas", "--grid", "max_n=6,max_s=2,pairs=1",
                             "--report", str(path))
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
        # The first value is not dropped in favour of the last: nothing runs.
        code, out, err = run(capsys, command, "--grid", grid)
        assert (code, out) == (2, "")
        assert f"argument --grid: grid key '{key}' is given more than once" in err

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
        assert (code, out, err) == (2, "", f"{command}: grid key {message}\n")

    @pytest.mark.parametrize("command, grid", [
        ("lemmas", "max_n=6,max_s=2,pairs=1"),
        ("identities", "max_delta=2"),
    ])
    def test_grid_at_minimum_passes_with_valid_json(self, capsys, command, grid):
        code, out, _ = run(capsys, command, "--grid", grid, "--format", "json")
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        assert json.loads(out, parse_constant=reject)["results"]["all_passed"] is True

    def test_identities_pass(self, capsys):
        code, out, _ = run(capsys, "identities", "--grid", "max_delta=3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["all_passed"] is True


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------


class TestAgreement:
    def test_n4_exhaustive(self, capsys):
        code, out, _ = run(
            capsys, "agreement", "--n", "4", "--exhaustive", "--format", "json"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["counts"] == {
            "both_yes": 1,
            "both_no": 54,
            "criterion_yes_factor_no": 0,
            "criterion_no_factor_yes": 9,
        }

    def test_odd_n_exit_2(self, capsys):
        code, _, err = run(capsys, "agreement", "--n", "5", "--exhaustive")
        assert code == 2
        assert "even" in err

    def test_enum_guard_exit_3(self, capsys):
        code, _, _ = run(capsys, "agreement", "--n", "8", "--exhaustive")
        assert code == 3

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
    ])
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

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        code, out, err = run(capsys, "agreement", "--n", "6", "--samples", samples)
        assert code == 2 and out == ""
        assert err == f"agreement: samples must be at least 1, got {samples}\n"

    def test_exhaustive_is_default_and_modes_are_exclusive(self, capsys):
        code, out, _ = run(capsys, "agreement", "--n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["mode"] == "exhaustive"
        code, _, _ = run(
            capsys, "agreement", "--n", "4", "--exhaustive", "--samples", "5"
        )
        assert code == 2


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
        assert report["schema"] == "qfactor.report/v1"
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
# with no even factor (a counterexample once --eps 1e6 lifts the threshold),
# an odd-order graph and G*(8,2) plus one edge.
GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
GOLDEN_INPUT = "\n".join(
    [C8, K8, GSTAR82, "", "!!bogus!!", FACTORLESS, "D??", GSTAR82_PLUS_EDGE]) + "\n"
GOLDEN_CASES = [
    # (name, argv without --format, formats, exit code)
    ("spectrum", ["spectrum", "-"], ("text", "json", "csv"), 2),
    ("factor", ["factor", "-"], ("text", "json", "csv"), 2),
    ("verify", ["verify", "--stream", "-", "--eps", "1e6"], ("text", "json", "csv"), 2),
    ("extremal_gstar", ["extremal", "--family", "gstar", "--n", "8", "--delta", "2"],
     ("text", "json"), 0),
    ("extremal_g1", ["extremal", "--family", "g1", "--n", "10", "--s", "2",
                     "--parts", "3,3"], ("text", "json"), 0),
    ("extremal_g2", ["extremal", "--family", "g2", "--n", "8", "--s", "2"],
     ("text", "json"), 0),
    ("extremal_g3", ["extremal", "--family", "g3", "--n", "14", "--delta", "3", "--s", "2"],
     ("text", "json"), 0),
    ("extremal_g4", ["extremal", "--family", "g4", "--n", "14", "--delta", "3", "--s", "2"],
     ("text", "json"), 0),
    ("lemmas", ["lemmas", "--seed", "3", "--grid", "max_n=10,max_s=3,pairs=5"],
     ("text", "json"), 0),
    ("identities", ["identities", "--grid", "max_delta=3"], ("text", "json"), 0),
    ("agreement", ["agreement", "--n", "4"], ("text", "json"), 0),
    ("agreement_sampled", ["agreement", "--n", "6", "--samples", "5", "--seed", "1"],
     ("text", "json"), 0),
]

# Eigensolver noise (cell spreads near 1e-15, a radius of 7 printed as
# 7.00000000000001) differs between OpenBLAS kernels on the same input, so
# every decimal float is compared at 9 significant digits and anything below
# 1e-9 in magnitude reads as 0. Integers, graph6 strings, keys, column order
# and layout are compared exactly.
_DECIMAL = re.compile(r"-?\d+(?:\.\d+(?:e[-+]?\d+)?|e[-+]?\d+)")


def _mask_floats(text):
    def canonical(match):
        x = float(match.group())
        return "0" if abs(x) < 1e-9 else format(x, ".9g")
    return _DECIMAL.sub(canonical, text)


def _golden_stdout(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN_INPUT))
    code, out, _ = run(capsys, *argv)
    if "json" in argv and "--report" not in argv:
        out = dumps_canonical(strip_volatile(json.loads(out)))
    return code, out


@pytest.mark.parametrize("name, argv, fmt, exit_code", [
    (name, argv, fmt, exit_code)
    for name, argv, formats, exit_code in GOLDEN_CASES for fmt in formats
])
def test_golden_projection(capsys, monkeypatch, name, argv, fmt, exit_code):
    code, out = _golden_stdout(capsys, monkeypatch, [*argv, "--format", fmt])
    expected = (GOLDEN_DIR / f"{name}.{fmt}").read_text(encoding="ascii")
    assert code == exit_code
    assert _mask_floats(out) == _mask_floats(expected)


def test_golden_json_with_report_prints_summary_only(capsys, monkeypatch, tmp_path):
    # With --report, --format json prints only the text summary line; the
    # file holds the envelope that --format json alone would print.
    path = tmp_path / "r.json"
    argv = ["verify", "--stream", "-", "--eps", "1e6", "--format", "json",
            "--report", str(path)]
    code, out = _golden_stdout(capsys, monkeypatch, argv)
    assert code == 2
    assert out == (GOLDEN_DIR / "verify.text").read_text().splitlines(True)[-1]
    written = dumps_canonical(strip_volatile(json.loads(path.read_text())))
    assert _mask_floats(written) == _mask_floats((GOLDEN_DIR / "verify.json").read_text())


@pytest.mark.parametrize("argv, message", [
    (["--family", "gstar", "--n", "8"], "extremal: gstar requires --n and --delta"),
    (["--family", "g1", "--s", "2"], "extremal: g1 requires --s and --parts"),
    (["--family", "g2", "--n", "8"], "extremal: g2 requires --n and --s"),
    (["--family", "g3", "--n", "14", "--delta", "3"],
     "extremal: g3 requires --n, --delta and --s"),
    (["--family", "g4", "--delta", "3", "--s", "2"],
     "extremal: g4 requires --n, --delta and --s"),
    (["--family", "g3", "--n", "14", "--delta", "3", "--s", "3"],
     "extremal: need 2 <= s <= delta-1"),
])
def test_extremal_missing_flags_message(capsys, argv, message):
    code, out, err = run(capsys, "extremal", *argv)
    assert (code, out, err) == (2, "", message + "\n")
