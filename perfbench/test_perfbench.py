"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from qfactor.extremal import build_gstar, threshold_q  # noqa: E402
from qfactor.graphs import random_graph, write_graph6  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_a_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_streams_are_seeded():
    a, b = workloads.near_extremal_lines(5, 0.2), workloads.near_extremal_lines(5, 0.2)
    assert workloads.stream_sha256(a) == workloads.stream_sha256(b)
    assert workloads.stream_sha256(a) != workloads.stream_sha256(workloads.near_extremal_lines(6, 0.2))
    # seed 0 starts with the first graph of the acceptance sweep
    first = next(
        g for g in (random_graph(8, 0.5, s) for s in range(1000))
        if min(g.degrees()) >= 2 and len(checks.components(list(g.rows), 255)) == 1
    )
    assert workloads.sweep_lines(0, 0.01)[0].graph6 == write_graph6(first)


def test_independent_graph_code_agrees_with_the_package():
    for seed in range(40):
        g = random_graph(9 + seed % 5, 0.6, seed)
        assert checks.decode_graph6(write_graph6(g)) == list(g.rows)
    for n, delta in ((8, 2), (14, 3), (24, 4)):
        assert abs(checks.threshold(n, delta) - threshold_q(n, delta)) < 1e-9
        for line in workloads.near_extremal_lines(n + delta, 0.2):
            rows = checks.decode_graph6(line.graph6)
            assert (checks.gstar_delta(rows) == line.delta) == (line.kind == "gstar")
    g = build_gstar(8, 2)
    assert checks.blocks(list(g.rows), [0, 1])
    assert not checks.blocks(list(g.rows), [2, 3])


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    lines = workloads.sweep_lines(2, 0.01)
    work = tmp_path_factory.mktemp("sweep")
    (work / "s.g6").write_text(workloads.stream_text(lines))
    subprocess.run(
        [sys.executable, "-m", "qfactor.cli", "verify", "--stream", str(work / "s.g6"),
         *workloads.SWEEP_GUARDS, "--report", str(work / "r.json")],
        env=_env(), check=True, capture_output=True, timeout=120,
    )
    return lines, json.loads((work / "r.json").read_text())


def _check(report, lines):
    return checks.check_verify(report, lines, lambda line: False)


def test_untampered_report_passes(sweep_report):
    lines, report = sweep_report
    tally = _check(report, lines)
    assert (tally.attempted, tally.failed) == (len(lines), 0), tally.reasons


def test_tampered_witness_counts_as_failed(sweep_report):
    lines, report = sweep_report
    bad = json.loads(json.dumps(report))
    row = next(r for r in bad["results"]["items"]
               if (r.get("witness") or {}).get("kind") == "even_factor")
    row["witness"]["edges"].pop()
    tally = _check(bad, lines)
    assert tally.failed == 1 and "parity" in tally.reasons[0]


def test_tampered_q_counts_as_failed(sweep_report):
    lines, report = sweep_report
    bad = json.loads(json.dumps(report))
    bad["results"]["items"][0]["q"] += 1e-6
    bad["results"]["items"][1]["threshold"] -= 1e-6
    assert _check(bad, lines).failed == 2


def test_wrong_classification_and_error_rows_count_as_failed(sweep_report):
    lines, report = sweep_report
    bad = json.loads(json.dumps(report))
    results = bad["results"]
    below = next(r for r in results["items"] if r["classification"] == "below_threshold")
    below["classification"] = "undecided"
    results["counts"]["below_threshold"] -= 1
    results["counts"]["undecided"] += 1
    last = results["items"][-1]
    results["counts"][last["classification"]] -= 1
    results["items"][-1] = {"line": last["line"], "graph6": last["graph6"], "error": "boom"}
    results["errors"] = 1
    assert _check(bad, lines).failed == 2
    results["errors"] = 0  # a summary that disagrees with the rows fails them all
    assert _check(bad, lines).failed == len(lines)


def test_crash_fails_every_operation(sweep_report):
    lines, _ = sweep_report
    tally = _check(None, lines)
    assert tally.failed == tally.attempted == len(lines)


def test_census_must_match_the_golden_file():
    golden = ROOT / "tests" / "golden" / "agreement_n6.json"
    results = json.loads(golden.read_text())
    assert checks.check_agreement({"results": results}, golden).failed == 0
    results["counts"]["both_yes"] += 1
    assert checks.check_agreement({"results": results}, golden).failed == results["total"]
