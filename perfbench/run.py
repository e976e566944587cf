#!/usr/bin/env python3
"""qfactor benchmark: seeded CLI workloads, independent output checks, and a
traced per-layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

It writes the workload's graph6 streams (generated from ``--seed``) under
``.perfbench_work/``, then runs the real CLI (``python3 -m qfactor.cli`` with
``src`` on ``PYTHONPATH``) as one closed-loop client: each repetition runs
the workload's invocations one after another, and repetitions continue
until ``--seconds`` have passed (at least three).  Every report is checked
by ``checks.py``.  With ``--trace 0`` the last line of standard output
carries the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of ``tracer.py`` passes.  Earlier lines give the context: machine,
stream sha256s, raw timings.  README.md explains every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
GOLDEN = ROOT / "tests" / "golden" / "agreement_n6.json"

SETUP_STARTS = 3  # cold starts before the first repetition, then one after each
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # every process is killed past this point of a run
# Matrices here are at most 62x62, where BLAS threads only spin; they made
# cpu_s exceed wall_s and added noise, so every process runs single-threaded.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Times are reported at a reference CPU speed: the one that runs the
# calibration loop below in CAL_REF_S.  A shared host slows every process by
# up to 2x for tens of seconds at a time; scaling each process's times by
# CAL_REF_S / (calibration time around it) cancels most of that.
CAL_REF_S = 0.011
CAL_LOOP = 200_000
TIME_UNITS = ("s", "ms", "us")  # per-layer metrics that get the same scaling


def calibrate() -> float:
    """Median of five timings of a fixed pure-Python loop, in seconds.  The
    median follows the contention a process meets better than the best."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Proc:
    """One finished process: wall time, CPU time and peak RSS of its process
    tree (from its own wait4 rusage), exit code, report, and the factor that
    scales its times to the reference speed."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    report: dict | None
    scale: float


class Runner:
    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.env.update(BLAS_THREADS)
        self.count = 0
        self.last_cal = calibrate()

    def spawn(self, argv: list[str], report: Path | None = None) -> Proc:
        """Run ``argv`` (a python3 command line) to completion in its own
        session, killing the session if the run limit passes."""
        self.count += 1
        if report is not None and report.exists():
            report.unlink()
        cal_before = self.last_cal
        with open(self.work / f"proc{self.count}.log", "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
            )
            timer = threading.Timer(
                max(0.0, RUN_LIMIT_S - (time.perf_counter() - self.started)),
                os.killpg, (proc.pid, signal.SIGKILL),
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_cal = calibrate()
        parsed = None
        if report is not None and report.exists():
            try:
                parsed = json.loads(report.read_text())
            except ValueError:
                parsed = None
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode, parsed, 2 * CAL_REF_S / (cal_before + self.last_cal))

    def cold_start(self) -> Proc:
        """A qfactor process that does no work."""
        return self.spawn(["-m", "qfactor.cli", "--version"])

    def cli(self, argv: list[str], report: Path) -> Proc:
        return self.spawn(["-m", "qfactor.cli", *argv, "--report", str(report)], report)


def canonical(report: dict | None, drop_jobs: bool = False) -> str | None:
    """The report after the package's strip_volatile, as sorted JSON."""
    from qfactor.reportio import strip_volatile

    if report is None:
        return None
    out = strip_volatile(report)
    if drop_jobs:
        out.get("config", {}).pop("jobs", None)
    return json.dumps(out, sort_keys=True)


def invocation_argv(inv, stream_paths: dict[str, Path], jobs: str | None = None) -> list[str]:
    argv = list(inv.argv)
    if jobs is not None:
        argv[argv.index("--jobs") + 1] = jobs
    if inv.stream is not None:
        argv += ["--stream", str(stream_paths[inv.stream])]
    return argv


def check_report(wl, inv, proc: Proc):
    import checks
    import workloads

    report = proc.report if proc.code == 0 else None
    if inv.name == "verify":
        return checks.check_verify(
            report, wl.streams[inv.stream], lambda line: workloads.undecided_ok(wl.name, line))
    if inv.name == "agreement":
        return checks.check_agreement(report, GOLDEN)
    if inv.name == "lemmas":
        return checks.check_lemmas(report)
    return checks.check_identities(report)


def run_reps(wl, runner: Runner, paths, seconds: float, min_reps: int, tally, setup=None):
    """Repeat the workload's invocations until ``seconds`` have passed,
    with one cold start after each repetition when ``setup`` is a list.
    The first repetition is checked in full; later ones must reproduce its
    reports byte for byte after strip_volatile."""
    import checks

    reps = []
    first: dict[str, tuple] = {}
    begin = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        procs = []
        for inv in wl.invocations:
            proc = runner.cli(invocation_argv(inv, paths), runner.work / f"{inv.name}.json")
            procs.append(proc)
            if inv.name not in first:
                result = check_report(wl, inv, proc)
                first[inv.name] = (result, canonical(proc.report), proc)
                tally.add(result)
                continue
            result, expected, _ = first[inv.name]
            again = checks.Tally(attempted=result.attempted, failed=result.failed)
            if proc.code != 0 or canonical(proc.report) != expected:
                again.fail(result.attempted - result.failed,
                           f"{inv.name} repetition differs from the first")
            tally.add(again)
        reps.append(procs)
        if setup is not None:
            setup.append(runner.cold_start())
        now = time.perf_counter()
        if len(reps) >= min_reps and now - begin >= seconds:
            break
        if now + (now - rep_start) > runner.started + RUN_LIMIT_S - 10:
            break
    return reps, {name: entry[2] for name, entry in first.items()}


def sweep_j2_reference(wl, runner: Runner, paths, proc_j2: Proc, tally) -> None:
    """sweep_j2 must report what sweep (--jobs 1) reports on the same stream."""
    import checks

    ref = runner.cli(invocation_argv(wl.invocations[0], paths, jobs="1"),
                     runner.work / "jobs1.json")
    if canonical(ref.report, True) != canonical(proc_j2.report, True):
        differ = checks.rows_differ(ref.report or {}, proc_j2.report or {})
        tally.fail(max(1, differ), f"--jobs 2 report differs from --jobs 1 in {differ} rows")


def rep_times(reps, attr: str, scaled: bool = True) -> list[float]:
    return [sum(getattr(p, attr) * (p.scale if scaled else 1.0) for p in rep) for rep in reps]


def end_to_end(reps, setup, tally) -> dict:
    """Times are medians, at the reference speed, over the repetitions (and
    over the cold starts for setup_s)."""
    decided = 1.0 - tally.undecided / tally.instances if tally.instances else 1.0
    return {
        "wall_s": (statistics.median(rep_times(reps, "wall_s")), "s"),
        "cpu_s": (statistics.median(rep_times(reps, "cpu_s")), "s"),
        "setup_s": (statistics.median(p.wall_s * p.scale for p in setup), "s"),
        "peak_rss_mb": (statistics.median(max(p.rss_mb for p in rep) for rep in reps), "MB"),
        "decided_frac": (decided, "ratio"),
    }


def tracer_pass(runner: Runner, wl, paths, mode: str, tag: str, jobs: str | None = None):
    """One fresh process running the workload in-process (see tracer.py)."""
    invocations = [
        [*invocation_argv(inv, paths, jobs), "--report", str(runner.work / f"{tag}_{inv.name}.json")]
        for inv in wl.invocations
    ]
    out = runner.work / f"{tag}.spans.json"
    spec_path = runner.work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(
        {"src": str(SRC), "mode": mode, "out": str(out), "invocations": invocations}))
    if out.exists():
        out.unlink()
    proc = runner.spawn([str(HERE / "tracer.py"), str(spec_path)])
    if proc.code != 0 or not out.exists():
        raise RuntimeError(f"tracer pass {tag} failed with exit code {proc.code}")
    reports = {}
    for inv in wl.invocations:
        path = runner.work / f"{tag}_{inv.name}.json"
        reports[inv.name] = json.loads(path.read_text()) if path.exists() else None
    return json.loads(out.read_text())["spans"], reports, proc.scale


def per_layer(wl, runner: Runner, paths, seconds: float, reference, tally) -> dict:
    """Alternate plain and traced in-process passes (and, for a verify
    stream, a plain pass at the other --jobs value) until ``seconds`` have
    passed; every in-process report must equal the CLI's after
    strip_volatile.  Each layer metric is the median over the traced
    passes, with times at the reference speed; the overhead and the speedup
    are medians of ratios between passes run back to back."""
    import checks
    import tracer

    jobs = wl.invocations[0].argv
    jobs = jobs[jobs.index("--jobs") + 1] if "--jobs" in jobs else None
    other = {"1": "2", "2": "1"}.get(jobs)
    rounds = []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        passes = {}
        for mode, pass_jobs in (("plain", None), ("traced", None), ("other", other)):
            if mode == "other" and other is None:
                continue
            tag = f"{mode}{len(rounds)}"
            spans, reports, scale = tracer_pass(
                runner, wl, paths, "traced" if mode == "traced" else "plain", tag, pass_jobs)
            passes[mode] = (spans, scale)
            for inv in wl.invocations:
                if canonical(reports[inv.name], True) != canonical(reference[inv.name].report, True):
                    ops = checks.Tally()
                    ops.fail(1, f"{mode} in-process {inv.name} report differs from the CLI's")
                    tally.add(ops)
        rounds.append(passes)

    def seconds_in(passes, mode, name):
        spans, scale = passes[mode]
        return tracer.total_s(spans, name) * scale

    layers = [(tracer.layer_metrics(r["traced"][0]), r["traced"][1]) for r in rounds]
    metrics = {
        name: (statistics.median(
            m[name][0] * (scale if unit in TIME_UNITS else 1.0) for m, scale in layers), unit)
        for name, (_, unit) in layers[0][0].items()
    }
    metrics["cli.main.s"] = (statistics.median(
        seconds_in(r, "plain", "cli.main") for r in rounds), "s")
    metrics["trace.overhead"] = (statistics.median(
        seconds_in(r, "traced", "cli.main") / seconds_in(r, "plain", "cli.main") - 1.0
        for r in rounds), "ratio")
    speedup = 0.0
    if other is not None:
        ratios = [seconds_in(r, "plain", "harness.verify_stream")
                  / seconds_in(r, "other", "harness.verify_stream") for r in rounds]
        speedup = statistics.median(ratios if jobs == "1" else [1 / x for x in ratios])
    metrics["harness.verify_stream.speedup"] = (speedup, "ratio")
    return metrics


def context(wl, seed: int) -> dict:
    import numpy
    import workloads

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "qfactor").glob("*.py"))}
    lines["total"] = sum(lines.values())
    return {
        "workload": wl.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "src_lines": lines,
        "streams": {k: {"lines": len(v), "sha256": workloads.stream_sha256(v)}
                    for k, v in wl.streams.items()},
    }


def raw_summary(reps, setup, tally) -> dict:
    """Unscaled timings of every repetition and start, for the record."""
    return {
        "samples": len(reps),
        "setup_starts": len(setup),
        "wall_s_raw": [round(t, 4) for t in rep_times(reps, "wall_s", scaled=False)],
        "cpu_s_raw": [round(t, 4) for t in rep_times(reps, "cpu_s", scaled=False)],
        "setup_s_raw": [round(p.wall_s, 4) for p in setup],
        "speed_scale": [round(min(p.scale for p in rep), 4) for rep in reps],
        "failed_frac": tally.failed / max(1, tally.attempted),
        "undecided_frac": tally.undecided / max(1, tally.instances),
        "failures": tally.reasons,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="stream size factor; below 1 only for quick tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "qfactor" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"perfbench: no qfactor source tree at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, args.scale)
        paths = {}
        for key, lines in wl.streams.items():
            paths[key] = work / f"{key}.g6"
            paths[key].write_text(workloads.stream_text(lines))
        print(json.dumps({"context": context(wl, args.seed)}, sort_keys=True))

        runner = Runner(work, started)
        tally = checks.Tally()
        runner.cold_start()  # fill the file cache and byte-code caches
        setup = []
        if args.trace:
            reps, firsts = run_reps(wl, runner, paths, 0.0, 1, tally)
            metrics = per_layer(wl, runner, paths, args.seconds, firsts, tally)
        else:
            setup = [runner.cold_start() for _ in range(SETUP_STARTS)]
            reps, firsts = run_reps(wl, runner, paths, args.seconds, MIN_REPS, tally, setup)
            metrics = end_to_end(reps, setup, tally)
        if wl.name == "sweep_j2":
            sweep_j2_reference(wl, runner, paths, firsts["verify"], tally)
        print(json.dumps({"summary": raw_summary(reps, setup, tally)}, sort_keys=True))
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": max(1, tally.attempted),
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
