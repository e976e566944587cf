"""Command-line surface: batch subcommands, report files, exit-code contract.

Subcommands::

    spectrum    per-graph q and rho
    extremal    build one member of the extremal families, with metadata
    factor      per-graph criterion verdict, blocking set, certificate
    verify      classify a graph6 stream against the even-factor theorem
    lemmas      run the supporting-lemma suite
    identities  run the exact polynomial-identity suite
    agreement   criterion-vs-even-factor cross-tabulation over a population

Graphs are read one graph6 string per line (``-`` means standard input),
in chunks by graphs.line_chunks and graphs.chunk_rows for all three
per-line commands: each command's fields raise on a line that fails, and
chunk_rows makes that line an error row.  Input is read as bytes and must
be ASCII, from a file or stdin alike, whatever the locale; a closed stdin
is unreadable input.
``--report PATH`` writes the canonical JSON report envelope.  ``--format``
alone chooses stdout: ``json`` prints that same envelope, with or without
``--report``, and ``text`` and ``csv`` are human/flat projections of the
same rows.

Exit codes: 0 = completed with no counterexample or mismatch; 1 = a
counterexample or suite failure was found (reports are still written);
2 = usage or malformed input (``spectrum``, ``factor`` and ``verify`` still
write their error rows), including an exhaustive ``agreement`` census above
order 7, or a failed hard check (the threshold cross-check), printed as
``qfactor: <message>``.  Input-integrity problems (2) take precedence over
findings (1).
A reader of stdout that leaves early, or a stdout closed by the shell, does
not change the exit code; a message stderr cannot take is dropped; a stdout
that cannot take the output (a full device) exits 2.
Every other computation is polynomial and has no guard.

``qfactor`` and ``python -m qfactor.cli`` run :func:`entry`, which flushes
after :func:`main` and leaves by ``os._exit``, skipping interpreter teardown:
``atexit`` hooks do not run, so profile or measure coverage through ``main``.
An exception ``main`` does not map is a bug, not a finding: entry prints its
traceback and exits 2.

The CLI parses before it loads: at import time this module needs only the
standard library (not csv or json), so ``--version``, ``--help`` and usage
errors load no other qfactor module.  Each runner imports what it runs when
it is dispatched, and ``main`` then loads ``reportio``.  ``factor`` loads
``graphs`` and ``factors``, and ``agreement`` those two and ``census``;
``spectrum`` loads ``graphs`` and ``spectra``, ``extremal`` those two and
``extremal``, and ``lemmas`` and ``identities`` those three and ``suites``;
``verify`` loads ``harness`` and every other module but ``census`` and
``suites``.  numpy loads at the first Perron value of an input graph, which
only ``spectrum`` and ``verify`` compute: ``extremal``, ``identities`` and
``lemmas`` take every radius as an exact quotient root.
The imports sit inside the functions, not in module globals, so a wrapper
installed on a module's function (the benchmark's tracer) is the function
called.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Callable, NamedTuple, Sequence

from . import __version__


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"parts {text!r} must be comma-separated integers")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid int")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _read_lines(source: str) -> list[str]:
    """The lines of a file or of stdin (``-``), split at ``\n`` only and
    decoded as strict ASCII whatever the locale: a non-ASCII byte raises."""
    if source == "-":
        if sys.stdin is None:  # closed by the shell (<&-)
            raise OSError("standard input is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    return data.decode("ascii").split("\n")


# ---------------------------------------------------------------------------
# rendering


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        from .reportio import format_float
        return format_float(value)
    if value is None:
        return ""
    if isinstance(value, dict):  # verify's witness, as sorted JSON
        import json
        return json.dumps(value, sort_keys=True)
    return str(value)


# The CSV projection of each command's ``results.items``: one column per row
# key, rendered by its formatter in _CSV_FORMAT or else by _fmt.
_CSV_COLUMNS = {
    "spectrum": ("line", "graph6", "n", "m", "delta", "q", "rho", "error"),
    "factor": ("line", "graph6", "criterion_holds", "blocking", "certificate", "agreement",
               "error"),
    "verify": ("line", "graph6", "classification", "q", "threshold", "delta", "witness",
               "note", "error"),
}
_CSV_FORMAT: dict[str, Callable[[Any], str]] = {
    "criterion_holds": lambda holds: "" if holds is None else str(holds).lower(),
    "blocking": lambda blocking: " ".join(map(str, blocking)) if blocking else "",
    "certificate": lambda edges: " ".join(f"{u}-{v}" for u, v in edges) if edges else "",
}


class Run(NamedTuple):
    """What one subcommand computed; :func:`main` renders it."""

    config: dict[str, Any]
    results: dict[str, Any]
    text_lines: list[str]
    exit_code: int = 0


def _warn(text: str) -> None:
    """Print text to stderr, or drop it when stderr is closed or cannot be
    written: a lost diagnostic never changes the exit code or reaches stdout."""
    if sys.stderr is not None:
        try:
            print(text, file=sys.stderr, flush=True)
        except OSError:
            pass


def _write_outputs(args: argparse.Namespace, report: dict[str, Any], run: Run) -> None:
    from .reportio import dumps_canonical
    envelope = dumps_canonical(report) if args.report or args.format == "json" else ""
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(envelope)
    if sys.stdout is None:  # closed by the shell (>&-): the projection goes nowhere
        return
    if args.format == "json":
        sys.stdout.write(envelope)
    elif args.format == "csv":
        import csv
        columns = _CSV_COLUMNS[args.subcommand]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_CSV_FORMAT.get(column, _fmt)(row.get(column)) for column in columns]
                         for row in run.results["items"])
    else:
        for line in run.text_lines:
            print(line)


def _row_lines(rows: list[dict[str, Any]], text_of: Callable[[dict], str]) -> list[str]:
    return [
        f"{row['graph6']}  " + (f"error: {row['error']}" if "error" in row else text_of(row))
        for row in rows
    ]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_per_line(args: argparse.Namespace) -> Run:
    """One row per nonblank input line, read in chunks as verify reads them;
    any error row makes the exit code 2."""
    from .graphs import chunk_rows, line_chunks
    fields_of, text_of = _PER_LINE[args.subcommand]
    rows = [row for chunk in line_chunks(_read_lines(args.input))
            for row in chunk_rows(fields_of, chunk)]
    errors = sum("error" in row for row in rows)
    text_lines = _row_lines(rows, text_of)
    text_lines.append(f"{args.subcommand}: {len(rows)} graphs, {errors} errors")
    results = {"items": rows, "errors": errors, "total": len(rows)}
    return Run({"input": args.input}, results, text_lines, 2 if errors else 0)


def _spectrum_fields(graphs: list) -> list[dict[str, Any]]:
    """Each graph's n, m, delta, q and rho; q and rho take one stacked eigh
    call per order each."""
    from .graphs import min_degree
    from .spectra import perron_many
    deltas = [min_degree(g) for g in graphs]  # order 0: min_degree's error comes first
    return [{"n": g.n, "m": g.edge_count, "delta": delta, "q": q, "rho": rho}
            for g, delta, q, rho in zip(graphs, deltas, perron_many(graphs, 1),
                                        perron_many(graphs, 0))]


def _spectrum_text(row: dict[str, Any]) -> str:
    keys = ("n", "m", "delta", "q", "rho")
    return " ".join(f"{key}={_fmt(row[key])}" for key in keys)


def _factor_fields(graphs: list) -> list[dict[str, Any]]:
    """Each graph's criterion verdict and certificate."""
    from .factors import factor_verdict
    return [factor_verdict(g) for g in graphs]


def _factor_text(row: dict[str, Any]) -> str:
    return (f"criterion={'yes' if row['criterion_holds'] else 'no'} "
            f"blocking=[{_CSV_FORMAT['blocking'](row['blocking'])}] "
            f"certificate_edges={len(row['certificate'] or ())} agreement={row['agreement']}")


# per-line command -> (the fields of each graph of a chunk, the text of a row)
_PER_LINE = {"spectrum": (_spectrum_fields, _spectrum_text), "factor": (_factor_fields, _factor_text)}


# family -> (the flags its builder requires in argument order; the extremal
# function that builds it from them, for g4 the build_g3 that surgery_plan
# rewires; the extremal function that gives its cells from them, or None for
# the coarsest equitable partition). The proof's G2(n, s) is gstar --delta s.
_FAMILIES = {
    "gstar": (("n", "delta"), "build_gstar", "gstar_cells"),
    "g1": (("s", "parts"), "build_g1", "g1_cells"),
    "g3": (("n", "delta", "s"), "build_g3", "g3_cells"),
    "g4": (("n", "delta", "s"), "build_g3", None),
}


def _cmd_extremal(args: argparse.Namespace) -> Run:
    from . import extremal
    from .graphs import check_graph6_order, write_graph6
    from .spectra import equitable_partition, quotient_root
    flags, builder, cells_of = _FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        names = [f"--{flag}" for flag in flags]
        raise ValueError(f"{args.family} requires {', '.join(names[:-1])} and {names[-1]}")
    # write_graph6's limit, checked before a build that could be huge
    check_graph6_order(args.s + sum(args.parts) if args.family == "g1" else args.n)
    g = getattr(extremal, builder)(*values)
    if args.family == "g4":
        plan = extremal.surgery_plan(*values)
        g = extremal.build_g4(g, plan)
    cells = getattr(extremal, cells_of)(*values) if cells_of else equitable_partition(g)
    poly, q = quotient_root(g, cells)
    config = {key: getattr(args, key) for key in ("family", "n", "delta", "s")}
    config["parts"] = list(args.parts) if args.parts else None

    # what the build gives; the options stay in config
    meta: dict[str, Any] = {
        "graph6": write_graph6(g),
        "order": g.n,
        "edges": g.edge_count,
        "q": q,
        "coefficients": list(poly),
    }
    if args.family in ("gstar", "g4"):
        meta["threshold"] = extremal.threshold_q(args.n, args.delta)
    if args.family == "g3":
        meta["m"] = len(cells[-1])  # V_2, the last clique
    elif args.family == "g4":
        meta["surgery"] = {
            "removed": [list(e) for e in plan.removed],
            "added_join_side": [list(e) for e in plan.added_e1],
            "added_interior": [list(e) for e in plan.added_e2],
        }
        gs = extremal.build_gstar(args.n, args.delta)
        meta["embeds_in_extremal"] = extremal.g4_containment(plan, g, gs) is not None

    # the text also shows the family's own options: g1 has no n, gstar no s
    shown = {**meta, **{key: config[key] for key in ("family", *flags)}}
    text_lines = [meta["graph6"]] + [
        f"{key} = {_fmt(value) if isinstance(value, float) else value}"
        for key, value in sorted(shown.items()) if key != "graph6"
    ]
    return Run(config, meta, text_lines)


def verify_exit_code(results: dict[str, Any]) -> int:
    """Exit-code contract for classification runs: malformed input (2)
    outranks a counterexample finding (1)."""
    if results["errors"]:
        return 2
    if results["counts"]["counterexample"]:
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> Run:
    from .harness import verify_stream
    results = verify_stream(_read_lines(args.stream), jobs=args.jobs)
    counts = results["counts"]
    shown = [row for row in results["items"]
             if "error" in row or row["classification"] == "counterexample"]
    text_lines = _row_lines(shown, lambda row: "counterexample")
    text_lines.append(
        "verify: total={total} errors={errors} ".format(**results)
        + " ".join(f"{k}={counts[k]}" for k in counts)
    )
    config = {"input": args.stream, "jobs": args.jobs}
    return Run(config, results, text_lines, verify_exit_code(results))


def _cmd_suite(args: argparse.Namespace) -> Run:
    from .suites import identity_suite, lemma_suite
    if args.subcommand == "lemmas":
        config, results, failure = {"seed": args.seed}, lemma_suite(seed=args.seed), "FAILURES"
    else:
        config, results, failure = {}, identity_suite(), "MISMATCHES"
    text_lines = [
        f"{name}: {'PASS' if section['passed'] else 'FAIL'}"
        for name, section in results.items() if isinstance(section, dict)
    ]
    text_lines.append(
        f"{args.subcommand}: {'all passed' if results['all_passed'] else failure}")
    return Run(config, results, text_lines, 0 if results["all_passed"] else 1)


def _cmd_agreement(args: argparse.Namespace) -> Run:
    from .census import agreement_study
    results = agreement_study(
        args.n,
        connected_only=args.connected_only,
        samples=args.samples,
        p=args.p,
        seed=args.seed,
    )
    config = {key: getattr(args, key) for key in ("n", "samples", "connected_only", "p", "seed")}
    text_lines = [
        f"agreement n={args.n} ({results['mode']}, "
        f"{'connected' if args.connected_only else 'all'}): total={results['total']}"
    ]
    text_lines += [f"  {key}: {count}" for key, count in results["counts"].items()]
    text_lines.append(
        "criterion matches even factors: "
        + ("yes" if results["criterion_matches_factor"] else "no")
    )
    return Run(config, results, text_lines)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfactor",
        description="Spectral even-factor verification toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"qfactor {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func: Callable[[argparse.Namespace], Run], help: str):
        p = sub.add_parser(name, help=help)
        formats = ("text", "json", "csv") if name in _CSV_COLUMNS else ("text", "json")
        p.add_argument("--format", choices=formats, default="text",
                       help="stdout projection (default %(default)s)")
        p.add_argument("--report", metavar="PATH", default=None,
                       help="write the full JSON report envelope to PATH")
        p.set_defaults(func=func)
        return p

    p = add("spectrum", _cmd_per_line, "per-graph spectral radii")
    p.add_argument("input", nargs="?", default="-", help="graph6 file or - for stdin")

    p = add("extremal", _cmd_extremal, "build an extremal-family graph")
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--parts", type=_parse_parts, default=None,
                   help="comma-separated clique orders (g1 only)")

    p = add("factor", _cmd_per_line, "criterion and certificate per graph")
    p.add_argument("input", nargs="?", default="-", help="graph6 file or - for stdin")

    p = add("verify", _cmd_verify, "classify a stream against the theorem")
    p.add_argument("--stream", required=True, metavar="FILE",
                   help="graph6 file or - for stdin")
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                   help="at most N processes, this one included, one per usable CPU "
                        "(default 1)")
    # Benchmark holdovers: perfbench/workloads.py still passes these flags,
    # and perfbench/ changes only in a benchmark change. Accepted, ignored.
    for flag in ("--max-cert-order", "--max-cert-edges"):
        p.add_argument(flag, type=int, help=argparse.SUPPRESS)
    p.add_argument("--allow-undecided", action="store_true", help=argparse.SUPPRESS)

    p = add("lemmas", _cmd_suite, "run the supporting-lemma suite")
    p.add_argument("--seed", type=int, default=0, help="seed for the random pairs")
    add("identities", _cmd_suite, "run the exact identity suite")

    p = add("agreement", _cmd_agreement, "criterion-vs-even-factor cross-tabulation")
    p.add_argument("--n", type=int, required=True, help="graph order (even)")
    p.add_argument("--samples", type=int, default=None,
                   help="number of seeded random graphs (>= 1) instead of every "
                        "labeled graph of order n (n <= 7)")
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--p", type=float, default=0.5, help="edge probability for samples")
    p.add_argument("--seed", type=int, default=0, help="seed for samples")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand, then write its report and stdout projection."""
    args = build_parser().parse_args(argv)
    from .reportio import make_report
    start = time.perf_counter()
    try:
        run = args.func(args)
        report = make_report(args.subcommand, run.config, run.results,
                             wall_time_s=time.perf_counter() - start)
        _write_outputs(args, report, run)
        if sys.stdout is not None:  # None when the shell closed it (>&-)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        return run.exit_code
    except BrokenPipeError:
        # A reader of stdout left early (``| head``). The run is complete and
        # any report file was written first, so its exit code stands. stdout
        # goes to devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return run.exit_code
    except (OSError, UnicodeDecodeError, ArithmeticError, RuntimeError) as exc:
        # unreadable input (a directory, a non-ASCII byte, a closed stdin) or a
        # failed hard check outside a stream's error rows: no finding, never 1
        _warn(f"qfactor: {exc}")
        return 2
    except ValueError as exc:
        # the command's own validation
        _warn(f"{args.subcommand}: {exc}")
        return 2


def entry() -> None:
    """Run :func:`main`, flush, and leave by ``os._exit``, skipping teardown.
    An exception main does not map (a bug) prints its traceback and exits
    2, since only a finding may exit 1; KeyboardInterrupt is left alone. A
    flush that fails here (--help into a full device) exits 2 as in main."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help, --version and usage errors
        code = exc.code
    except Exception:
        import traceback

        _warn(traceback.format_exc().rstrip("\n"))
        code = 2
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None: closed by the shell
                stream.flush()
        except BrokenPipeError:  # a reader of stdout left early, as in main
            pass
        except OSError as exc:  # a full device
            _warn(f"qfactor: {exc}")
            code = 2
    os._exit(code or 0)


if __name__ == "__main__":
    entry()
