"""Command-line surface: batch subcommands, report files, exit-code contract.

Subcommands::

    spectrum    per-graph q and rho
    extremal    build one member of the extremal families, with metadata
    factor      per-graph criterion verdict, blocking set, certificate
    verify      classify a graph6 stream against the even-factor theorem
    lemmas      run the supporting-lemma suite
    identities  run the exact polynomial-identity suite
    agreement   criterion-vs-even-factor cross-tabulation over a population

Graphs are read one graph6 string per line (``-`` means standard input).
``--report PATH`` writes the canonical JSON report envelope; without it,
``--format json`` prints the same envelope to standard output.  ``text``
and ``csv`` are human/flat projections of the same rows.

Exit codes: 0 = completed with no counterexample or mismatch; 1 = a
counterexample or suite failure was found (reports are still written);
2 = usage or malformed input (``spectrum``, ``factor`` and ``verify`` still
write their error rows); 3 = ``agreement``'s enumeration guard
(``--max-enum-order``) blocked an exhaustive census.  Input-integrity
problems (2) take precedence over findings (1).  Every other computation
is polynomial and has no guard.

The CLI parses before it loads: at import time this module needs only the
standard library, so ``--version``, ``--help`` and usage errors load no other
qfactor module.  Each runner imports what it runs when it is dispatched, and
``main`` then loads ``reportio``.  ``verify``, ``lemmas``, ``identities`` and
``agreement`` load ``harness`` and with it every module; ``factor`` loads
``graphs``, ``matching`` and ``factors``; ``spectrum`` loads ``graphs`` and
``spectra``; ``extremal`` loads those two and ``extremal``.  numpy loads at
the first Perron value.  The imports sit inside the functions, not in module
globals, so a wrapper installed on a module's function (the benchmark's
tracer) is the function called.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Any, Callable, NamedTuple, Sequence

from . import DEFAULT_ENUM_ORDER, __version__


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_grid(text: str) -> dict[str, int]:
    """``key=value,key=value`` with integer values; a key may appear once."""
    out: dict[str, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"grid entry {chunk!r} is not key=value")
        key = key.strip()
        if key in out:
            raise argparse.ArgumentTypeError(f"grid key {key!r} is given more than once")
        try:
            out[key] = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"grid value {value!r} is not an integer")
    return out


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"parts {text!r} must be comma-separated integers")
    if not parts:
        raise argparse.ArgumentTypeError("parts must be nonempty")
    return parts


def _at_least(kind: type, minimum: int) -> Callable[[str], Any]:
    """An argparse type: a *kind* (int or float) of at least *minimum*."""
    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid {kind.__name__}")
        if not value >= minimum:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text!r}")
        return value
    return parse


def _read_lines(source: str) -> list[str]:
    if source == "-":
        return sys.stdin.read().splitlines()
    with open(source, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


# ---------------------------------------------------------------------------
# rendering


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        from .reportio import format_float
        return format_float(value)
    if value is None:
        return ""
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
    "witness": lambda witness: json.dumps(witness, sort_keys=True) if witness else "",
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


def _write_outputs(args: argparse.Namespace, report: dict[str, Any], run: Run) -> None:
    from .reportio import dumps_canonical
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(dumps_canonical(report))
    if args.format == "json":
        if args.report:
            print(run.text_lines[-1])  # the summary line
        else:
            sys.stdout.write(dumps_canonical(report))
    elif args.format == "csv":
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
    """One row per nonblank input line: the line number, the graph6 and the
    command's fields for the graph.  A line that fails is an error row, and
    any error row makes the exit code 2."""
    from .graphs import graph6_payload, parse_graph6
    row_of, text_of = _PER_LINE[args.subcommand]
    rows: list[dict[str, Any]] = []
    errors = 0
    for lineno, raw in enumerate(_read_lines(args.input), start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            row = {"line": lineno, "graph6": graph6_payload(text), **row_of(parse_graph6(text))}
        except (ValueError, ArithmeticError) as exc:
            # Graph6Error, an order-0 or odd-order graph, the perron residual
            # gate or a rejected certificate: this line fails, the run goes on.
            errors += 1
            row = {"line": lineno, "graph6": text, "error": str(exc)}
        rows.append(row)
    text_lines = _row_lines(rows, text_of)
    text_lines.append(f"{args.subcommand}: {len(rows)} graphs, {errors} errors")
    results = {"items": rows, "errors": errors, "total": len(rows)}
    return Run({"input": args.input}, results, text_lines, 2 if errors else 0)


def _spectrum_row(g) -> dict[str, Any]:
    from .graphs import min_degree
    from .spectra import perron_q, perron_rho
    return {
        "n": g.n,
        "m": g.edge_count,
        "delta": min_degree(g),
        "q": perron_q(g).value,
        "rho": perron_rho(g).value,
    }


def _spectrum_text(row: dict[str, Any]) -> str:
    keys = ("n", "m", "delta", "q", "rho")
    return " ".join(f"{key}={_fmt(row[key])}" for key in keys)


def _factor_row(g) -> dict[str, Any]:
    from .factors import factor_verdict
    verdict = factor_verdict(g)
    return {
        "criterion_holds": verdict.criterion_holds,
        "blocking": list(verdict.blocking) if verdict.blocking else None,
        "certificate": [list(e) for e in verdict.certificate] if verdict.certificate else None,
        "agreement": verdict.agreement,
    }


def _factor_text(row: dict[str, Any]) -> str:
    return (f"criterion={'yes' if row['criterion_holds'] else 'no'} "
            f"blocking=[{_CSV_FORMAT['blocking'](row['blocking'])}] "
            f"certificate_edges={len(row['certificate'] or ())} agreement={row['agreement']}")


# per-line command -> (the fields of one graph's row, the text of that row)
_PER_LINE = {"spectrum": (_spectrum_row, _spectrum_text), "factor": (_factor_row, _factor_text)}


# family -> the flags its extremal.build_<family> requires, in argument order
_FAMILIES = {
    "gstar": ("n", "delta"),
    "g1": ("s", "parts"),
    "g2": ("n", "s"),
    "g3": ("n", "delta", "s"),
    "g4": ("n", "delta", "s"),
}


def _cmd_extremal(args: argparse.Namespace) -> Run:
    from . import extremal
    from .graphs import write_graph6
    from .spectra import char_poly, largest_real_root, perron_q, quotient
    flags = _FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        names = [f"--{flag}" for flag in flags]
        raise ValueError(f"{args.family} requires {', '.join(names[:-1])} and {names[-1]}")
    g = getattr(extremal, f"build_{args.family}")(*values)
    config = {key: getattr(args, key) for key in ("family", "n", "delta", "s")}
    config["parts"] = list(args.parts) if args.parts else None

    meta: dict[str, Any] = {
        "family": args.family,
        "graph6": write_graph6(g),
        "order": g.n,
        "edges": g.edge_count,
        "q": perron_q(g).value,
    }
    # only the family's own parameters: g1 has no n, gstar no s
    meta.update((flag, value) for flag, value in zip(flags, values) if flag != "parts")
    if args.family == "gstar":
        poly = extremal.phi_bstar(args.n, args.delta)
        meta["coefficients"] = list(poly.coeffs)
        meta["threshold"] = extremal.threshold_q(args.n, args.delta)
    elif args.family == "g2":
        poly = extremal.phi_b2(args.n, args.s)
        meta["coefficients"] = list(poly.coeffs)
        meta["root"] = largest_real_root(poly, 0.0, 2.0 * args.n)
    elif args.family == "g1":
        meta["parts"] = list(args.parts)
        cells = extremal.g1_cells(args.s, args.parts)
        meta["coefficients"] = list(char_poly(quotient(g, cells)).coeffs)
    elif args.family == "g3":
        cells = extremal.g3_cells(args.n, args.delta, args.s)
        meta["coefficients"] = list(char_poly(quotient(g, cells)).coeffs)
        meta["m"] = g.n - args.s - (args.delta + 1 - args.s) * (args.s - 1)
    else:  # g4
        plan = extremal.surgery_plan(args.n, args.delta, args.s)
        containment = extremal.g4_containment(args.n, args.delta, args.s)
        meta["threshold"] = extremal.threshold_q(args.n, args.delta)
        meta["surgery"] = {
            "removed": [list(e) for e in plan.removed],
            "added_join_side": [list(e) for e in plan.added_e1],
            "added_interior": [list(e) for e in plan.added_e2],
        }
        meta["embeds_in_extremal"] = containment.embedded

    text_lines = [meta["graph6"]] + [
        f"{key} = {_fmt(value) if isinstance(value, float) else value}"
        for key, value in sorted(meta.items()) if key != "graph6"
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
    results = verify_stream(_read_lines(args.stream), eps=args.eps, jobs=args.jobs)
    counts = results["counts"]
    shown = [row for row in results["items"]
             if "error" in row or row["classification"] == "counterexample"]
    text_lines = _row_lines(shown, lambda row: "counterexample")
    text_lines.append(
        "verify: total={total} errors={errors} ".format(**results)
        + " ".join(f"{k}={counts[k]}" for k in counts)
    )
    config = {"input": args.stream, "eps": args.eps, "jobs": args.jobs}
    return Run(config, results, text_lines, verify_exit_code(results))


# suite command -> (its function in harness, accepted grid keys, whether
# --seed is passed, summary word for a failure)
_SUITES = {
    "lemmas": ("lemma_suite", ("max_n", "max_s", "pairs"), True, "FAILURES"),
    "identities": ("identity_suite", ("max_delta",), False, "MISMATCHES"),
}


def _cmd_suite(args: argparse.Namespace) -> Run:
    from . import harness
    name, keys, seeded, failure = _SUITES[args.subcommand]
    suite = getattr(harness, name)
    grid = dict(args.grid or {})
    bad = set(grid) - set(keys)
    if bad:
        raise ValueError(f"unknown grid keys {sorted(bad)} (known: {list(keys)})")
    results = suite(**grid, seed=args.seed) if seeded else suite(**grid)
    config = {"grid": grid, "seed": args.seed} if seeded else {"grid": grid}
    text_lines = [
        f"{name}: {'PASS' if section['passed'] else 'FAIL'}"
        for name, section in results.items() if isinstance(section, dict)
    ]
    text_lines.append(
        f"{args.subcommand}: {'all passed' if results['all_passed'] else failure}")
    return Run(config, results, text_lines, 0 if results["all_passed"] else 1)


def _cmd_agreement(args: argparse.Namespace) -> Run:
    from .harness import agreement_study
    results = agreement_study(
        args.n,
        connected_only=args.connected_only,
        samples=args.samples,
        p=args.p,
        seed=args.seed,
        max_order=args.max_enum_order,
    )
    config = {key: getattr(args, key)
              for key in ("n", "samples", "connected_only", "p", "max_enum_order")}
    config["exhaustive"] = args.samples is None
    config["seed"] = None if args.samples is None else args.seed
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
    p.add_argument("--eps", type=_at_least(float, 0), default=1e-8,
                   help="threshold comparison band, >= 0 (default 1e-8)")
    p.add_argument("--jobs", type=_at_least(int, 1), default=1,
                   help="worker processes, >= 1 (default 1)")
    # Benchmark holdovers: perfbench/workloads.py still passes these flags,
    # and perfbench/ changes only in a benchmark change. Accepted, ignored.
    for flag in ("--max-cert-order", "--max-cert-edges"):
        p.add_argument(flag, type=int, help=argparse.SUPPRESS)
    p.add_argument("--allow-undecided", action="store_true", help=argparse.SUPPRESS)

    for name, help in (("lemmas", "run the supporting-lemma suite"),
                       ("identities", "run the exact identity suite")):
        _, keys, seeded, _ = _SUITES[name]
        p = add(name, _cmd_suite, help)
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="seed for the random pairs")
        p.add_argument("--grid", type=_parse_grid, default=None,
                       help="key=value,... among " + ",".join(keys))

    p = add("agreement", _cmd_agreement, "criterion-vs-even-factor cross-tabulation")
    p.add_argument("--n", type=int, required=True, help="graph order (even)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="every labeled graph of order n (the default; guarded)")
    mode.add_argument("--samples", type=int, default=None,
                      help="number of seeded random graphs (>= 1) instead of exhaustion")
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--p", type=float, default=0.5, help="edge probability for samples")
    p.add_argument("--seed", type=int, default=0, help="seed for samples")
    p.add_argument("--max-enum-order", type=int, default=DEFAULT_ENUM_ORDER, metavar="N",
                   help="exhaustive-enumeration order guard (default %(default)s)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand, then write its report and stdout projection."""
    args = build_parser().parse_args(argv)
    from .graphs import GuardExceeded
    from .reportio import make_report
    start = time.perf_counter()
    try:
        run = args.func(args)
        config = {**run.config, "subcommand": args.subcommand, "format": args.format}
        # A command that consumed randomness records its seed in the config.
        report = make_report(args.subcommand, config, run.results, seed=config.get("seed"),
                             wall_time_s=time.perf_counter() - start)
        _write_outputs(args, report, run)
        return run.exit_code
    except BrokenPipeError:
        return 0
    except (OSError, UnicodeDecodeError) as exc:
        # missing or unreadable input (a directory, a non-ASCII byte)
        print(f"qfactor: {exc}", file=sys.stderr)
        return 2
    except (ValueError, GuardExceeded) as exc:
        # the command's own validation (2) or agreement's enumeration guard (3)
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GuardExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())
