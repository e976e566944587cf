"""Command-line surface: batch subcommands, report files, exit-code contract.

Subcommands::

    spectrum    per-graph q, rho and eigenpair residual
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
2 = usage or malformed input; 3 = ``agreement``'s enumeration guard
(``--max-enum-order``) blocked an exhaustive census.  Input-integrity
problems (2) take precedence over findings (1).  Every other computation
is polynomial and has no guard.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Any, Sequence

from . import __version__
from .extremal import (
    build_g1,
    build_g2,
    build_g3,
    build_g4,
    build_gstar,
    g1_cells,
    g3_cells,
    g4_containment,
    phi_b2,
    phi_bstar,
    surgery_plan,
    threshold_q,
)
from .factors import factor_verdict
from .graphs import GuardExceeded, graph6_payload, min_degree, parse_graph6, write_graph6
from .harness import (
    DEFAULT_ENUM_ORDER,
    agreement_study,
    identity_suite,
    lemma_suite,
    verify_stream,
)
from .reportio import dumps_canonical, format_float, make_report
from .spectra import (
    char_poly,
    largest_real_root,
    perron_q,
    perron_rho,
    quotient_matrix,
    signless_laplacian,
)


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_grid(text: str) -> dict[str, int]:
    """``key=value,key=value`` with integer values."""
    out: dict[str, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"grid entry {chunk!r} is not key=value")
        try:
            out[key.strip()] = int(value)
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


def _add_output_flags(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
    p.add_argument("--format", choices=list(formats), default=formats[0],
                   help="stdout projection (default %(default)s)")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the full JSON report envelope to PATH")


def _read_lines(source: str) -> list[str]:
    if source == "-":
        return sys.stdin.read().splitlines()
    with open(source, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def _write_outputs(
    args: argparse.Namespace,
    report: dict[str, Any],
    text_lines: list[str],
    csv_rows: tuple[list[str], list[list[str]]] | None = None,
) -> None:
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(dumps_canonical(report))
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        if args.report:
            for line in text_lines[-1:]:
                print(line)
        else:
            sys.stdout.write(dumps_canonical(report))
    elif fmt == "csv" and csv_rows is not None:
        header, rows = csv_rows
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in text_lines:
            print(line)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return ""
    return str(value)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    lines = _read_lines(args.input)
    rows: list[dict[str, Any]] = []
    errors = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
            rq = perron_q(g)
            rr = perron_rho(g)
            rows.append(
                {
                    "line": lineno,
                    "graph6": graph6_payload(text),
                    "n": g.n,
                    "m": g.edge_count,
                    "delta": min_degree(g),
                    "q": rq.value,
                    "rho": rr.value,
                    "residual": max(rq.residual, rr.residual),
                }
            )
        except (ValueError, ArithmeticError) as exc:
            # Graph6Error, an order-0 graph, or the perron residual gate
            errors += 1
            rows.append({"line": lineno, "graph6": text, "error": str(exc)})

    results = {"items": rows, "errors": errors, "total": len(rows)}
    config = {
        "subcommand": "spectrum",
        "input": args.input,
        "strict": args.strict,
        "format": args.format,
    }
    report = make_report("spectrum", config, results,
                         wall_time_s=time.perf_counter() - start)

    text_lines = []
    for row in rows:
        if "error" in row:
            text_lines.append(f"{row['graph6']}  error: {row['error']}")
        else:
            text_lines.append(
                f"{row['graph6']}  n={row['n']} m={row['m']} delta={row['delta']} "
                f"q={_fmt(row['q'])} rho={_fmt(row['rho'])} "
                f"residual={_fmt(row['residual'])}"
            )
    text_lines.append(f"spectrum: {len(rows)} graphs, {errors} errors")
    csv_rows = None
    if args.format == "csv":
        header = ["line", "graph6", "n", "m", "delta", "q", "rho", "residual", "error"]
        csv_rows = (header, [
            [_fmt(row["line"]), row["graph6"], "", "", "", "", "", "", row["error"]]
            if "error" in row else [_fmt(row[k]) for k in header[:-1]] + [""]
            for row in rows
        ])
    _write_outputs(args, report, text_lines, csv_rows)
    return 2 if args.strict and errors else 0


def _extremal_graph(args: argparse.Namespace):
    family = args.family
    if family == "gstar":
        if args.n is None or args.delta is None:
            raise ValueError("gstar requires --n and --delta")
        return build_gstar(args.n, args.delta)
    if family == "g1":
        if args.s is None or args.parts is None:
            raise ValueError("g1 requires --s and --parts")
        return build_g1(args.s, args.parts)
    if family == "g2":
        if args.n is None or args.s is None:
            raise ValueError("g2 requires --n and --s")
        return build_g2(args.n, args.s)
    if args.n is None or args.delta is None or args.s is None:
        raise ValueError(f"{family} requires --n, --delta and --s")
    if family == "g3":
        return build_g3(args.n, args.delta, args.s)
    return build_g4(args.n, args.delta, args.s)


def _cmd_extremal(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    try:
        g = _extremal_graph(args)
    except ValueError as exc:
        print(f"extremal: {exc}", file=sys.stderr)
        return 2

    meta: dict[str, Any] = {
        "family": args.family,
        "graph6": write_graph6(g),
        "order": g.n,
        "edges": g.edge_count,
        "q": perron_q(g).value,
    }
    if args.n is not None:
        meta["n"] = args.n
    if args.delta is not None:
        meta["delta"] = args.delta
    if args.s is not None:
        meta["s"] = args.s
    if args.family == "gstar":
        poly = phi_bstar(args.n, args.delta)
        meta["coefficients"] = list(poly.coeffs)
        meta["threshold"] = threshold_q(args.n, args.delta)
    elif args.family == "g2":
        poly = phi_b2(args.n, args.s)
        meta["coefficients"] = list(poly.coeffs)
        meta["root"] = largest_real_root(poly, 0.0, 2.0 * args.n)
    elif args.family == "g1":
        meta["parts"] = list(args.parts)
        poly = char_poly(quotient_matrix(signless_laplacian(g), g1_cells(args.s, args.parts)))
        meta["coefficients"] = list(poly.coeffs)
    elif args.family == "g3":
        poly = char_poly(
            quotient_matrix(signless_laplacian(g), g3_cells(args.n, args.delta, args.s))
        )
        meta["coefficients"] = list(poly.coeffs)
        meta["m"] = g.n - args.s - (args.delta + 1 - args.s) * (args.s - 1)
    else:  # g4
        plan = surgery_plan(args.n, args.delta, args.s)
        containment = g4_containment(args.n, args.delta, args.s)
        meta["threshold"] = threshold_q(args.n, args.delta)
        meta["surgery"] = {
            "removed": [list(e) for e in plan.removed],
            "added_join_side": [list(e) for e in plan.added_e1],
            "added_interior": [list(e) for e in plan.added_e2],
        }
        meta["embeds_in_extremal"] = containment.embedded

    config = {
        "subcommand": "extremal",
        "family": args.family,
        "n": args.n,
        "delta": args.delta,
        "s": args.s,
        "parts": list(args.parts) if args.parts else None,
        "format": args.format,
    }
    report = make_report("extremal", config, meta,
                         wall_time_s=time.perf_counter() - start)
    text_lines = [meta["graph6"]]
    for key in sorted(meta):
        if key == "graph6":
            continue
        value = meta[key]
        if isinstance(value, float):
            value = _fmt(value)
        text_lines.append(f"{key} = {value}")
    _write_outputs(args, report, text_lines)
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    lines = _read_lines(args.input)
    rows: list[dict[str, Any]] = []
    errors = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            verdict = factor_verdict(parse_graph6(text))
        except (ValueError, ArithmeticError) as exc:
            # Graph6Error, an odd order or a rejected certificate: this
            # line fails, the run goes on.
            errors += 1
            rows.append({"line": lineno, "graph6": text, "error": str(exc)})
            continue
        rows.append(
            {
                "line": lineno,
                "graph6": graph6_payload(text),
                "criterion_holds": verdict.criterion_holds,
                "blocking": list(verdict.blocking) if verdict.blocking else None,
                "certificate": [list(e) for e in verdict.certificate]
                if verdict.certificate
                else None,
                "agreement": verdict.agreement,
            }
        )

    results = {"items": rows, "errors": errors, "total": len(rows)}
    config = {"subcommand": "factor", "input": args.input, "format": args.format}
    report = make_report("factor", config, results,
                         wall_time_s=time.perf_counter() - start)

    text_lines = []
    csv_header = ["line", "graph6", "criterion_holds", "blocking", "certificate", "agreement", "note"]
    csv_body = []
    for row in rows:
        if "error" in row:
            text_lines.append(f"{row['graph6']}  error: {row['error']}")
            csv_body.append([_fmt(row["line"]), row["graph6"], "", "", "", "", row["error"]])
        else:
            blocking = " ".join(map(str, row["blocking"])) if row["blocking"] else ""
            cert = " ".join(f"{u}-{v}" for u, v in row["certificate"]) if row["certificate"] else ""
            text_lines.append(
                f"{row['graph6']}  criterion={'yes' if row['criterion_holds'] else 'no'} "
                f"blocking=[{blocking}] certificate_edges="
                f"{len(row['certificate']) if row['certificate'] else 0} "
                f"agreement={row['agreement']}"
            )
            csv_body.append(
                [
                    _fmt(row["line"]), row["graph6"], str(row["criterion_holds"]).lower(),
                    blocking, cert, row["agreement"], "",
                ]
            )
    text_lines.append(f"factor: {len(rows)} graphs, {errors} errors")
    _write_outputs(args, report, text_lines, (csv_header, csv_body))
    return 2 if errors else 0


def verify_exit_code(results: dict[str, Any]) -> int:
    """Exit-code contract for classification runs: malformed input (2)
    outranks a counterexample finding (1)."""
    if results["errors"]:
        return 2
    if results["counts"]["counterexample"]:
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    lines = _read_lines(args.stream)
    results = verify_stream(lines, eps=args.eps, jobs=args.jobs)
    config = {
        "subcommand": "verify",
        "input": args.stream,
        "eps": args.eps,
        "jobs": args.jobs,
        "format": args.format,
    }
    report = make_report("verify", config, results,
                         wall_time_s=time.perf_counter() - start)

    counts = results["counts"]
    summary = (
        "verify: total={total} errors={errors} ".format(**results)
        + " ".join(f"{k}={counts[k]}" for k in counts)
    )
    text_lines = []
    for row in results["items"]:
        if "error" in row:
            text_lines.append(f"{row['graph6']}  error: {row['error']}")
        elif row["classification"] == "counterexample":
            text_lines.append(f"{row['graph6']}  counterexample")
    text_lines.append(summary)

    csv_rows = None
    if args.format == "csv":
        header = ["line", "graph6", "classification", "q", "threshold", "delta",
                  "witness", "note", "error"]
        csv_rows = (header, [
            [
                _fmt(row.get("line")),
                row.get("graph6", ""),
                row.get("classification", ""),
                _fmt(row.get("q")),
                _fmt(row.get("threshold")),
                _fmt(row.get("delta")),
                json.dumps(row["witness"], sort_keys=True) if row.get("witness") else "",
                row.get("note", ""),
                row.get("error", ""),
            ]
            for row in results["items"]
        ])
    _write_outputs(args, report, text_lines, csv_rows)
    return verify_exit_code(results)


_LEMMA_GRID_KEYS = ("max_n", "max_s", "pairs", "det_eval_max_order")
_IDENTITY_GRID_KEYS = ("max_delta",)


def _cmd_lemmas(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    grid = dict(args.grid or {})
    bad = set(grid) - set(_LEMMA_GRID_KEYS)
    if bad:
        print(f"lemmas: unknown grid keys {sorted(bad)} (known: {list(_LEMMA_GRID_KEYS)})",
              file=sys.stderr)
        return 2
    results = lemma_suite(seed=args.seed, **grid)
    config = {
        "subcommand": "lemmas",
        "seed": args.seed,
        "grid": grid,
        "format": args.format,
    }
    report = make_report("lemmas", config, results, seed=args.seed,
                         wall_time_s=time.perf_counter() - start)
    text_lines = []
    for name, section in results.items():
        if isinstance(section, dict):
            text_lines.append(f"{name}: {'PASS' if section['passed'] else 'FAIL'}")
    text_lines.append(f"lemmas: {'all passed' if results['all_passed'] else 'FAILURES'}")
    _write_outputs(args, report, text_lines)
    return 0 if results["all_passed"] else 1


def _cmd_identities(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    grid = dict(args.grid or {})
    bad = set(grid) - set(_IDENTITY_GRID_KEYS)
    if bad:
        print(
            f"identities: unknown grid keys {sorted(bad)} (known: {list(_IDENTITY_GRID_KEYS)})",
            file=sys.stderr,
        )
        return 2
    results = identity_suite(**grid)
    config = {"subcommand": "identities", "grid": grid, "format": args.format}
    report = make_report("identities", config, results,
                         wall_time_s=time.perf_counter() - start)
    text_lines = []
    for name, section in results.items():
        if isinstance(section, dict):
            text_lines.append(f"{name}: {'PASS' if section['passed'] else 'FAIL'}")
    text_lines.append(
        f"identities: {'all passed' if results['all_passed'] else 'MISMATCHES'}"
    )
    _write_outputs(args, report, text_lines)
    return 0 if results["all_passed"] else 1


def _cmd_agreement(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    if args.exhaustive and args.samples is not None:
        print("agreement: --exhaustive and --samples are mutually exclusive", file=sys.stderr)
        return 2
    samples = args.samples if not args.exhaustive else None
    try:
        results = agreement_study(
            args.n,
            connected_only=args.connected_only,
            samples=samples,
            p=args.p,
            seed=args.seed,
            max_order=args.max_enum_order,
        )
    except ValueError as exc:
        print(f"agreement: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"agreement: {exc}", file=sys.stderr)
        return 3

    config = {
        "subcommand": "agreement",
        "n": args.n,
        "exhaustive": samples is None,
        "samples": samples,
        "connected_only": args.connected_only,
        "p": args.p,
        "seed": args.seed if samples is not None else None,
        "max_enum_order": args.max_enum_order,
        "format": args.format,
    }
    report = make_report(
        "agreement", config, results,
        seed=args.seed if samples is not None else None,
        wall_time_s=time.perf_counter() - start,
    )
    counts = results["counts"]
    text_lines = [
        f"agreement n={args.n} ({results['mode']}, "
        f"{'connected' if args.connected_only else 'all'}): total={results['total']}"
    ]
    for key in counts:
        text_lines.append(f"  {key}: {counts[key]}")
    text_lines.append(
        "criterion matches even factors: "
        + ("yes" if results["criterion_matches_factor"] else "no")
    )
    _write_outputs(args, report, text_lines)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfactor",
        description="Spectral even-factor verification toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"qfactor {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", help="per-graph spectral radii")
    p.add_argument("input", nargs="?", default="-", help="graph6 file or - for stdin")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 on malformed input instead of per-line error rows")
    _add_output_flags(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("extremal", help="build an extremal-family graph")
    p.add_argument("--family", required=True, choices=("gstar", "g1", "g2", "g3", "g4"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--parts", type=_parse_parts, default=None,
                   help="comma-separated clique orders (g1 only)")
    _add_output_flags(p, ("text", "json"))
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("factor", help="criterion and certificate per graph")
    p.add_argument("input", nargs="?", default="-", help="graph6 file or - for stdin")
    _add_output_flags(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("verify", help="classify a stream against the theorem")
    p.add_argument("--stream", required=True, metavar="FILE",
                   help="graph6 file or - for stdin")
    p.add_argument("--eps", type=float, default=1e-8,
                   help="threshold comparison band (default 1e-8)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    # Benchmark holdovers: perfbench/workloads.py still passes these flags,
    # and perfbench/ changes only in a benchmark change. Accepted, ignored.
    for flag in ("--max-cert-order", "--max-cert-edges"):
        p.add_argument(flag, type=int, help=argparse.SUPPRESS)
    p.add_argument("--allow-undecided", action="store_true", help=argparse.SUPPRESS)
    _add_output_flags(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lemmas", help="run the supporting-lemma suite")
    p.add_argument("--seed", type=int, default=0, help="seed for the random pairs")
    p.add_argument("--grid", type=_parse_grid, default=None,
                   help="key=value,... among " + ",".join(_LEMMA_GRID_KEYS))
    _add_output_flags(p, ("text", "json"))
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("identities", help="run the exact identity suite")
    p.add_argument("--grid", type=_parse_grid, default=None,
                   help="key=value,... among " + ",".join(_IDENTITY_GRID_KEYS))
    _add_output_flags(p, ("text", "json"))
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("agreement", help="criterion-vs-even-factor cross-tabulation")
    p.add_argument("--n", type=int, required=True, help="graph order (even)")
    p.add_argument("--exhaustive", action="store_true",
                   help="every labeled graph of order n (guarded)")
    p.add_argument("--samples", type=int, default=None,
                   help="number of seeded random graphs instead of exhaustion")
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--p", type=float, default=0.5, help="edge probability for samples")
    p.add_argument("--seed", type=int, default=0, help="seed for samples")
    p.add_argument("--max-enum-order", type=int, default=DEFAULT_ENUM_ORDER, metavar="N",
                   help="exhaustive-enumeration order guard (default %(default)s)")
    _add_output_flags(p, ("text", "json"))
    p.set_defaults(func=_cmd_agreement)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (OSError, UnicodeDecodeError) as exc:
        # missing or unreadable input (a directory, a non-ASCII byte)
        print(f"qfactor: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
