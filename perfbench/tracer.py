"""In-process pass over a workload, with spans around the package's layers.

Run as a fresh process so each pass starts with cold caches, the way a CLI
process does::

    python3 perfbench/tracer.py SPEC.json

``SPEC.json`` holds ``{"src": ..., "mode": "traced" | "plain", "out": ...,
"invocations": [[argv...], ...]}``.  Each argv is passed to
``qfactor.cli.main`` in this process.  In ``plain`` mode only the entry
points get spans (``cli.main``, the four runners the CLI calls and the report
serializer), which costs nothing measurable; ``traced`` mode wraps every public function listed
in ``LAYERS`` in every ``qfactor`` module that imports it, so calls made
through the importing module's name are seen.  Spans stay in memory and are
written to ``out`` as JSON when the pass ends.

:func:`layer_metrics` turns the spans of one traced pass into the per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, public function) pairs wrapped in traced mode.  A name a later
# version of the package no longer has is skipped; its metrics read 0.
LAYERS = (
    ("graphs", "parse_graph6"),
    ("graphs", "write_graph6"),
    ("graphs", "enumerate_labeled"),
    ("spectra", "signless_laplacian"),
    ("spectra", "perron"),
    ("spectra", "char_poly"),
    ("spectra", "largest_real_root"),
    ("extremal", "threshold_q"),
    ("factors", "strong_tutte_check"),
    ("factors", "find_even_factor"),
    ("factors", "verify_even_factor"),
    ("factors", "factor_verdict"),
    ("harness", "check_theorem_instance"),
    ("harness", "recognize_gstar"),
)
ENTRY_POINTS = (
    ("harness", "verify_stream"),
    ("harness", "agreement_study"),
    ("harness", "lemma_suite"),
    ("harness", "identity_suite"),
    ("reportio", "dumps_canonical"),
)
MODULES = ("graphs", "spectra", "extremal", "factors", "harness", "reportio", "cli")
RUNGS = (
    "not_applicable",
    "below_threshold",
    "extremal_match",
    "certificate",
    "criterion",
    "undecided",
    "counterexample",
)


class Tracer:
    """Span recorder: (id, parent id, name, start ns, end ns, tag)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = [0]
        self.next_id = 1

    def _open(self) -> tuple[int, int]:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent

    def wrap(self, fn, name: str):
        tag_of = _TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            tag = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tag = "guard" if type(exc).__name__ == "GuardExceeded" else "error"
                raise
            else:
                if tag_of is not None:
                    tag = tag_of(result, args)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, name, start, end, tag))

        return wrapper

    def wrap_generator(self, fn, name: str):
        """Each ``next`` of the generator is one span, so the consumer's
        work between items is not charged to the generator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid, parent = tracer._open()
                start = time.perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter_ns()
                    tracer.stack.pop()
                    tracer.spans.append((sid, parent, name, start, end, None))
                yield item

        return wrapper


def _rung(outcome, args) -> str:
    cls = outcome.classification
    if cls == "confirmed_factor":
        kind = (outcome.witness or {}).get("kind")
        return "certificate" if kind == "even_factor" else "criterion"
    return cls


_TAGS = {
    "harness.check_theorem_instance": _rung,
    "spectra.perron": lambda r, a: getattr(r, "iterations", None),
    "extremal.threshold_q": lambda r, a: f"{a[0]},{a[1]}",
    "factors.strong_tutte_check": lambda r, a: "holds" if r[0] else "fails",
    "factors.find_even_factor": lambda r, a: "none" if r is None else "found",
    "reportio.dumps_canonical": lambda r, a: len(r),
}


def _modules() -> dict:
    found = {}
    for name in MODULES:
        try:
            found[name] = importlib.import_module(f"qfactor.{name}")
        except ModuleNotFoundError:
            pass
    return found


def install(tracer: Tracer, pairs) -> None:
    """Wrap each (module, function) in every qfactor module that holds it."""
    modules = _modules()
    for module_name, attr in pairs:
        original = getattr(modules.get(module_name), attr, None)
        if original is None:
            continue
        name = f"{module_name}.{attr}"
        if attr == "enumerate_labeled":
            wrapped = tracer.wrap_generator(original, name)
        else:
            wrapped = tracer.wrap(original, name)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def run_pass(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import qfactor.cli
    import qfactor.graphs

    tracer = Tracer()
    install(tracer, ENTRY_POINTS)
    if spec["mode"] == "traced":
        install(tracer, LAYERS)
        # The public constructor validates its rows in __post_init__; every
        # Graph built anywhere passes through it.
        Graph = qfactor.graphs.Graph
        Graph.__post_init__ = tracer.wrap(Graph.__post_init__, "graphs.Graph")
    main = tracer.wrap(qfactor.cli.main, "cli.main")
    for argv in spec["invocations"]:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    return {"spans": tracer.spans}


# ---------------------------------------------------------------------------
# metrics of one pass


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def total_s(spans, name: str) -> float:
    return sum(s[4] - s[3] for s in spans if s[2] == name) / 1e9


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        by_name[span[2]].append(span)
        child_ns[span[1]] += span[4] - span[3]

    def durations(name, tag=Ellipsis):
        return [s[4] - s[3] for s in by_name[name] if tag is Ellipsis or s[5] == tag]

    def tags(name, tag):
        return sum(1 for s in by_name[name] if s[5] == tag)

    def us(values):
        return _pct(values, 0.5) / 1e3

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for layer in ("graphs.parse_graph6", "spectra.signless_laplacian",
                  "spectra.perron", "factors.factor_verdict"):
        put(f"{layer}.calls", len(by_name[layer]), "count")
    for layer in ("graphs.parse_graph6", "graphs.write_graph6", "graphs.Graph",
                  "spectra.signless_laplacian", "spectra.perron", "spectra.char_poly",
                  "factors.verify_even_factor", "factors.factor_verdict",
                  "harness.recognize_gstar"):
        put(f"{layer}.us_p50", us(durations(layer)), "us")
    for layer in ("graphs.parse_graph6", "graphs.write_graph6", "graphs.enumerate_labeled",
                  "spectra.signless_laplacian", "spectra.perron",
                  "factors.strong_tutte_check", "factors.find_even_factor",
                  "factors.factor_verdict", "harness.check_theorem_instance",
                  "harness.agreement_study", "harness.lemma_suite", "harness.identity_suite"):
        put(f"{layer}.s", total_s(spans, layer), "s")
    put("spectra.perron.us_p99", _pct(durations("spectra.perron"), 0.99) / 1e3, "us")
    iterations = [s[5] for s in by_name["spectra.perron"] if isinstance(s[5], int)]
    put("spectra.perron.iterations_p50", _pct(iterations, 0.5), "count")
    put("spectra.largest_real_root.ms_p50", _pct(durations("spectra.largest_real_root"), 0.5) / 1e6, "ms")

    cold: dict[str, int] = {}
    for s in sorted(by_name["extremal.threshold_q"], key=lambda s: s[3]):
        cold.setdefault(s[5], s[4] - s[3])
    put("extremal.threshold_q.distinct", len(cold), "count")
    put("extremal.threshold_q.cold_ms", sum(cold.values()) / 1e6, "ms")

    stc = "factors.strong_tutte_check"
    put(f"{stc}.calls", len(by_name[stc]), "count")
    put(f"{stc}.holds", tags(stc, "holds"), "count")
    put(f"{stc}.fails", tags(stc, "fails"), "count")
    put(f"{stc}.guard_fired", tags(stc, "guard"), "count")
    put(f"{stc}.ms_p50", _pct(durations(stc), 0.5) / 1e6, "ms")
    put(f"{stc}.ms_p99", _pct(durations(stc), 0.99) / 1e6, "ms")

    fef = "factors.find_even_factor"
    found, none = tags(fef, "found"), tags(fef, "none")
    put(f"{fef}.calls", len(by_name[fef]), "count")
    put(f"{fef}.found", found, "count")
    put(f"{fef}.none", none, "count")
    put(f"{fef}.guard_fired", tags(fef, "guard"), "count")
    put(f"{fef}.us_p50_found", us(durations(fef, "found")), "us")
    put(f"{fef}.us_p50_none", us(durations(fef, "none")), "us")
    put(f"{fef}.yield", found / (found + none) if found + none else 0.0, "ratio")

    cti = "harness.check_theorem_instance"
    put(f"{cti}.calls", len(by_name[cti]), "count")
    put(f"{cti}.ms_p50", _pct(durations(cti), 0.5) / 1e6, "ms")
    put(f"{cti}.ms_p99", _pct(durations(cti), 0.99) / 1e6, "ms")
    for rung in RUNGS:
        put(f"harness.rung.{rung}", tags(cti, rung), "count")
    self_ns = sum(s[4] - s[3] - child_ns[s[0]] for s in by_name[cti])
    put("harness.ladder_self_s", self_ns / 1e9, "s")

    dumps = by_name["reportio.dumps_canonical"]
    put("reportio.dumps_canonical.ms", sum(s[4] - s[3] for s in dumps) / 1e6, "ms")
    put("reportio.dumps_canonical.bytes", sum(s[5] or 0 for s in dumps), "bytes")
    return out


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = run_pass(spec)
    Path(spec["out"]).write_text(json.dumps(result))
