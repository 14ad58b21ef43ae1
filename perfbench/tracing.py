"""Per-layer tracing for the benchmark's traced run.

The wrappers sit around public functions of the package's layers (the
modules rewrite, hopf, linalg, analysis and fields) and are installed from
the benchmark's own files; the package itself is not changed.

Two kinds of wrapper share one call stack:

* a span (coarse call such as ``verify_axioms``) records name, start, end,
  parent span and self time, held in memory and written out at the end;
* a leaf (hot function such as ``normal_form_word``, called millions of
  times per pass) is aggregated per (function, caller) into calls, total
  time and self time.

Self time is a call's duration minus the time covered by its wrapped
children.  A target that no longer exists, or whose result no longer has
the shape a counter reads, is recorded as missing; the metrics derived
from it are then absent instead of failing the run.
"""

import functools
import sys
import time

SPAN, LEAF = "span", "leaf"

# (public path under the package, layer, kind)
TARGETS = (
    ("RuleSet.normal_form_word", "rewrite", LEAF),
    ("RuleSet.irreducible_words", "rewrite", LEAF),
    ("check_confluence", "rewrite", SPAN),
    ("FreeHopfAlgebra.delta_word", "hopf", LEAF),
    ("FreeHopfAlgebra.antipode_int", "hopf", LEAF),
    ("FreeHopfAlgebra.verify_axioms", "hopf", SPAN),
    ("Echelon.feed", "linalg", LEAF),
    ("Echelon.insert", "linalg", LEAF),
    ("Echelon.reduce", "linalg", LEAF),
    ("Echelon.contains", "linalg", LEAF),
    ("kernel", "linalg", SPAN),
    ("find_primitives", "analysis", SPAN),
    ("is_subcoalgebra", "analysis", SPAN),
    ("scan_matrix_subcoalgebras", "analysis", SPAN),
    ("Field.scalar", "fields", LEAF),
)
LAYERS = ("rewrite", "hopf", "linalg", "analysis", "fields")


# -- repeat keys: which request a call makes, to measure what a cache could save


def _nf_key(args, kwargs):
    return id(args[0]), args[1]


def _delta_key(args, kwargs):
    h = args[0]
    return h.n, h.domain, args[1]


def _antipode_key(args, kwargs):
    h = args[0]
    power = args[2] if len(args) > 2 else kwargs.get("power", 1)
    return h.n, h.domain, frozenset(args[1].items()), power


REPEAT_KEYS = {
    "RuleSet.normal_form_word": _nf_key,
    "FreeHopfAlgebra.delta_word": _delta_key,
    "FreeHopfAlgebra.antipode_int": _antipode_key,
}


# -- counters read from arguments and results: (before-call, after-call)


def _add(counters, name, value):
    counters[name] = counters.get(name, 0) + value


def _feed_after(counters, args, result, dur, dim_before):
    _add(counters, "feed.rank_grew", int(args[0].dim > dim_before))


def _axioms_after(counters, args, result, dur, _):
    _add(counters, "axioms.words_checked", result["words_checked"])


def _confluence_after(counters, args, result, dur, _):
    _add(counters, "confluence.ambiguities", result.total)


def _scan_after(counters, args, result, dur, _):
    if result.mode == "exhaustive":
        _add(counters, "scan.subspaces", result.subspace_count)
        _add(counters, "scan.exhaustive_s", dur)


HOOKS = {
    "Echelon.feed": (lambda args: args[0].dim, _feed_after),
    "FreeHopfAlgebra.verify_axioms": (None, _axioms_after),
    "check_confluence": (None, _confluence_after),
    "scan_matrix_subcoalgebras": (None, _scan_after),
}


class Tracer:
    """Call stack, span records and per-(function, caller) aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.root = ["<root>", 0.0, None]  # [name, child time, span index]
        self._stack = [self.root]
        self.stats = {}     # path -> {caller: [calls, total_s, self_s]}
        self.repeats = {}   # path -> calls on a key already requested
        self.counters = {}
        self.spans = []     # [name, start, end, parent span index, self_s]
        self.missing = set()

    def wrap(self, path, fn, kind):
        """Return fn wrapped so that each call is timed on the stack."""
        stack, clock, spans, missing = self._stack, self.clock, self.spans, self.missing
        by_caller = self.stats.setdefault(path, {})
        self.repeats.setdefault(path, 0)
        keyfn = REPEAT_KEYS.get(path)
        seen = set()
        before_fn, after_fn = HOOKS.get(path, (None, None))
        is_span = kind == SPAN
        repeats = self.repeats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = None
            try:
                if keyfn is not None:
                    key = keyfn(args, kwargs)
                    if key in seen:
                        repeats[path] += 1
                    else:
                        seen.add(key)
                if before_fn is not None:
                    before = before_fn(args)
            except Exception:  # the target changed shape: drop its metrics
                missing.add(path)
            parent = stack[-1]
            if is_span:
                index = len(spans)
                spans.append([path, None, None, parent[2], None])
                frame = [path, 0.0, index]
            else:
                frame = [path, 0.0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                own = dur - frame[1]
                rec = by_caller.get(parent[0])
                if rec is None:
                    rec = by_caller[parent[0]] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += own
                if is_span:
                    spans[index][1:3] = start, end
                    spans[index][4] = own
            if after_fn is not None:
                try:
                    after_fn(self.counters, args, result, dur, before)
                except Exception:  # the result changed shape: drop its metrics
                    missing.add(path)
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------

    def calls(self, path):
        return sum(r[0] for r in self.stats.get(path, {}).values())

    def self_s(self, path):
        return sum(r[2] for r in self.stats.get(path, {}).values())

    def dump(self):
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "self_s": own}
                for n, s, e, p, own in self.spans
            ],
            "aggregates": [
                {"function": path, "caller": caller, "calls": r[0],
                 "total_s": r[1], "self_s": r[2]}
                for path, by_caller in self.stats.items()
                for caller, r in by_caller.items()
            ],
            "counters": self.counters,
            "missing": sorted(self.missing),
        }


# -- installation -------------------------------------------------------------


def package_modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


def install(tracer, package, modules):
    """Wrap every target that exists; record the others as missing.

    A method is replaced on its public class.  A function is replaced in
    every given module that holds it under any name, so that calls from
    inside the package are traced too.
    """
    for path, _, kind in TARGETS:
        owner, _, attr = path.rpartition(".")
        if owner:
            cls = getattr(package, owner, None)
            raw = None
            for klass in getattr(cls, "__mro__", ()):
                if attr in vars(klass):
                    raw = vars(klass)[attr]
                    break
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(tracer.wrap(path, raw.__func__, kind)))
            elif callable(raw):
                setattr(cls, attr, tracer.wrap(path, raw, kind))
            else:
                tracer.missing.add(path)
            continue
        fn = getattr(package, attr, None)
        if not callable(fn):
            tracer.missing.add(path)
            continue
        wrapped = tracer.wrap(path, fn, kind)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapped)


# -- per-layer metrics ----------------------------------------------------------


def _share(part, whole):
    return part / whole if whole else 0.0


def _metric_table(t):
    """(metric name, unit, better, target paths, value function)."""
    calls, self_s, c = t.calls, t.self_s, t.counters
    nf, delta, anti = ("RuleSet.normal_form_word", "FreeHopfAlgebra.delta_word",
                       "FreeHopfAlgebra.antipode_int")
    reduce_paths = ("Echelon.reduce", "Echelon.contains")
    scan = "scan_matrix_subcoalgebras"
    rows = [
        ("rewrite.nf.calls", "count", "lower", (nf,), lambda: calls(nf)),
        ("rewrite.nf.self_s", "s", "lower", (nf,), lambda: self_s(nf)),
        ("rewrite.nf.repeat_share", "ratio", "lower", (nf,),
         lambda: _share(t.repeats[nf], calls(nf))),
        ("rewrite.confluence.self_s", "s", "lower", ("check_confluence",),
         lambda: self_s("check_confluence")),
        ("rewrite.confluence.ambiguities", "count", "lower", ("check_confluence",),
         lambda: c.get("confluence.ambiguities", 0)),
        ("rewrite.basis.self_s", "s", "lower", ("RuleSet.irreducible_words",),
         lambda: self_s("RuleSet.irreducible_words")),
        ("hopf.delta.calls", "count", "lower", (delta,), lambda: calls(delta)),
        ("hopf.delta.self_s", "s", "lower", (delta,), lambda: self_s(delta)),
        ("hopf.delta.repeat_share", "ratio", "lower", (delta,),
         lambda: _share(t.repeats[delta], calls(delta))),
        ("hopf.antipode.calls", "count", "lower", (anti,), lambda: calls(anti)),
        ("hopf.antipode.self_s", "s", "lower", (anti,), lambda: self_s(anti)),
        ("hopf.antipode.repeat_share", "ratio", "lower", (anti,),
         lambda: _share(t.repeats[anti], calls(anti))),
        ("hopf.axioms.self_s", "s", "lower", ("FreeHopfAlgebra.verify_axioms",),
         lambda: self_s("FreeHopfAlgebra.verify_axioms")),
        ("hopf.axioms.words_checked", "count", "lower", ("FreeHopfAlgebra.verify_axioms",),
         lambda: c.get("axioms.words_checked", 0)),
        ("linalg.feed.calls", "count", "lower", ("Echelon.feed",),
         lambda: calls("Echelon.feed")),
        ("linalg.feed.self_s", "s", "lower", ("Echelon.feed",),
         lambda: self_s("Echelon.feed")),
        ("linalg.feed.rank_grew_share", "ratio", "higher", ("Echelon.feed",),
         lambda: _share(c.get("feed.rank_grew", 0), calls("Echelon.feed"))),
        ("linalg.reduce.calls", "count", "lower", reduce_paths,
         lambda: sum(calls(p) for p in reduce_paths)),
        ("linalg.reduce.self_s", "s", "lower", reduce_paths,
         lambda: sum(self_s(p) for p in reduce_paths)),
        ("analysis.primitives.self_s", "s", "lower", ("find_primitives",),
         lambda: self_s("find_primitives")),
        ("analysis.subcoalgebra.calls", "count", "lower", ("is_subcoalgebra",),
         lambda: calls("is_subcoalgebra")),
        ("analysis.subcoalgebra.self_s", "s", "lower", ("is_subcoalgebra",),
         lambda: self_s("is_subcoalgebra")),
        ("analysis.scan.self_s", "s", "lower", (scan,), lambda: self_s(scan)),
        ("analysis.scan.subspaces_per_s", "1/s", "higher", (scan,),
         lambda: _share(c.get("scan.subspaces", 0), c.get("scan.exhaustive_s", 0.0))),
        ("fields.scalar.calls", "count", "lower", ("Field.scalar",),
         lambda: calls("Field.scalar")),
        ("fields.scalar.self_s", "s", "lower", ("Field.scalar",),
         lambda: self_s("Field.scalar")),
    ]
    for layer in LAYERS:
        paths = tuple(p for p, l, _ in TARGETS if l == layer)
        rows.append(("%s.self_s" % layer, "s", "lower", paths,
                     lambda paths=paths: sum(self_s(p) for p in paths)))
    return rows


# Measured by the runner from an untraced and a traced pass, not by the tracer.
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    return [row[:3] for row in _metric_table(Tracer())] + [OVERHEAD]


def layer_metrics(tracer):
    """{name: (value, unit)} for every metric whose targets were all traced."""
    out = {}
    for name, unit, _, paths, value in _metric_table(tracer):
        if not any(p in tracer.missing for p in paths):
            out[name] = (value(), unit)
    return out
