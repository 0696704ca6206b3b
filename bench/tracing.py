"""Traced mode: spans and counts at the program's layer boundaries.

`Tracer.install(vc)` wraps each module's public entry points listed in
SPANS and COUNTS and rebinds the name in every program module that
holds it (and on the class, for methods), so calls between modules go
through the wrappers too.  Nothing in the program changes on disk.

A span records (function, start, end, parent span, query id) and stays in
memory until `dump`.  A function's self time is its spans' duration minus
the time their child spans cover.  Count wrappers only count calls
(nested calls of recursive helpers included): timing those hot helpers
would cost more than the work they do.
"""

from __future__ import annotations

import gzip
import json
import time

# (module, attribute, metric prefix) of every timed entry point.
SPANS = [
    ("parser", "parse_source", "parser.parse_source"),
    ("netstate", "flatten", "netstate.flatten"),
    ("netstate", "make_state", "netstate.make_state"),
    ("netstate", "satisfiable_barbs", "netstate.satisfiable_barbs"),
    ("graphs", "canonical_key", "graphs.canonical_key"),
    ("reduction", "fire_comm", "reduction.fire_comm"),
    ("reduction", "fire_prefix", "reduction.fire_prefix"),
    ("reduction", "comm_redexes", "reduction.comm_redexes"),
    ("reduction", "internal_steps", "reduction.internal_steps"),
    ("reduction", "reachable", "reduction.reachable"),
    ("reduction", "reduces_to_idle", "reduction.reduces_to_idle"),
    ("llts", "multi_transitions", "llts.multi_transitions"),
    ("llts", "tau_closure", "llts.tau_closure"),
    ("llts", "weak_transitions", "llts.weak_transitions"),
    ("llts", "diamond_check", "llts.diamond_check"),
    ("llts", "decompose_check", "llts.decompose_check"),
    ("equivalence", "weak_bisim", "equivalence.weak_bisim"),
    ("equivalence", "weak_barbed_bisim", "equivalence.weak_barbed_bisim"),
    ("equivalence", "stabilized_stratified_verdict", "equivalence.stabilized"),
    ("equivalence", "joint_triple_key", "equivalence.joint_triple_key"),
    ("equivalence", "BisimGame.explore", "equivalence.explore"),
    ("equivalence", "BisimGame.greatest_fixpoint", "equivalence.greatest_fixpoint"),
    ("equivalence", "BisimGame.stratified", "equivalence.stratified"),
]

# (module, attribute, metric prefix) of every counted helper.
COUNTS = [
    ("syntax", "sort_of", "syntax.sort_of"),
    ("syntax", "term_fingerprint", "syntax.term_fingerprint"),
    ("values", "eval_expr", "values.eval_expr"),
    ("netstate", "cs_head", "netstate.cs_head"),
    ("llts", "state_key_with_residual", "llts.state_key_with_residual"),
    ("equivalence", "BisimGame.intern", "equivalence.intern"),
]

# Modules whose query-phase spans are summed into `<module>.self_s`
# (the parser runs in set-up only).
LAYERS = ("netstate", "graphs", "reduction", "llts", "equivalence")


def _add(extra, name, amount):
    extra[name] = extra.get(name, 0) + amount


def _canonical_key(extra, args, _out):
    _add(extra, "graphs.canonical_key.vertices", len(args[0].vertices))


def _multi_transitions(extra, _args, out):
    _add(extra, "llts.multi_transitions.steps", len(out))


def _weak_transitions(extra, _args, out):
    _add(extra, "llts.weak_transitions.results", len(out[0]))


def _reachable(extra, _args, out):
    _add(extra, "reduction.reachable.states", len(out.states))
    _add(extra, "reduction.reachable.successor_keys",
         sum(len(v) for v in out.successors.values()))


MEASURES = {
    "graphs.canonical_key": _canonical_key,
    "llts.multi_transitions": _multi_transitions,
    "llts.weak_transitions": _weak_transitions,
    "reduction.reachable": _reachable,
}


class Tracer:
    def __init__(self):
        self.names = []          # function id -> metric prefix
        self.spans = []          # (function id, start, end, parent, query id)
        self.stack = []
        self.counts = {}         # metric prefix -> calls (count wrappers)
        self.extra = {}          # derived counts (vertices, steps, ...)
        self.qid = -1            # current query; -1 during set-up

    def _span(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        measure = MEASURES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, tracer.qid)
            if measure is not None:
                measure(tracer.extra, args, out)
            return out
        return wrapper

    def _count(self, fn, name):
        counts = self.counts
        counts[name] = 0
        if name == "equivalence.intern":
            extra = self.extra

            def intern(game, *args, **kwargs):
                before = len(game.triples)
                out = fn(game, *args, **kwargs)
                counts[name] += 1
                _add(extra, "equivalence.triples", len(game.triples) - before)
                return out
            return intern

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, vc):
        """Wrap every listed entry point of the freshly imported modules."""
        modules = list(vars(vc).values())
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for mod_name, attr, name in table:
                mod = getattr(vc, mod_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, make(getattr(cls, meth), name))
                    continue
                orig = getattr(mod, attr)
                wrapped = make(orig, name)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)

    # -- results -------------------------------------------------------------

    def self_times(self, query_phase):
        """Per prefix: (spans, self seconds) over the spans of the query
        phase (query_phase=True) or of set-up."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for fid, start, end, parent, _q in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for idx, (fid, start, end, _p, qid) in enumerate(spans):
            if (qid >= 0) != query_phase:
                continue
            name = self.names[fid]
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - covered[idx])
        return out

    def dump(self, path):
        """Write every span, gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["function", "start", "end", "parent", "query"],
                       "spans": self.spans}, fh)
