"""The traced bench wraps program entry points by name and reads some of
their results by shape; a renamed or dropped one, or a result of another
shape, would only fail at `bench/run.py --trace 1`."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    listed = tracing.SPANS + tracing.COUNTS
    assert listed
    for mod_name, attr, _metric in listed:
        target = importlib.import_module("vccts." + mod_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
            assert target is not None, "%s.%s is gone" % (mod_name, attr)
        assert callable(target), "%s.%s is not callable" % (mod_name, attr)
    for layer in tracing.LAYERS:
        importlib.import_module("vccts." + layer)


TRACED_RUN = r'''
import importlib, json, types
import tracing
import vccts
from vccts import equivalence, llts, netstate, parser

ran = set()

def recording(name, hook):
    def measure(extra, args, out):
        hook(extra, args, out)
        ran.add(name)
    return measure

for name, hook in list(tracing.MEASURES.items()):
    tracing.MEASURES[name] = recording(name, hook)
tracer = tracing.Tracer()
tracer.install(types.SimpleNamespace(package=vccts, **{
    mod: importlib.import_module("vccts." + mod)
    for mod in ("values", "syntax", "graphs", "netstate", "reduction", "llts",
                "equivalence", "encodings", "parser")}))
env = parser.parse_source("symbol f/1;\ndef O = ~f(1).(0);\n"
                          "process P = ~f(1).(0) | f(x).(0);\nprocess Q = O | f(x).(0);\n")
P = netstate.flatten(env.processes["P"], env)
Q = netstate.flatten(env.processes["Q"], env)
cfg = equivalence.GameConfig(universe=(0, 1))
verdict = equivalence.weak_bisim(P, Q, env, cfg)
spans = {name: calls for name, (calls, _s) in tracer.self_times(query_phase=False).items()}
report = llts.diamond_check(P, env, (0, 1))
checked = {name: calls - spans.get(name, 0)
           for name, (calls, _s) in tracer.self_times(query_phase=False).items()}
print(json.dumps({"measures": sorted(tracing.MEASURES), "ran": sorted(ran),
                  "extra": tracer.extra, "counts": tracer.counts, "spans": spans,
                  "diamond_spans": checked,
                  "verdict": verdict.result, "diamond": report.checked}))
'''


def test_traced_hooks_read_their_results():
    # the hooks read results by shape (`out[0]` of weak_transitions, ...);
    # installing wraps module globals, so it runs in its own interpreter
    root = TRACING.parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(TRACING.parent)]))
    run = subprocess.run([sys.executable, "-c", TRACED_RUN], env=env, capture_output=True,
                         text=True, check=False, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["verdict"] == "bisimilar" and got["diamond"] > 0
    assert got["ran"] == got["measures"]
    assert got["extra"]["llts.weak_transitions.results"] > 0
    # the per-layer rows of the weak game read these spans
    assert got["spans"]["llts.tau_closure"] > 0
    assert got["spans"]["llts.weak_transitions"] > 0
    # the per-layer rows of the lts workload read these spans of the checks
    assert got["diamond_spans"]["llts.multi_transitions"] > 0
    assert got["diamond_spans"]["reduction.fire_prefix"] > 0
    # the checks key a target only when its anchored form disagrees
    assert got["counts"]["llts.state_key_with_residual"] == 0
