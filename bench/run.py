"""The vccts benchmark: closed-loop decision queries, one workload per run.

    python3 bench/run.py --workload reduce --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --steady --runs 10

One run imports the program from `src/` of the checkout it sits in,
builds the workload's inputs from the seed (set-up, repeated and timed),
then asks queries one after another, single-threaded, until `--seconds`
have passed.  Every answer is checked outside the timed region; a query
that raises or answers wrongly counts as failed and the run goes on.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run first asks queries untraced for about 45% of the time, stopping at a
round boundary, then imports the program afresh, wraps its layer
boundaries (see tracing.py) and asks the same queries again; the metrics
are the per-layer counts and self-time shares of that traced pass, its
overhead against the untraced pass, and the share of its wall time the
layers account for.

--steady runs each workload repeatedly, each run in a fresh interpreter
with its own seed, and prints every end-to-end metric's spread (quartile
distance over median) next to the bound in BENCHMARK.json.

Each run writes its environment, settings, metrics and raw per-query
samples to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("reduce", "lts", "weak")
MODULES = ("values", "syntax", "graphs", "netstate", "reduction", "llts",
           "equivalence", "encodings", "parser")
SETUP_REPEATS = 3
TRACED_SHARE = 0.45          # of --seconds spent on the untraced pass
MIN_LAYER_SHARE = 0.90       # traced wall the layer self times must cover


# -- the program -------------------------------------------------------------

def load_program():
    """Import vccts afresh from src/, so no run inherits another's
    location counter, fingerprint cache or wrappers."""
    for name in [n for n in sys.modules if n == "vccts" or n.startswith("vccts.")]:
        del sys.modules[name]
    vc = types.SimpleNamespace(package=importlib.import_module("vccts"))
    for name in MODULES:
        setattr(vc, name, importlib.import_module("vccts." + name))
    return vc


def setup(workload, seed, repeats, tracer=None):
    """Time `repeats` set-ups (import, parse, flatten); keep the last."""
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        vc = load_program()
        if tracer is not None:
            tracer.install(vc)
        rounds = workloads.build(workload, vc, seed)
        times.append(time.perf_counter() - start)
    gc.collect()
    return times, rounds


# -- the closed loop -----------------------------------------------------------

class Tally:
    def __init__(self):
        self.latencies = []       # seconds, in query order
        self.labels = []          # (family, kind) per query
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.failures = []        # first few failure messages
        self.answers = {}         # (group id, query index) -> summary
        self.rounds = 0           # whole rounds completed
        self.wall = 0.0
        self.round_queries = 0    # queries in the whole rounds
        self.round_wall = 0.0     # wall time of the whole rounds

    def fail(self, q, message):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append("%s/%s: %s" % (q.family, q.kind, message))


def run_queries(rounds, seconds=None, n_rounds=None, tracer=None):
    """Ask queries round after round (wrapping around) until `seconds`
    have passed, or for exactly `n_rounds` rounds."""
    tally = Tally()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds if seconds is not None else None
    r = 0
    while n_rounds is None or r < n_rounds:
        for group in rounds[r % len(rounds)]:
            seen = {}
            for qi, q in enumerate(group):
                if deadline is not None and clock() >= deadline:
                    tally.wall = clock() - start
                    return tally
                if tracer is not None:
                    tracer.qid = tally.attempted
                tally.attempted += 1
                t0 = clock()
                try:
                    raw = q.call()
                except Exception as exc:     # noqa: BLE001 - counted, run goes on
                    tally.latencies.append(clock() - t0)
                    tally.labels.append((q.family, q.kind))
                    tally.fail(q, "%s: %s" % (type(exc).__name__, exc))
                    continue
                tally.latencies.append(clock() - t0)
                tally.labels.append((q.family, q.kind))
                if tracer is not None:
                    tracer.qid = -1
                summary, decided, error = q.check(raw, seen)
                del raw
                prior = tally.answers.setdefault((id(group), qi), summary)
                if error is None and prior != summary:
                    error = "answer changed between rounds: %r then %r" % (prior, summary)
                seen[q.kind] = summary
                tally.decided += decided
                if error is not None:
                    tally.fail(q, error)
        r += 1
        tally.rounds = r
        tally.round_queries = tally.attempted
        tally.round_wall = clock() - start
    tally.wall = clock() - start
    return tally


# -- metrics -----------------------------------------------------------------

def end_to_end(setup_times, tally):
    """Throughput and latency count the whole rounds only, so every run
    weighs the families alike whatever query the deadline fell on."""
    if tally.rounds == 0:
        tally.round_queries, tally.round_wall = tally.attempted, tally.wall
    lat = tally.latencies[:tally.round_queries]
    deciles = statistics.quantiles(lat, n=10)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "queries_per_s": (len(lat) / tally.round_wall, "1/s"),
        "query_s.p50": (statistics.median(lat), "s"),
        "query_s.p90": (deciles[8], "s"),
        "decided_share": (tally.decided / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced):
    """Per-layer counts and self times of the traced pass.  Query-phase
    self times are shares of the traced wall (`trace.wall_s`): a layer a
    workload never enters reads 0, and the shares cancel most of the
    machine's speed drift between runs.  Set-up self times are seconds."""
    run = tracer.self_times(query_phase=True)
    setup_spans = tracer.self_times(query_phase=False)
    counts, extra = tracer.counts, tracer.extra
    wall = traced.wall

    def calls(name):
        return run.get(name, (0, 0.0))[0]

    def share(*names):
        return (sum(run.get(n, (0, 0.0))[1] for n in names) / wall, "ratio")

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("graphs.canonical_key", "netstate.make_state",
                 "reduction.fire_prefix", "reduction.fire_comm"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_share"] = share(name)
    m["graphs.canonical_key.vertices"] = (extra.get("graphs.canonical_key.vertices", 0), "count")
    for name in ("syntax.sort_of", "syntax.term_fingerprint", "values.eval_expr",
                 "netstate.cs_head", "llts.state_key_with_residual",
                 "equivalence.intern"):
        m[name + ".calls"] = (counts[name], "count")
    m["llts.multi_transitions.steps"] = (extra.get("llts.multi_transitions.steps", 0), "count")
    m["llts.multi_transitions.self_share"] = share("llts.multi_transitions")
    m["llts.tau_closure.calls"] = (calls("llts.tau_closure"), "count")
    m["llts.tau_closure.self_share"] = share("llts.tau_closure")
    m["llts.weak_transitions.calls"] = (calls("llts.weak_transitions"), "count")
    m["llts.weak_transitions.results"] = (extra.get("llts.weak_transitions.results", 0), "count")
    triples = extra.get("equivalence.triples", 0)
    m["equivalence.triples"] = (triples, "count")
    m["equivalence.intern.new_ratio"] = (ratio(triples, counts["equivalence.intern"]), "ratio")
    m["equivalence.joint_triple_key.self_share"] = share("equivalence.joint_triple_key")
    m["equivalence.fixpoint.self_share"] = share("equivalence.greatest_fixpoint",
                                                 "equivalence.weak_barbed_bisim")
    states = extra.get("reduction.reachable.states", 0)
    m["reduction.reachable.states"] = (states, "count")
    m["reduction.reachable.new_ratio"] = (
        ratio(states, extra.get("reduction.reachable.successor_keys", 0)), "ratio")
    m["netstate.satisfiable_barbs.self_share"] = share("netstate.satisfiable_barbs")
    m["parser.parse_source.self_s"] = (setup_spans["parser.parse_source"][1], "s")
    m["netstate.flatten.self_s"] = (setup_spans["netstate.flatten"][1], "s")
    layer_total = 0.0
    for layer in tracing.LAYERS:
        m[layer + ".self_share"] = share(*[n for n in run if n.startswith(layer + ".")])
        layer_total += m[layer + ".self_share"][0]
    m["trace.queries"] = (traced.attempted, "count")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced.round_wall, "s")
    m["trace.overhead"] = (wall / untraced.round_wall, "ratio")
    m["trace.layer_share"] = (layer_total, "ratio")
    return m


# -- one run -----------------------------------------------------------------

def environment():
    commit = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation":
            platform.python_implementation(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit}


def run_once(args):
    setup_times, rounds = setup(args.workload, args.seed,
                                1 if args.trace else SETUP_REPEATS)
    record = {"environment": environment(), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setup_times}
    if not args.trace:
        tally = run_queries(rounds, seconds=args.seconds)
        metrics = end_to_end(setup_times, tally)
    else:
        untraced = run_queries(rounds, seconds=args.seconds * TRACED_SHARE)
        if untraced.rounds == 0:
            untraced = run_queries(rounds, n_rounds=1)
        n_rounds = untraced.rounds
        del rounds
        tracer = tracing.Tracer()
        _times, rounds = setup(args.workload, args.seed, 1, tracer)
        tally = run_queries(rounds, n_rounds=n_rounds, tracer=tracer)
        metrics = per_layer(tracer, tally, untraced)
        record["untraced_latencies_s"] = untraced.latencies
        tally.attempted += untraced.attempted
        tally.failed += untraced.failed
        tally.failures += untraced.failures
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, "trace-%s.json.gz" % args.workload))
    record.update({"attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.failures, "latencies_s": tally.latencies,
                   "labels": tally.labels,
                   "metrics": {k: v for k, (v, _u) in metrics.items()}})
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for message in tally.failures:
        print("FAILED %s" % message, file=sys.stderr)
    print("environment %s" % json.dumps(record["environment"], sort_keys=True))
    print("failed_share %.6f ratio (%d of %d queries)"
          % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    for name, (value, unit) in metrics.items():
        print("%s %s %s" % (name, repr(value), unit))
    if args.trace and metrics["trace.layer_share"][0] < MIN_LAYER_SHARE:
        print("WARNING layer self times cover only %.1f%% of the traced wall"
              % (100 * metrics["trace.layer_share"][0]))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


# -- steadiness ----------------------------------------------------------------

def steady(args):
    """Run each workload `--runs` times with seeds 1.., each in a fresh
    interpreter, and print each end-to-end metric's quartile spread next
    to its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    for workload in chosen:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        bad = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=300, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode,
                                                   proc.stderr[-2000:]))
                bad += 1
                continue
            result = json.loads(lines[-1])
            bad += not result["correct"]
            if set(result["metrics"]) != set(values):
                print("%s seed %d: metrics %s differ from BENCHMARK.json"
                      % (workload, seed, sorted(result["metrics"])))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        print("%s: %d runs, %d not correct" % (workload, args.runs, bad))
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            state = "ok" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "OVER BOUND")
            if m["name"] == "setup_s":
                state += " (not gated)"
            print("  %-16s median %-12.6g spread %6.2f%%  bound %5.1f%%  %s"
                  % (m["name"], med, 100 * spread, 100 * m["bound"], state))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated, for --steady")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "vccts")):
        print("error: no program at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.steady:
        steady(args)
        return 0
    if args.workload is None or args.seconds is None:
        ap.error("--workload and --seconds are required")
    run_once(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
