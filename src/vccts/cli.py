"""Command-line front end.

Subcommands: check, reduce, lts, bisim, demo {abp, tree-automaton,
expansion-law}.  Exit codes: 0 success/equal, 1 distinguished (or not
canonical / target not found), 2 inconclusive, usage errors, or an error
or limit hit after the input loaded (one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .encodings import (
    abp_success_components, abp_system, automaton_from_json,
    example_counter_instance, expansion_law_pair, automaton_to_process,
    recognizes, sigma_tree_from_term, tree_to_process,
)
from .equivalence import (
    GameConfig, Verdict, stratified_bisim, weak_barbed_bisim, weak_bisim,
)
from .llts import multi_transitions
from .netstate import flatten, state_to_json_str
from .parser import ParseError, canonicality_report, parse_file, parse_term_src
from .reduction import reachable, reduces_to_idle, trace_to
from .syntax import DefEnv, NotCanonical, SyntaxError_, par, term_fingerprint
from .values import value_str


def _parse_universe(text):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        out.append(int(piece))
    if not out:
        raise argparse.ArgumentTypeError("universe must be nonempty")
    return tuple(out)


def _count(text):
    """A non-negative integer flag value; anything else is a usage error."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("not a non-negative integer: %r" % text)


def _budget(text):
    """A positive integer flag value, as every game budget must be."""
    if _count(text) == 0:
        raise argparse.ArgumentTypeError("not a positive integer: %r" % text)
    return int(text)


def _load(path):
    try:
        return parse_file(path)
    except (ParseError, SyntaxError_) as exc:
        print("%s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(2)


def _pick_process(env, name, path):
    if name is None:
        if len(env.processes) == 1:
            name = next(iter(env.processes))
        else:
            print("%s: pick one of the processes: %s"
                  % (path, ", ".join(sorted(env.processes)) or "<none>"), file=sys.stderr)
            raise SystemExit(2)
    if name not in env.processes:
        print("%s: no process named %s" % (path, name), file=sys.stderr)
        raise SystemExit(2)
    return env.processes[name]


def cmd_check(args):
    worst = 0
    for path in args.files:
        try:
            env = _load(path)
        except SystemExit:
            worst = max(worst, 2)
            continue
        for kind, name, cls in canonicality_report(env):
            if isinstance(cls, NotCanonical):
                print("%s: %s %s: NOT CANONICAL at %s: %s"
                      % (path, kind, name, cls.path or "<root>", cls.reason))
                worst = max(worst, 1)
            else:
                print("%s: %s %s: %s" % (path, kind, name, cls.value))
    return worst


def cmd_reduce(args):
    env = _load(args.file)
    term = _pick_process(env, args.process, args.file)
    state = flatten(term, env)
    reach = reachable(state, env, args.max_states)
    ids = {k: "s%d" % i for i, k in enumerate(reach.states)}   # discovery order
    if args.json:
        payload = {
            "states": {ids[k]: st.to_json() for k, st in reach.states.items()},
            "count": len(reach.states),
            "status": reach.status,
        }
        if args.trace:
            payload["traces"] = {
                ids[k]: [[str(x) for x in fired] for fired in trace_to(reach, k)]
                for k in reach.states
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("%d state(s), exploration %s" % (len(reach.states), reach.status))
        for k, st in reach.states.items():
            print("--- state %s" % ids[k])
            print(st.pretty(env))
            if args.trace:
                steps = trace_to(reach, k)
                if steps:
                    print("  via: " + "; ".join(
                        "%s --%s(%s)--> %s" % (q, sym, value_str(v), p)
                        for p, q, sym, v, _i, _j in steps))
    return 0 if reach.status == "complete" else 2


def cmd_lts(args):
    env = _load(args.file)
    term = _pick_process(env, args.process, args.file)
    state = flatten(term, env)
    width = args.width or len(state.graph.vertices)
    steps = multi_transitions(state, env, args.universe, width)
    if args.json:
        payload = []
        for s in steps:
            payload.append({
                "labels": repr(s.labels),
                "target": s.target.to_json(),
                "residual": {str(k): str(v) for k, v in s.residual.items()},
            })
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if not steps:
            print("no transitions")
        for s in steps:
            print(s.describe())
    return 0


def cmd_bisim(args):
    env = _load(args.file)
    left = flatten(_pick_process(env, args.left, args.file), env)
    right = flatten(_pick_process(env, args.right, args.file), env)
    cfg = GameConfig(universe=args.universe, max_width=args.width,
                     max_tau_states=args.max_states, max_states=args.max_states)
    if args.mode == "barbed":
        verdict = weak_barbed_bisim(left, right, env, cfg)
    elif args.mode == "weak":
        verdict = weak_bisim(left, right, env, cfg)
    else:
        vec, truncated = stratified_bisim(left, right, env, cfg, args.depth)
        result = "bisimilar" if vec[args.depth] else "not"
        detail = "approximants %s" % vec
        if truncated:
            result, detail = "inconclusive", detail + "; budget %s exhausted" % truncated
        verdict = Verdict(result, witness=vec, detail=detail)
    payload = {"mode": args.mode, "result": verdict.result,
               "detail": verdict.detail,
               "witness": repr(verdict.witness) if verdict.witness else None}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("%s: %s" % (args.mode, verdict.result))
        if verdict.witness:
            print("witness: %r" % (verdict.witness,))
        if verdict.detail:
            print(verdict.detail)
    return {"bisimilar": 0, "not": 1}.get(verdict.result, 2)


def cmd_demo(args):
    if args.which == "abp":
        messages = tuple(args.messages)
        state, env, _init = abp_system(messages, bit=0)
        reach = reachable(state, env, max_states=args.max_states)
        wanted = sorted(term_fingerprint(t) for t in abp_success_components(messages))
        hit = None
        for key, st in reach.states.items():
            fps = sorted(term_fingerprint(t) for t in st.comp.values())
            if fps == wanted:
                hit = key
                break
        if hit is None:
            print("success state not reached (%s)" % reach.status)
            return 1 if reach.status == "complete" else 2
        print("delivered %s and reached (A | 0) with Succ(%s); %d states explored"
              % (list(messages), value_str(messages), len(reach.states)))
        for p, q, sym, v, _i, _j in trace_to(reach, hit):
            print("  %s --%s(%s)--> %s" % (q, sym, value_str(v), p))
        if args.json:
            print(state_to_json_str(reach.states[hit]))
        return 0
    if args.which == "tree-automaton":
        if args.automaton:
            with open(args.automaton, "r", encoding="utf-8") as fh:
                aut = automaton_from_json(json.load(fh))
            q0 = args.state or sorted(aut.states)[0]
            base = DefEnv({f: n for f, n in aut.signature})
            if args.tree:
                tree = sigma_tree_from_term(parse_term_src(args.tree, base))
            else:
                print("--automaton also needs --tree", file=sys.stderr)
                return 2
            expect_counterexample = False
        else:
            aut, q0, tree = example_counter_instance()
            expect_counterexample = True
        entry, env = automaton_to_process(aut, q0, DefEnv())
        system = par(entry, tree_to_process(tree, 1))
        state = flatten(system, env)
        idle, trace, status = reduces_to_idle(state, env)
        rec = recognizes(aut, q0, tree)
        print("tree: %r" % tree)
        print("recognized at %s: %s" % (q0, rec))
        print("reduces to an idle process: %s (%s)" % (idle, status))
        if expect_counterexample:
            print("the reduction semantics wires every child to every co-child,")
            print("so the mismatched tree still drains to idle while recognition fails")
            return 0 if (idle and not rec) else 1
        return 0 if idle == rec or idle else 1
    if args.which == "expansion-law":
        lhs, rhs, env = expansion_law_pair(DefEnv())
        cfg = GameConfig(universe=(1, 2))
        weak = weak_bisim(lhs, rhs, env, cfg)
        barbed = weak_barbed_bisim(lhs, rhs, env, cfg)
        print("two parallel outputs vs the sum of both interleavings")
        print("weak bisimilarity: %s" % weak.result)
        if weak.witness:
            print("  distinguishing play: %r" % (weak.witness,))
        print("weak barbed bisimilarity: %s" % barbed.result)
        if barbed.witness:
            print("  witness: %r" % (barbed.witness,))
        return 0 if (weak.result == "not" and barbed.result == "not") else 1
    raise SystemExit(2)


def build_arg_parser():
    ap = argparse.ArgumentParser(prog="vccts", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="canonicality report for definition files")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("reduce", help="explore internal reductions")
    p.add_argument("file")
    p.add_argument("--process")
    p.add_argument("--max-states", type=_count, default=2000)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("lts", help="labelled multi-transitions of a process")
    p.add_argument("file")
    p.add_argument("--process")
    p.add_argument("--universe", type=_parse_universe, default=(0, 1))
    p.add_argument("--width", type=_count, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_lts)

    p = sub.add_parser("bisim", help="equivalence checking")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=("barbed", "weak", "strata"), default="weak")
    p.add_argument("--depth", type=_count, default=4)
    p.add_argument("--universe", type=_parse_universe, default=(0, 1))
    p.add_argument("--width", type=_budget, default=4)
    p.add_argument("--max-states", type=_budget, default=2000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("demo", help="worked examples")
    p.add_argument("which", choices=("abp", "tree-automaton", "expansion-law"))
    p.add_argument("--messages", type=_parse_universe, default=(1, 2))
    p.add_argument("--max-states", type=_count, default=20000)
    p.add_argument("--automaton", help="JSON automaton file for the tree demo")
    p.add_argument("--state", help="start state for the tree demo")
    p.add_argument("--tree", help="tree literal, e.g. 'f(x).(*, *)'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_demo)
    return ap


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:      # the reader left early: stop quietly, as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:     # noqa: BLE001 - a limit or error, not a verdict
        print("vccts: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
