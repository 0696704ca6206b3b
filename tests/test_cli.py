import json
import os
import subprocess
import sys
import time

import pytest

from vccts.cli import main

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def demo(name):
    return os.path.join(DEMOS, name)


def test_check_demo_sources_exit_zero(capsys):
    code = main(["check", demo("abp.vccts"), demo("local_connections.vccts"),
                 demo("expansion_law.vccts")])
    out = capsys.readouterr().out
    assert code == 0
    assert "NOT CANONICAL" not in out
    assert "def P1: CGS" in out and "process Main: CP" in out


def test_check_flags_unguarded_sum(tmp_path, capsys):
    bad = tmp_path / "bad.vccts"
    bad.write_text("symbol f/1;\ndef X = f(x).(X);\nprocess P = graph { v: X + f(x).(0) };\n")
    code = main(["check", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT CANONICAL" in out


@pytest.mark.parametrize("defs", [
    "def K = graph { a: K; b: * };\n",
    "def K = J;\ndef J = graph { a: K; b: * };\n",
    "def K = graph { a: u(x).(J); b: J };\ndef J = graph { c: K; d: * };\n",
], ids=["direct", "through-J", "J-first-behind-a-prefix"])
def test_self_wiring_constant_is_not_canonical(tmp_path, capsys, defs):
    # K unfolds into a graph with K at a vertex: flattening would never end
    src = tmp_path / "wired.vccts"
    src.write_text("symbol u/1;\n%sprocess P = K;\n" % defs)
    assert main(["check", str(src)]) == 1
    out = capsys.readouterr().out
    assert "process P: NOT CANONICAL at .K" in out
    assert main(["reduce", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vccts: SyntaxError_: not canonical at .K") and err.count("\n") == 1


def test_check_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.vccts"
    empty.write_text("# nothing\n")
    assert main(["check", str(empty)]) == 0


def test_check_parse_error_exit_two(tmp_path, capsys):
    broken = tmp_path / "broken.vccts"
    broken.write_text("symbol f/;\n")
    assert main(["check", str(broken)]) == 2
    assert "1:" in capsys.readouterr().err


def test_reduce_self_loop(capsys):
    code = main(["reduce", demo("local_connections.vccts"), "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 state(s), exploration complete" in out


def test_reduce_json_roundtrip(capsys):
    code = main(["reduce", demo("expansion_law.vccts"), "--process", "Lhs", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    (state,) = payload["states"].values()
    assert len(state["vertices"]) == 2


COLLIDING = """\
symbol u/1;
symbol w/1;
process P = graph { s: w(x).(*) + w(x).(0); a: ~u(0).(~u(0).(*)); b: u(x).(u(x).(*)) ;
                    edges { a -- b } };
"""


def test_reduce_names_each_state_once(tmp_path, capsys):
    # three states whose keys share their first 16 characters
    path = tmp_path / "p.vccts"
    path.write_text(COLLIDING)
    assert main(["reduce", str(path), "--json", "--trace"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["states"]) == len(payload["traces"]) == 3
    assert main(["reduce", str(path)]) == 0
    headers = [l for l in capsys.readouterr().out.splitlines() if l.startswith("--- state")]
    assert len(set(headers)) == len(headers) == 3


def test_lts_idle_empty(capsys):
    code = main(["lts", demo("idle.vccts")])
    out = capsys.readouterr().out
    assert code == 0 and "no transitions" in out


def test_lts_json(capsys):
    code = main(["lts", demo("expansion_law.vccts"), "--process", "Lhs",
                 "--universe", "1,2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert any("~f1" in row["labels"] for row in payload)


def test_lts_drops_early_inputs_whose_children_fail(capsys):
    # the receiver tests snd(x), so the universe values 0 and 1 are no
    # transitions of its input; every other step is listed
    assert main(["lts", demo("abp.vccts"), "--process", "Main"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    steps = captured.out.splitlines()
    assert len(steps) == 8 and all(s.startswith("{") for s in steps)
    assert main(["lts", demo("abp.vccts"), "--process", "Main", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 8


def test_bisim_modes_and_exit_codes(capsys):
    assert main(["bisim", demo("expansion_law.vccts"), "Lhs", "Rhs",
                 "--mode", "weak", "--universe", "1,2"]) == 1
    assert main(["bisim", demo("expansion_law.vccts"), "Lhs", "Lhs",
                 "--mode", "weak", "--universe", "1,2"]) == 0
    assert main(["bisim", demo("expansion_law.vccts"), "Lhs", "Rhs",
                 "--mode", "barbed", "--universe", "1,2"]) == 1
    assert main(["bisim", demo("expansion_law.vccts"), "Lhs", "Rhs",
                 "--mode", "strata", "--depth", "2", "--universe", "1,2"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("mode, budget", [
    ("barbed", "budget max_states=4 exhausted by the left reachable set"),
    ("weak", "budget max_tau_states exhausted"),
    ("strata", "budget max_tau_states exhausted"),
])
def test_bisim_names_the_budget_that_tripped(tmp_path, capsys, mode, budget):
    # six internal steps in a row: more than four states in any budget
    src = tmp_path / "count.vccts"
    src.write_text("symbol u/1;\nsymbol w/1;\ndef S = u(x).(S);\n"
                   "def C(n) = if n = 5 then ~w(1).(0) else ~u(n).(C(n + 1));\n"
                   "process P = C(0) | S;\n")
    assert main(["bisim", str(src), "P", "P", "--mode", mode, "--depth", "2",
                 "--universe", "0", "--max-states", "4"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("%s: inconclusive" % mode) and budget in out


def test_bisim_stops_at_the_first_budget_that_trips(tmp_path, capsys):
    # once a tau closure is cut the game cannot close; exploring on lets
    # Grow's states outgrow the canonical-key search instead
    src = tmp_path / "pump.vccts"
    src.write_text("symbol f/1;\ndef Pump = ~f(0).(Pump);\n"
                   "def Grow = f(x).(Grow | Grow);\nprocess P = Pump | Grow;\n")
    t0 = time.perf_counter()
    code = main(["bisim", str(src), "P", "P", "--mode", "weak", "--universe", "0",
                 "--max-states", "4"])
    assert time.perf_counter() - t0 < 5.0
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("weak: inconclusive") and "budget max_tau_states" in out


def test_bisim_keeps_one_and_true_apart(tmp_path, capsys):
    # 1 and true are different values; neither argument order may let
    # a cache keyed by the first term decide the second
    src = tmp_path / "one_true.vccts"
    src.write_text("symbol u/1;\nprocess One = ~u(1).(*);\nprocess Truth = ~u(true).(*);\n")
    assert main(["bisim", str(src), "One", "Truth"]) == 1
    assert main(["bisim", str(src), "Truth", "One"]) == 1
    out = capsys.readouterr().out
    assert out.count("weak: not") == 2


def test_bisim_weak_witness_json(capsys):
    code = main(["bisim", demo("expansion_law.vccts"), "Lhs", "Rhs",
                 "--mode", "weak", "--universe", "1,2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["result"] == "not"
    assert "~f1" in payload["witness"] and "~g2" in payload["witness"]


def test_demo_abp(capsys):
    code = main(["demo", "abp", "--messages", "1,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Succ([1, 2])" in out


def test_demo_tree_automaton(capsys):
    code = main(["demo", "tree-automaton"])
    out = capsys.readouterr().out
    assert code == 0
    assert "recognized at Q: False" in out
    assert "idle process: True" in out


def test_demo_expansion_law(capsys):
    code = main(["demo", "expansion-law"])
    out = capsys.readouterr().out
    assert code == 0
    assert "weak bisimilarity: not" in out
    assert "weak barbed bisimilarity: not" in out


def test_exit_codes_deterministic(capsys):
    runs = {main(["bisim", demo("expansion_law.vccts"), "Lhs", "Rhs",
                  "--mode", "weak", "--universe", "1,2"]) for _ in range(3)}
    capsys.readouterr()
    assert runs == {1}


def test_demo_tree_automaton_from_file(tmp_path, capsys):
    from vccts.encodings import automaton_to_json, example_counter_instance
    aut, _q0, _t = example_counter_instance()
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(automaton_to_json(aut)))
    code = main(["demo", "tree-automaton", "--automaton", str(path),
                 "--state", "Q", "--tree", "f(x).(g1(x).(*, *), g2(x).(*, *))"])
    out = capsys.readouterr().out
    assert code == 0
    assert "recognized at Q: True" in out


def test_barbed_witness_does_not_depend_on_string_hashing():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "vccts.cli", "bisim", demo("expansion_law.vccts"),
             "Lhs", "Rhs", "--mode", "barbed", "--universe", "1,2"],
            env=env, capture_output=True, text=True, check=False)
        assert run.returncode == 1
        outs.add(run.stdout)
    assert len(outs) == 1
    assert "(~f, ~g)" in outs.pop()


@pytest.mark.parametrize("command, process, error", [
    ("reduce", " | ".join(["*"] * 25), "CanonicalizationError"),
    ("reduce", "~u(head([])).(0)", "EvalError"),
    ("reduce", "~u(x).(0)", "SyntaxError_"),
    ("lts", "~u(0).(if head([]) = 1 then 0 else 0)", "EvalError"),
    ("lts", "~u(1).(0) | u(x).(if snd(x) = 0 then 0 else 0)", "EvalError"),
], ids=["25-components", "head-of-empty", "open-payload",
        "lts-output-child", "lts-comm-child"])
def test_errors_after_load_exit_two_without_traceback(tmp_path, capsys, command,
                                                       process, error):
    path = tmp_path / "p.vccts"
    path.write_text("symbol u/1;\nprocess P = %s;\n" % process)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vccts: %s: " % error) and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "reduce", "lts", "bisim"])
@pytest.mark.parametrize("source", [
    "def B = k(y).(~w(x).(0));\nprocess P = B;\n",
    "def B = ~k(1).(~w(x).(0));\nprocess P = k(y).(0) | B;\n",
], ids=["under-an-input", "under-an-output"])
def test_a_definition_with_a_free_data_variable_is_refused(tmp_path, capsys, command,
                                                            source):
    path = tmp_path / "open.vccts"
    path.write_text("symbol k/1;\nsymbol w/1;\n" + source)
    argv = [command, str(path)] + (["P", "P"] if command == "bisim" else [])
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "%s: 3:5: definition B has free data variable x\n" % path


@pytest.mark.parametrize("command", ["check", "reduce", "lts"])
@pytest.mark.parametrize("process", [
    "if true then " * 600 + "0" + " else 0" * 600,
    "~u(" + "not " * 1000 + "true).(0)",
], ids=["600-conditionals", "1000-negations"])
def test_deep_conditionals_and_negations_name_the_parse_budget(tmp_path, capsys, command,
                                                               process):
    # a file that fails to load exits through SystemExit when a command
    # other than check reads it
    path = tmp_path / "p.vccts"
    path.write_text("symbol u/1;\nprocess P = %s;\n" % process)
    try:
        code = main([command, str(path)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "nested deeper than MAX_PARSE_DEPTH=200" in err and err.count("\n") == 1
    assert "RecursionError" not in err


@pytest.mark.parametrize("command", ["check", "reduce", "lts"])
def test_a_1200_summand_sum_runs(tmp_path, capsys, command):
    # a sum is one node, however many summands it has
    path = tmp_path / "p.vccts"
    path.write_text("symbol u/1;\nprocess P = %s;\n" % " + ".join(["~u(0).(0)"] * 1200))
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["reduce", "lts"])
def test_a_600_summand_sum_runs(tmp_path, capsys, command):
    # terms hash by identity, so flattening and firing a wide guarded sum
    # walk no chain of nested hashes
    path = tmp_path / "p.vccts"
    path.write_text("symbol u/1;\nprocess P = graph { v: %s };\n"
                    % " + ".join(["u(x).(0)"] * 600))
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mode", ["weak", "barbed", "strata"])
def test_bisim_names_the_canonical_cap(tmp_path, capsys, mode):
    # 25 linked components: each state, and each joint triple graph,
    # outgrows the exact canonical-form search
    wide = " | ".join(["~u(0).(*)"] * 25)
    src = tmp_path / "wide.vccts"
    src.write_text("symbol u/1;\nprocess P = %s;\nprocess Q = %s;\n" % (wide, wide))
    assert main(["bisim", str(src), "P", "Q", "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("%s: inconclusive" % mode)
    assert "MAX_CANON_VERTICES=24" in captured.out
    assert "CanonicalizationError" not in captured.out + captured.err


@pytest.mark.parametrize("mode", ["weak", "strata"])
def test_bisim_caps_each_side_not_the_joined_graph(tmp_path, capsys, mode):
    # 13 components a side: each side keys, the 26-vertex joined graph would not
    wide = " | ".join(["~u(0).(*)"] * 13)
    src = tmp_path / "wide.vccts"
    src.write_text("symbol u/1;\nprocess P = %s;\nprocess Q = %s;\n" % (wide, wide))
    t0 = time.perf_counter()
    assert main(["bisim", str(src), "P", "Q", "--mode", mode]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().out.startswith("%s: bisimilar" % mode)


@pytest.mark.parametrize("argv", [
    ["reduce", "LAW", "--process", "Lhs", "--max-states", "-1"],
    ["reduce", "LAW", "--process", "Lhs", "--max-depth", "-1"],
    ["lts", "LAW", "--process", "Lhs", "--width", "-1"],
    ["bisim", "LAW", "Lhs", "Rhs", "--mode", "strata", "--depth", "-1"],
    ["bisim", "LAW", "Lhs", "Rhs", "--width", "-1"],
    ["bisim", "LAW", "Lhs", "Rhs", "--max-states", "-1"],
    ["demo", "abp", "--max-states", "-1"],
], ids=lambda argv: argv[0] + argv[-2])
def test_negative_counts_are_usage_errors(capsys, argv):
    argv = [demo("expansion_law.vccts") if a == "LAW" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not a non-negative integer: '-1'" in capsys.readouterr().err


def test_bisim_keys_disjoint_pairs_part_by_part(tmp_path, capsys):
    # six linked (Loop | Sink) pairs under (+): each state keys its pairs
    # one by one instead of searching all their placements
    pairs = " (+) ".join(["(Loop | Sink)"] * 6)
    src = tmp_path / "pairs.vccts"
    src.write_text("symbol u/1;\ndef Loop = ~u(1).(Loop);\ndef Sink = u(x).(Sink);\n"
                   "process P = %s;\n" % pairs)
    t0 = time.perf_counter()
    assert main(["bisim", str(src), "P", "P", "--mode", "weak"]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().out.startswith("weak: bisimilar")


def test_bisim_plays_pairs_without_a_location_relation(tmp_path, capsys):
    # six triangles under (+), 500 positions: the game must not spend
    # |left| x |right| work per position on a location relation
    triangles = " (+) ".join(["(~u(0).(*) | ~u(0).(*) | ~u(0).(*))"] * 6)
    src = tmp_path / "triangles.vccts"
    src.write_text("symbol u/1;\nprocess P = %s;\n" % triangles)
    t0 = time.perf_counter()
    assert main(["bisim", str(src), "P", "P", "--mode", "weak"]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().out == "weak: bisimilar\nfixpoint closed over 500 triples\n"


def test_closed_output_pipe_ends_quietly():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    read_end, write_end = os.pipe()
    os.close(read_end)               # the reader is gone before anything is written
    try:
        run = subprocess.run(
            [sys.executable, "-m", "vccts.cli", "reduce", demo("local_connections.vccts")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, check=False,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (141, "")
