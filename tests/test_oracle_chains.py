"""`syntax.compose` against the left-nested build: a `|`/`(+)` chain read
as one graph term flattens to the state that nesting `par` and `oplus`
pairwise gives, up to the spelling of restricted names."""

import random
import re

import pytest

from gen import base_env, random_process_term
from vccts.netstate import flatten
from vccts.parser import parse_source
from vccts.syntax import GraphTerm, Restrict, compose, oplus, par, term_str


def nested(terms, ops):
    out = terms[0]
    for op, t in zip(ops, terms[1:]):
        out = (par if op == "|" else oplus)(out, t)
    return out


def renamed(state):
    """`state.to_json()` with locations numbered 0, 1, ... in order and
    restricted names renamed R0, R1, ... by first occurrence in the
    components, read in location order."""
    data = state.to_json()
    number = {p: i for i, p in enumerate(data["vertices"])}
    names = {}

    def rename(m):
        if m.group(0) not in data["restricted"]:
            return m.group(0)
        return names.setdefault(m.group(0), "R%d" % len(names))
    comps = [re.sub(r"[^\W\d]\w*'*", rename, data["components"][str(p)])
             for p in data["vertices"]]
    return comps, sorted((number[a], number[b]) for a, b in data["edges"]), len(names)


@pytest.mark.parametrize("seed", [1, 2])
def test_a_chain_flattens_as_its_left_nested_build(seed):
    rng = random.Random(seed)
    env = base_env()
    renamings = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        terms = []
        for _ in range(n):
            term = random_process_term(rng, max_components=2, depth=1,
                                       allow_recursion=rng.random() < 0.3)
            if rng.random() < 1 / 3:
                # Loop and Sink use u, which cannot be renamed apart
                term = Restrict(term, frozenset(rng.sample(("w", "k"), rng.randint(1, 2))))
            terms.append(term)
        ops = [rng.choice(("|", "(+)")) for _ in range(n - 1)]
        chained = compose(terms, ops)
        assert isinstance(chained, GraphTerm) and len(chained.places) == n
        expected = renamed(flatten(nested(terms, ops), env))
        assert renamed(flatten(chained, env)) == expected
        renamings += expected[2] > 1
    assert renamings >= 10


def test_two_operands_are_par_and_oplus():
    env = parse_source("symbol u/1;\nprocess P = ~u(0).(0) | u(x).(0) (+) *;\n")
    a, b, c = (t for _v, t in env.processes["P"].places)
    assert compose((a, b), ("|",)) is par(a, b)
    assert compose((a, b), ("(+)",)) is oplus(a, b)
    assert compose((a,), ()) is a
    assert env.processes["P"] is compose((a, b, c), ("|", "(+)"))
    assert env.processes["P"].links == {("l", "r")}


def test_a_chain_primes_restricted_names_from_left_to_right():
    # the left-nested build renamed the inner pair first, priming the
    # second operand's g once and the first operand's twice
    env = parse_source("symbol g/1;\nprocess P = ((~g(0).(*)) restrict {g}) "
                       "| ((~g(1).(*)) restrict {g}) | g(y).(*);\n")
    terms = [t for _v, t in env.processes["P"].places]

    def spelled(term):
        state = flatten(term, env)
        return [term_str(state.comp[p]) for p in state.locations()]
    assert spelled(env.processes["P"]) == ["~g'(0).(*)", "~g''(1).(*)", "g(y).(*)"]
    assert spelled(nested(terms, ["|", "|"])) == ["~g''(0).(*)", "~g'(1).(*)", "g(y).(*)"]
