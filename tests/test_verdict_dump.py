"""The differential verdict dump, produced twice in one process, is the
same both times: no verdict, key or state record depends on what ran
before it, such as the process-wide table of terms."""

import json
import os
import sys

import verdict_dump

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_dump_is_the_same_when_produced_twice_in_one_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    dumps = []
    for _ in range(2):
        assert verdict_dump.main(["verdict_dump.py", SRC]) == 0
        dumps.append(capsys.readouterr().out)
    assert dumps[0] == dumps[1] and dumps[0].count("\n") == 287


def _records(tmp_path, name, records):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_compare_counts_changes_and_fails_on_a_flip(tmp_path, capsys):
    def record(weak, budget, last):
        return {"family": "random-5", "weak": {"result": weak, "detail": ""},
                "strata": {"vector": [True, last], "budget": budget}}
    old = _records(tmp_path, "old", [record("inconclusive", "max_triples", True),
                                     record("not", None, False)])
    decided = _records(tmp_path, "decided", [record("bisimilar", None, True),
                                             record("not", None, False)])
    assert verdict_dump.main(["verdict_dump.py", "--compare", old, decided]) == 0
    out = capsys.readouterr().out
    assert "random-5: 1 of 2 records changed" in out
    assert "weak         inconclusive -> bisimilar: 1" in out
    assert "strata       inconclusive -> bisimilar: 1" in out
    flipped = _records(tmp_path, "flipped", [record("inconclusive", "max_triples", True),
                                             record("bisimilar", None, True)])
    assert verdict_dump.main(["verdict_dump.py", "--compare", old, flipped]) == 1
    assert "forbidden: random-5 weak not -> bisimilar" in capsys.readouterr().out
    # a decided strata vector may not turn inconclusive
    assert verdict_dump.main(["verdict_dump.py", "--compare", decided, old]) == 1
