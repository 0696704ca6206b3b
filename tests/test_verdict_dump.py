"""The differential verdict dump, produced twice in one process, is the
same both times: no verdict, key or state record depends on what ran
before it, such as the process-wide table of terms."""

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
    assert dumps[0] == dumps[1] and dumps[0].count("\n") == 255
