"""The traced bench wraps program entry points by name; a renamed or
dropped one would only fail at `bench/run.py --trace 1`."""

import importlib
import importlib.util
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
