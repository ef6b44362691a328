"""The benchmark's tracer wraps package functions and methods by name
(perfbench/tracing.py): every name it wraps must still exist, or every
traced benchmark run fails."""

import importlib.util
import sys
from pathlib import Path

import vocalsim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up here
    try:
        spec.loader.exec_module(tracing)
        with tracing.instrument(tracing.Tracer(), vocalsim):
            pass
    finally:
        del sys.modules[spec.name]
