"""Every name the benchmark hooks must still exist in the program.

The benchmark reports a hook whose target is gone as absent instead of
failing, so a rename would silently drop a per-layer span; this test makes
the rename fail the suite instead.
"""

import importlib.util
import pathlib
import sys

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tracing
_SPEC.loader.exec_module(tracing)

_CLOCK = tracing.StepClock().patch
TARGETS = list(dict.fromkeys(
    [(module, path) for _, module, path, _ in tracing._hooks(tracing.SpanRecorder())]
    + [(_CLOCK.module, _CLOCK.path)]
))


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_hook_target_resolves(module, path):
    assert tracing.Patch(module, path).resolve() is not None
