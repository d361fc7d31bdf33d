"""Every name the benchmark hooks must still exist in the program.

The benchmark reports a hook whose target is gone as absent instead of
failing, so a rename would silently drop a per-layer span; this test makes
the rename fail the suite instead.  A hook that reads its target's
arguments is run once, so a change to them fails here too.
"""

import importlib.util
import pathlib
import sys

import pytest

from swemix import hdg
from swemix.basis import nodal_basis
from swemix.mesh import build_structured
from swemix.swe import ModelParams

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


def test_block_jacobi_hook_counts_the_face_blocks():
    # the hook reads num_faces and n1 from the positional arguments of
    # hdg._block_jacobi; a keyword call would fail only in traced rounds
    mesh = build_structured(3, 2, (0.0, 1.0, 0.0, 1.0))
    basis = nodal_basis(2)
    blocks = hdg.assemble_local(mesh, basis, ModelParams(phi_bar=1.0), 0.05, 1.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        hdg.condense_and_factor(blocks, mesh, basis, backend="gmres")
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.rec.spans] == ["hdg.condense_and_factor", "hdg.factor"]
    assert tracer.rec.counters["hdg.lu_nnz"] == mesh.num_faces * basis.n**2
