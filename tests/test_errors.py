import pytest

from swemix.errors import ConfigParseError, DryStateError, SolverFailureError, UnknownKeyError

ERRORS = [
    SolverFailureError("trace solve failed", residual=0.5, iterations=9),
    DryStateError("non-positive geopotential", element=4),
    ConfigParseError("expected key = value", 3),
    UnknownKeyError("mesh.nz"),
]


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_with_context_keeps_class_and_attributes(error):
    # the constructor is not run again: a ConfigParseError keeps one
    # "line 3:" prefix, and an UnknownKeyError keeps its key
    message, attributes = str(error), dict(vars(error))
    got = error.with_context("step 2 (t = 0.5)")
    assert type(got) is type(error)
    assert str(got) == f"step 2 (t = 0.5): {message}"
    assert vars(got) == attributes
    assert (str(error), vars(error)) == (message, attributes)
