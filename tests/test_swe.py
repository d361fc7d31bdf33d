import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import flux_linear
from swemix.errors import DryStateError, InvalidArgumentError
from swemix.swe import ModelParams, flux_full, flux_nonlinear, source

P1 = ModelParams(phi_bar=1.0)

state = st.builds(
    lambda p, u, v: np.array([p, u, v]),
    st.floats(-0.5, 3.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        ModelParams(phi_bar=0.0)
    with pytest.raises(InvalidArgumentError):
        ModelParams(phi_bar=1.0, drag=-0.1)
    assert ModelParams(phi_bar=4.0).wave_speed == 2.0


def test_flux_full_rest_state_vanishes():
    assert np.array_equal(flux_full(np.zeros(3), P1), np.zeros((2, 3)))


def test_flux_full_pressure_only():
    f = flux_full(np.array([0.2, 0.0, 0.0]), P1)
    expected = np.zeros((2, 3))
    expected[0, 1] = (1.2**2 - 1.0) / 2.0  # 0.22
    expected[1, 2] = expected[0, 1]
    assert np.allclose(f, expected, atol=1e-15)


def test_flux_full_momentum_arithmetic():
    f = flux_full(np.array([0.0, 1.0, 2.0]), P1)
    assert np.allclose(f[0], [1.0, 1.0, 2.0], atol=1e-15)
    assert np.allclose(f[1], [2.0, 2.0, 4.0], atol=1e-15)


def test_flux_full_dry_state():
    with pytest.raises(DryStateError):
        flux_full(np.array([-1.0, 0.0, 0.0]), P1)


def test_flux_linear_values():
    f = flux_linear(np.array([0.5, 0.0, 0.0]), ModelParams(phi_bar=2.0))
    assert f[0, 1] == 1.0 and f[1, 2] == 1.0
    assert np.array_equal(flux_linear(np.zeros(3), P1), np.zeros((2, 3)))


@given(state, state, st.floats(-3, 3), st.floats(-3, 3))
def test_flux_linear_is_linear(s1, s2, a, b):
    lhs = flux_linear(a * s1 + b * s2, P1)
    rhs = a * flux_linear(s1, P1) + b * flux_linear(s2, P1)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_flux_nonlinear_pressure_remainder():
    f = flux_nonlinear(np.array([0.2, 0.0, 0.0]), P1)
    assert abs(f[0, 1] - 0.02) < 1e-16
    assert abs(f[1, 2] - 0.02) < 1e-16
    assert np.array_equal(flux_nonlinear(np.zeros(3), P1), np.zeros((2, 3)))


@given(state)
def test_flux_splitting_identity(s):
    full = flux_full(s, P1)
    split = flux_linear(s, P1) + flux_nonlinear(s, P1)
    assert np.allclose(full, split, rtol=0, atol=1e-14)


@pytest.mark.parametrize("flux", [flux_full, flux_nonlinear], ids=["full", "remainder"])
@pytest.mark.parametrize("normal", [(1, 0), (-1, 0), (0, 1), (0, -1)])
@given(s=state)
def test_wall_mirror_negates_normal_flux(flux, normal, s):
    # F(R q).n == -R (F(q).n) bitwise for the mirror R that negates the
    # momentum along an axis-aligned n; the explicit operator forms wall
    # ghost fluxes this way instead of evaluating the flux again.
    n = np.array(normal, dtype=float)
    mirror = np.array([1.0, 1.0 - 2.0 * abs(n[0]), 1.0 - 2.0 * abs(n[1])])
    assert np.array_equal(n @ flux(mirror * s, P1), -mirror * (n @ flux(s, P1)))


def test_flux_nonlinear_continuity_rows_zero():
    rng = np.random.default_rng(3)
    q = rng.uniform(-0.4, 0.4, size=(20, 3))
    f = flux_nonlinear(q, P1)
    assert np.array_equal(f[..., :, 0], np.zeros((20, 2)))


def test_source_examples():
    assert np.array_equal(source(np.array([0.1, 2.0, 3.0]), 0.0, P1), np.zeros(3))
    coriolis = ModelParams(phi_bar=1.0, f0=1.0)
    s = source(np.array([0.0, 2.0, 3.0]), 0.0, coriolis)
    assert np.allclose(s, [0.0, 3.0, -2.0], atol=0)
    dragged = ModelParams(phi_bar=1.0, drag=0.5)
    s = source(np.array([0.0, 2.0, 0.0]), 0.0, dragged)
    assert np.allclose(s, [0.0, -1.0, 0.0], atol=0)


@pytest.mark.parametrize(
    "f0, beta, drag",
    [(0.0, 0.0, 0.0), (0.8, 0.0, 0.0), (0.0, -0.6, 0.0), (0.0, 0.0, 0.3), (0.8, 0.0, 0.3), (0.8, -0.6, 0.3)],
)
def test_source_adds_into_out(f0, beta, drag):
    # bitwise the out-of-place source added to the buffer, for every
    # combination of skipped terms
    params = ModelParams(phi_bar=1.0, f0=f0, beta=beta, drag=drag)
    rng = np.random.default_rng(6)
    q = rng.uniform(-0.5, 0.5, size=(5, 3, 3, 3))
    y = rng.uniform(-1.0, 1.0, size=(5, 3, 3))
    buf = rng.uniform(-2.0, 2.0, size=q.shape)
    f, u, v = f0 + beta * y, q[..., 1], q[..., 2]
    textbook = np.stack([np.zeros_like(u), f * v - drag * u, -f * u - drag * v], axis=-1)
    assert np.array_equal(source(q, y, params), textbook)
    want = buf + source(q, y, params)
    got = source(q, y, params, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()


@given(state, st.floats(-2, 2), st.floats(-1, 1), st.floats(-1, 1))
def test_coriolis_energy_neutrality(s, f0, beta, y):
    # exact cancellation up to the rounding of the two triple products
    params = ModelParams(phi_bar=1.0, f0=f0, beta=beta)
    src = source(s, y, params)
    work = s[1] * src[1] + s[2] * src[2]
    scale = max(abs(s[1] * src[1]), abs(s[2] * src[2]), 1e-300)
    assert abs(work) <= 8 * np.finfo(float).eps * scale


@given(state)
@settings(max_examples=30)
def test_linearization_matches_finite_differences(direction):
    # directional derivative of the full flux at rest = linear flux applied
    # to the direction, checked with central differences
    eps = 1e-6
    fd = (flux_full(eps * direction, P1) - flux_full(-eps * direction, P1)) / (2 * eps)
    lin = flux_linear(direction, P1)
    assert np.allclose(fd, lin, rtol=1e-6, atol=1e-8)
