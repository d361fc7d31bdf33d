import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from swemix.basis import nodal_basis
from swemix.cases import lake_at_rest
from swemix.dg import ExplicitOperator, StateField, nodal_field
from swemix.config import parse_text
from swemix.driver import SplitOperator, build_simulation
from swemix.errors import InvalidArgumentError, SolverFailureError, UnknownSchemeError
from swemix.hdg import ImplicitSolverBank
from swemix.imex import ImexTableau, check_order_conditions, scheme_names, step, tableau
from swemix.mesh import build_structured
from swemix.swe import ModelParams


class ScalarSplit:
    """y' = lam_im * y + lam_ex * y with exact closed-form implicit solves."""

    def __init__(self, lam_im, lam_ex):
        self.lam_im = lam_im
        self.lam_ex = lam_ex

    def explicit_tendency(self, y, t):
        return self.lam_ex * y

    def implicit_solve(self, shift, r):
        return r / (1.0 - shift * self.lam_im)


class ForcedExplicit:
    """y' = f(t); isolates the stage-time sampling of the explicit part."""

    def __init__(self, f):
        self.f = f

    def explicit_tendency(self, y, t):
        return self.f(t)

    def implicit_solve(self, shift, r):
        return r


class MatrixImplicit:
    """y' = L y for a small matrix L, N identically zero."""

    def __init__(self, L):
        self.L = L
        self.eye = np.eye(L.shape[0])

    def explicit_tendency(self, y, t):
        return np.zeros_like(y)

    def implicit_solve(self, shift, r):
        return np.linalg.solve(self.eye - shift * self.L, r)


def _march(pair, tab, y0, dt, t_end):
    y, t = y0, 0.0
    for _ in range(int(round(t_end / dt))):
        y = step(pair, y, t, dt, tab)
        t += dt
    return y


def test_scheme_names_and_unknown():
    assert scheme_names() == ["ars111", "ars222", "ars233"]
    with pytest.raises(UnknownSchemeError):
        tableau("rk4")


def test_all_tableaux_validate():
    for name in scheme_names():
        tab = tableau(name)
        assert abs(np.sum(tab.b_ex) - 1.0) < 1e-14
        assert abs(np.sum(tab.b_im) - 1.0) < 1e-14
        assert np.allclose(tab.A_ex.sum(axis=1), tab.c_ex, atol=1e-14)
        assert np.allclose(tab.A_im.sum(axis=1), tab.c_im, atol=1e-14)
        assert not np.triu(tab.A_ex).any()
        assert not np.triu(tab.A_im, 1).any()
        if tab.stiffly_accurate:
            assert np.allclose(tab.A_ex[-1], tab.b_ex, atol=1e-14)
            assert np.allclose(tab.A_im[-1], tab.b_im, atol=1e-14)


def test_stiff_accuracy_flags():
    assert tableau("ars111").stiffly_accurate
    assert tableau("ars222").stiffly_accurate
    assert not tableau("ars233").stiffly_accurate


def test_custom_tableau_derives_abscissae_and_stiff_accuracy():
    # explicit trapezoid with backward Euler: the abscissae are the row
    # sums, and only the implicit table has b as its last row
    trap = ImexTableau(
        name="trapezoid",
        A_ex=[[0.0, 0.0], [1.0, 0.0]],
        b_ex=[0.5, 0.5],
        A_im=[[0.0, 0.0], [0.0, 1.0]],
        b_im=[0.0, 1.0],
        order=1,
    )
    assert trap.stiffly_accurate is False
    assert np.array_equal(trap.c_ex, [0.0, 1.0]) and np.array_equal(trap.c_im, [0.0, 1.0])
    # nor does the explicit table alone make the scheme stiffly accurate:
    # explicit midpoint with an implicit table whose b is not its last row
    midpoint = ImexTableau(
        name="midpoint",
        A_ex=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 1.0, 0.0]],
        b_ex=[0.0, 1.0, 0.0],
        A_im=[[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]],
        b_im=[0.0, 0.5, 0.5],
        order=1,
    )
    assert midpoint.stiffly_accurate is False
    assert np.array_equal(midpoint.c_ex, [0.0, 0.5, 1.0]) and np.array_equal(midpoint.c_im, [0.0, 0.5, 1.0])
    # both run: every stiff tendency they weight is one the stepper forms
    for tab in (trap, midpoint):
        assert np.isfinite(step(ScalarSplit(-1.0, -0.5), 1.0, 0.0, 0.1, tab))


# explicit trapezoid with backward Euler, which each case below breaks by
# one rule
TRAPEZOID = dict(A_ex=[[0.0, 0.0], [1.0, 0.0]], b_ex=[0.5, 0.5], A_im=[[0.0, 0.0], [0.0, 1.0]], b_im=[0.0, 1.0])


@pytest.mark.parametrize(
    "change,message",
    [
        (dict(A_ex=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "inconsistent explicit tableau shapes"),
        (dict(b_im=[0.0, 1.0, 0.0]), "inconsistent implicit tableau shapes"),
        (dict(b_ex=[0.5, 0.4]), "explicit weights do not sum to 1"),
        (dict(b_im=[0.0, 1.1]), "implicit weights do not sum to 1"),
        (dict(A_ex=[[0.0, 0.0], [1.0, 0.5]]), "explicit table must be strictly lower triangular"),
        (dict(A_im=[[0.0, 0.5], [0.0, 1.0]]), "implicit table must be lower triangular"),
        # a later row weights the stiff tendency of explicit stage 0
        (dict(A_im=[[0.0, 0.0], [0.5, 0.5]]), "zero implicit diagonal"),
        # and so does a final weight of a scheme that is not stiffly accurate
        (dict(b_im=[0.5, 0.5]), "zero implicit diagonal"),
    ],
)
def test_tableau_construction_refuses(change, message):
    with pytest.raises(InvalidArgumentError, match=message):
        ImexTableau("broken", **{**TRAPEZOID, **change}, order=1)


def test_stiffly_accurate_tableau_passes_the_stiff_tendency_rule():
    # b_im is the last row: the row rule has checked each weight it puts on
    # an earlier stage, and its last weight is the last stage's own diagonal
    tab = ImexTableau(
        name="ars_like",
        A_ex=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 1.0, 0.0]],
        b_ex=[0.0, 1.0, 0.0],
        A_im=[[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.5, 0.5]],
        b_im=[0.0, 0.5, 0.5],
        order=1,
    )
    assert tab.stiffly_accurate


def test_tableau_stores_lists_as_read_only_float_arrays():
    A_im = np.array([[0.0, 0.0], [0.0, 1.0]])
    tab = ImexTableau("trapezoid", A_ex=[[0, 0], [1, 0]], b_ex=[0.5, 0.5], A_im=A_im, b_im=[0, 1], order=1)
    for table in (tab.A_ex, tab.b_ex, tab.A_im, tab.b_im):
        assert isinstance(table, np.ndarray) and table.dtype == np.float64
        with pytest.raises(ValueError):
            table[0] = 1.0
    # the tableau keeps a copy: the caller's array stays writable and apart
    A_im[1, 1] = 2.0
    assert tab.A_im[1, 1] == 1.0


def test_ars222_coefficients():
    tab = tableau("ars222")
    g = tab.A_im[1, 1]
    d = tab.b_ex[0]
    assert abs(g - 0.29289321881345254) < 1e-15
    assert abs(d - (-0.7071067811865475)) < 1e-14


def test_order_conditions_ars111():
    assert all(c.ok for c in check_order_conditions(tableau("ars111"), 1))
    checks2 = check_order_conditions(tableau("ars111"), 2)
    assert max(c.residual for c in checks2 if c.order == 2) >= 0.1


def test_order_conditions_ars222():
    checks = check_order_conditions(tableau("ars222"), 2)
    assert all(c.residual <= 1e-14 for c in checks)
    labels = [c.label for c in checks]
    assert "b_ex.c_im = 1/2" in labels  # the coupling condition


def test_order_conditions_ars233_third_order():
    checks = check_order_conditions(tableau("ars233"), 3)
    assert all(c.residual <= 1e-13 for c in checks)


def test_order_conditions_cap():
    with pytest.raises(InvalidArgumentError):
        check_order_conditions(tableau("ars222"), 4)


def test_backward_euler_closed_form():
    pair = ScalarSplit(-1.0, 0.0)
    y1 = step(pair, 1.0, 0.0, 0.1, tableau("ars111"))
    assert abs(y1 - 1.0 / 1.1) < 1e-15


def test_forward_euler_closed_form():
    pair = ScalarSplit(0.0, -1.0)
    y1 = step(pair, 1.0, 0.0, 0.1, tableau("ars111"))
    assert abs(y1 - 0.9) < 1e-15


# the explicit stages whose tendency some weight of each scheme uses
USED_EXPLICIT_STAGES = {"ars111": [0], "ars222": [0, 1], "ars233": [0, 1, 2]}


@pytest.mark.parametrize("name", sorted(USED_EXPLICIT_STAGES))
def test_forcing_sampled_at_stage_times(name):
    # each explicit tendency is evaluated once, at its stage time, and only
    # if a later stage's row or a final weight of a scheme that is not
    # stiffly accurate uses it; only ars233 uses its last stage's
    sampled = []

    def f(t):
        sampled.append(t)
        return 0.0

    tab = tableau(name)
    step(ForcedExplicit(f), 0.0, 2.0, 0.5, tab)
    assert sampled == [2.0 + tab.c_ex[j] * 0.5 for j in USED_EXPLICIT_STAGES[name]]


@pytest.mark.parametrize("name", ["ars222", "ars233"])
def test_stage_rhs_released_before_the_next_is_summed(name):
    # a right-hand side still held while the next one is summed costs one
    # state array of peak memory; explicit tendencies 0 and 1 are formed
    # while stages 1 and 2 are summed
    class Watching:
        def __init__(self):
            self.rhs, self.alive = [], []

        def explicit_tendency(self, y, t):
            self.alive.append(sum(ref() is not None for ref in self.rhs))
            return -y

        def implicit_solve(self, shift, r):
            self.rhs.append(weakref.ref(r))
            return r / (1.0 + shift)

    pair = Watching()
    step(pair, np.ones(4), 0.0, 0.1, tableau(name))
    assert pair.alive[:2] == [0, 0]


class Counted:
    """An array state that counts the subtractions made on it."""

    subtractions = 0

    def __init__(self, a):
        self.a = a

    def __add__(self, other):
        return Counted(self.a + other.a)

    def __sub__(self, other):
        Counted.subtractions += 1
        return Counted(self.a - other.a)

    def __mul__(self, c):
        return Counted(self.a * c)

    __rmul__ = __mul__


class CountedSplit:
    """y' = L y + E y + sin t on Counted states."""

    def __init__(self):
        self.L = np.array([[-2.0, 1.0], [0.5, -3.0]])
        self.E = np.array([[0.0, 0.3], [-0.3, 0.1]])

    def explicit_tendency(self, y, t):
        return Counted(self.E @ y.a + np.sin(t))

    def implicit_solve(self, shift, r):
        return Counted(np.linalg.solve(np.eye(2) - shift * self.L, r.a))


# the stages whose stiff tendency a later row, or a final weight of a scheme
# that is not stiffly accurate, reads: not the last of ars111 and ars222
READ_STIFF_STAGES = {"ars111": 0, "ars222": 1, "ars233": 2}


@pytest.mark.parametrize("name", sorted(READ_STIFF_STAGES))
def test_unread_stiff_tendency_is_never_formed(name):
    # the stepper subtracts (Q - r) only for the stiff tendencies it reads,
    # and its steps equal the formula that forms every one of them
    tab = tableau(name)
    assert tab.stiff_read.sum() == READ_STIFF_STAGES[name]
    pair = CountedSplit()
    y = z = Counted(np.array([1.0, -0.5]))
    for k in range(4):
        Counted.subtractions = 0
        y = step(pair, y, 0.1 * k, 0.1, tab)
        assert Counted.subtractions == READ_STIFF_STAGES[name], k
        z = oracles.imex_step_every_stage(pair, z, 0.1 * k, 0.1, tab)
        assert np.array_equal(y.a, z.a), k


# real fields, whose in-place += and *= the stepper uses: a nonlinear
# periodic case, a linear-mode case on walls, and the explicit control
FIELD_SETUPS = {
    "nonlinear": ("case.name = mms_nonlinear\nmesh.nx = 4\nmesh.ny = 4\n", False),
    "linear": ("case.name = standing_wave\ncase.linear_mode = true\nmesh.nx = 4\nmesh.ny = 3\n", False),
    "control": ("case.name = standing_wave\nmesh.nx = 4\nmesh.ny = 3\n", True),
}


@pytest.mark.parametrize("name", scheme_names())
@pytest.mark.parametrize("setup", sorted(FIELD_SETUPS))
def test_step_on_fields_matches_every_stage_formula_bitwise(setup, name):
    text, control = FIELD_SETUPS[setup]
    dt = 0.01
    times = f"time.scheme = {name}\ntime.dt = {dt}\ntime.t_final = {3 * dt}\n"
    sim = build_simulation(parse_text(text + "disc.order = 2\n" + times))
    pair = sim.operator(explicit_control=control)
    y = z = sim.initial_field()
    for k in range(3):
        y = step(pair, y, k * dt, dt, sim.tab)
        z = oracles.imex_step_every_stage(pair, z, k * dt, dt, sim.tab)
        assert y.data.tobytes() == z.data.tobytes(), k


class Snapshots(CountedSplit):
    """CountedSplit on NumPy arrays.  Keeps every explicit tendency it
    returns, every right-hand side it is given and every stage it returns,
    each with a copy of its bytes at that moment."""

    def __init__(self, identity, linear):
        super().__init__()
        self.identity = identity
        self.linear = linear
        self.seen = []

    def keep(self, a):
        self.seen.append((a, a.tobytes()))
        return a

    def explicit_tendency(self, y, t):
        return None if self.linear else self.keep(self.E @ y + np.sin(t))

    def implicit_solve(self, shift, r):
        self.keep(r)
        return r if self.identity else self.keep(np.linalg.solve(np.eye(2) - shift * self.L, r))


@pytest.mark.parametrize("name", scheme_names())
@pytest.mark.parametrize("identity,linear", [(False, False), (False, True), (True, False)])
def test_step_writes_no_array_it_did_not_make(name, identity, linear):
    # the caller's q, the explicit tendencies, the right-hand sides handed
    # to the solve and the stages it returns keep their bytes; an identity
    # solve (the explicit control's) returns the right-hand side itself
    pair = Snapshots(identity, linear)
    q = np.array([1.0, -0.5])
    before = q.tobytes()
    y = q
    for k in range(3):
        y = step(pair, y, 0.1 * k, 0.1, tableau(name))
    assert q.tobytes() == before
    assert pair.seen
    for a, kept in pair.seen:
        assert a.tobytes() == kept


class Tallied:
    """An array state that counts the fresh states its arithmetic makes
    apart from its in-place updates."""

    fresh = 0
    in_place = 0

    def __init__(self, a):
        self.a = a

    def _new(self, a):
        Tallied.fresh += 1
        return Tallied(a)

    def __add__(self, other):
        return self._new(self.a + other.a)

    def __sub__(self, other):
        return self._new(self.a - other.a)

    def __mul__(self, c):
        return self._new(self.a * c)

    __rmul__ = __mul__

    def __iadd__(self, other):
        Tallied.in_place += 1
        self.a += other.a
        return self

    def __imul__(self, c):
        Tallied.in_place += 1
        self.a *= c
        return self


class TalliedSplit(CountedSplit):
    """CountedSplit on Tallied states; ``linear`` turns the explicit side off."""

    def __init__(self, linear):
        super().__init__()
        self.linear = linear

    def explicit_tendency(self, y, t):
        return None if self.linear else Tallied(self.E @ y.a + np.sin(t))

    def implicit_solve(self, shift, r):
        return Tallied(np.linalg.solve(np.eye(2) - shift * self.L, r.a))


# fresh states a step's stage arithmetic makes, with and without an explicit
# side: one product per weighted term, one difference per stiff tendency
# read.  A chain of fresh sums and products makes twice as many (ars222
# nonlinear, as in mms_p3_64, and ars233 linear, as in
# wave_linear_iterative: 10).
FRESH_PER_STEP = {
    ("ars111", False): 1,
    ("ars111", True): 0,
    ("ars222", False): 5,
    ("ars222", True): 2,
    ("ars233", False): 10,
    ("ars233", True): 5,
}


@pytest.mark.parametrize("name,linear", sorted(FRESH_PER_STEP))
def test_stage_arithmetic_makes_one_fresh_state_per_term(name, linear):
    pair = TalliedSplit(linear)
    y = Tallied(np.array([1.0, -0.5]))
    for k in range(3):
        Tallied.fresh = Tallied.in_place = 0
        y = step(pair, y, 0.1 * k, 0.1, tableau(name))
        expected = FRESH_PER_STEP[name, linear]
        assert (Tallied.fresh, Tallied.in_place) == (expected, expected), k


def test_ars222_additive_order_two():
    # measured over the fixed step sequence against the exact exponential
    pair = ScalarSplit(-10.0, -0.5)
    exact = np.exp(-10.5)
    errs = [abs(_march(pair, tableau("ars222"), 1.0, dt, 1.0) - exact)
            for dt in (0.1, 0.05, 0.025, 0.0125)]
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert abs(np.mean(rates) - 2.0) <= 0.1


@pytest.mark.parametrize(
    "name,dts",
    [
        ("ars111", (0.0125, 0.00625, 0.003125, 0.0015625)),
        ("ars222", (0.1, 0.05, 0.025, 0.0125)),
        ("ars233", (0.0125, 0.00625, 0.003125, 0.0015625)),
    ],
)
def test_nominal_orders_on_additive_scalar_problem(name, dts):
    pair = ScalarSplit(-10.0, -0.5)
    exact = np.exp(-10.5)
    tab = tableau(name)
    errs = [abs(_march(pair, tab, 1.0, dt, 1.0) - exact) for dt in dts]
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert abs(np.mean(rates) - tab.order) <= 0.15, (name, rates)


def test_linear_only_consistency_with_direct_dirk():
    # with N = 0 the stepper must reproduce the implicit tableau exactly
    L = np.array([[-2.0, 1.0], [0.5, -3.0]])
    pair = MatrixImplicit(L)
    y0 = np.array([1.0, -0.5])
    dt = 0.2
    eye = np.eye(2)
    for name in scheme_names():
        tab = tableau(name)
        y = y0.copy()
        z = y0.copy()
        for k in range(5):
            y = step(pair, y, k * dt, dt, tab)
            # direct DIRK implementation of the implicit tableau
            stages = []
            for i in range(tab.stages):
                rhs = z.copy()
                for j, zj in enumerate(stages):
                    if tab.A_im[i, j] != 0.0:
                        rhs = rhs + dt * tab.A_im[i, j] * (L @ zj)
                gam = tab.A_im[i, i]
                zi = np.linalg.solve(eye - dt * gam * L, rhs) if gam != 0.0 else rhs
                stages.append(zi)
            z = z + dt * sum(b * (L @ zi) for b, zi in zip(tab.b_im, stages))
        assert np.max(np.abs(y - z)) < 1e-12, name


def test_solver_failure_annotated_with_stage():
    class Failing:
        def explicit_tendency(self, y, t):
            return 0.0

        def implicit_solve(self, shift, r):
            raise SolverFailureError("backend exploded", residual=1.0)

    with pytest.raises(SolverFailureError) as err:
        step(Failing(), 1.0, 0.0, 0.1, tableau("ars222"))
    assert "stage 1" in str(err.value)


def test_tableau_weighting_an_unformed_stiff_tendency_is_refused():
    # a contrived tableau whose second row and final weights read the
    # stiff tendency of stage 0, which the stepper never forms: its
    # implicit diagonal is zero
    with pytest.raises(InvalidArgumentError, match="zero implicit diagonal"):
        ImexTableau(
            name="unformed",
            A_ex=np.array([[0.0, 0.0], [1.0, 0.0]]),
            b_ex=np.array([1.0, 0.0]),
            A_im=np.array([[0.0, 0.0], [0.5, 0.5]]),
            b_im=np.array([0.5, 0.5]),
            order=1,
        )


def test_pde_run_triggers_single_factorization():
    params = ModelParams(phi_bar=1.0)
    mesh = build_structured(4, 4, (0.0, 1.0, 0.0, 1.0), "wall", "wall")
    basis = nodal_basis(1)
    bank = ImplicitSolverBank(mesh, basis, params)
    pair = SplitOperator(ExplicitOperator(mesh, basis), bank, params)
    tab = tableau("ars222")
    q = StateField(np.zeros((16, 2, 2, 3)), mesh, basis)
    q.data[..., 0] = 1e-3
    for k in range(100):
        q = step(pair, q, k * 0.01, 0.01, tab)
    assert bank.num_assemblies == 1


@given(
    f0=st.floats(-5.0, 5.0),
    beta=st.floats(-5.0, 5.0),
    drag=st.floats(0.0, 5.0),
    p=st.integers(1, 2),
    scheme=st.sampled_from(["ars111", "ars222", "ars233"]),
)
@settings(max_examples=15)
def test_lake_at_rest_stays_exactly_at_rest(f0, beta, drag, p, scheme):
    params = ModelParams(phi_bar=1.0, f0=f0, beta=beta, drag=drag)
    case = lake_at_rest(params)
    mesh = build_structured(3, 2, case.bounds, case.bc_x, case.bc_y)
    basis = nodal_basis(p)
    pair = SplitOperator(ExplicitOperator(mesh, basis), ImplicitSolverBank(mesh, basis, params), params)
    q = nodal_field(mesh, basis, case.initial_state)
    tab = tableau(scheme)
    for k in range(3):
        q = step(pair, q, 0.05 * k, 0.05, tab)
    assert not np.any(q.data)
