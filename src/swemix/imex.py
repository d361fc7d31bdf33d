"""Additive implicit-explicit Runge-Kutta tableaux and the coupled stage loop.

A scheme is a pair of Butcher tableaux with shared abscissae: a strictly
lower-triangular explicit table applied to the non-stiff operator N and a
diagonally implicit table applied to the stiff linear operator G.  Stage
zero is the step's initial state (first rows are zero), the convention of
the Ascher-Ruuth-Spiteri family shipped here.

The stepper is generic over a "split operator pair": any object with

    explicit_tendency(q, t)      -> N(q, t)
    implicit_solve(shift, r)     -> q solving  q - shift * G(q) = r

States only need +, -, and scalar multiplication, so plain numbers, numpy
arrays, and StateField all work; the stepper updates the sums it owns
with += and *=, which fall back to + and * for a state without them.  A
tendency has the shape and type of its state.  An explicit tendency of
None means N is identically zero there, and the stepper adds no term for
it.  After an implicit stage the stiff tendency is recovered
algebraically as (Q - r) / shift instead of reapplying the operator,
which keeps it exactly consistent with the solver's view of the operator;
it is formed only if a later row or a final weight reads it.  Building
an ImexTableau therefore refuses one that weights the stiff tendency of a
stage with a zero implicit diagonal; the shipped ARS tableaux never do.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError, SolverFailureError, UnknownSchemeError

_TOL = 1e-14


@dataclass(frozen=True)
class ImexTableau:
    """A scheme's two tableaux as read-only float arrays, checked when built."""

    name: str
    A_ex: np.ndarray
    b_ex: np.ndarray
    A_im: np.ndarray
    b_im: np.ndarray
    order: int

    def __post_init__(self):
        for field in ("A_ex", "b_ex", "A_im", "b_im"):
            table = np.array(getattr(self, field), dtype=float)
            table.flags.writeable = False
            object.__setattr__(self, field, table)
        s = self.stages
        for label, A, b in (("explicit", self.A_ex, self.b_ex), ("implicit", self.A_im, self.b_im)):
            if A.shape != (s, s) or b.shape != (s,):
                raise InvalidArgumentError(f"{self.name}: inconsistent {label} tableau shapes")
            if abs(np.sum(b) - 1.0) > _TOL:
                raise InvalidArgumentError(f"{self.name}: {label} weights do not sum to 1")
        if np.any(np.triu(self.A_ex) != 0.0):
            raise InvalidArgumentError(f"{self.name}: explicit table must be strictly lower triangular")
        if np.any(np.triu(self.A_im, 1) != 0.0):
            raise InvalidArgumentError(f"{self.name}: implicit table must be lower triangular")
        # a stiffly accurate scheme's b_im is its last row: checking it refuses no more
        weights = np.vstack([np.tril(self.A_im, -1), self.b_im])
        if np.any(weights[:, np.diagonal(self.A_im) == 0.0] != 0.0):
            raise InvalidArgumentError(
                f"{self.name}: weights the stiff tendency of a stage with a zero "
                "implicit diagonal, which the stepper never forms"
            )

    @property
    def stages(self):
        return self.b_ex.size

    @cached_property
    def c_ex(self):
        return self.A_ex.sum(axis=1)

    @cached_property
    def c_im(self):
        return self.A_im.sum(axis=1)

    @cached_property
    def stiffly_accurate(self):
        """The last row of each A is its b, so the step's result is the last
        stage."""
        return bool(np.array_equal(self.A_ex[-1], self.b_ex) and np.array_equal(self.A_im[-1], self.b_im))

    @cached_property
    def stiff_read(self):
        """Per stage, whether a later row or, unless the scheme is stiffly
        accurate, a final weight reads its stiff tendency."""
        final = np.zeros(self.stages, bool) if self.stiffly_accurate else self.b_im != 0.0
        return np.tril(self.A_im, -1).any(axis=0) | final


_G222 = 1.0 - np.sqrt(2.0) / 2.0
_D222 = 1.0 - 1.0 / (2.0 * _G222)
_G233 = (3.0 + np.sqrt(3.0)) / 6.0

_SCHEMES = {
    "ars111": dict(
        A_ex=[[0.0, 0.0], [1.0, 0.0]],
        b_ex=[1.0, 0.0],
        A_im=[[0.0, 0.0], [0.0, 1.0]],
        b_im=[0.0, 1.0],
        order=1,
    ),
    "ars222": dict(
        A_ex=[[0.0, 0.0, 0.0], [_G222, 0.0, 0.0], [_D222, 1.0 - _D222, 0.0]],
        b_ex=[_D222, 1.0 - _D222, 0.0],
        A_im=[[0.0, 0.0, 0.0], [0.0, _G222, 0.0], [0.0, 1.0 - _G222, _G222]],
        b_im=[0.0, 1.0 - _G222, _G222],
        order=2,
    ),
    "ars233": dict(
        A_ex=[[0.0, 0.0, 0.0], [_G233, 0.0, 0.0], [_G233 - 1.0, 2.0 * (1.0 - _G233), 0.0]],
        b_ex=[0.0, 0.5, 0.5],
        A_im=[[0.0, 0.0, 0.0], [0.0, _G233, 0.0], [0.0, 1.0 - 2.0 * _G233, _G233]],
        b_im=[0.0, 0.5, 0.5],
        order=3,
    ),
}


def scheme_names():
    return sorted(_SCHEMES)


def tableau(name):
    """Build a fresh, checked tableau of a shipped scheme by name."""
    try:
        coefficients = _SCHEMES[name]
    except KeyError:
        raise UnknownSchemeError(
            f"unknown scheme {name!r}; available: {', '.join(scheme_names())}"
        ) from None
    return ImexTableau(name, **coefficients)


@dataclass(frozen=True)
class ConditionCheck:
    label: str
    order: int
    residual: float

    @property
    def ok(self):
        return self.residual <= 1e-13


def check_order_conditions(tab, up_to_order):
    """Evaluate the additive order conditions through the requested order.

    Order 1 checks the weight sums; order 2 all four b.c pairings across
    the two tableaux; order 3 every mixed b.(c*c) = 1/3 and b.(A c) = 1/6
    combination.  Returns one ConditionCheck per condition.
    """
    if up_to_order > 3:
        raise InvalidArgumentError("order conditions implemented up to order 3")
    b = {"ex": tab.b_ex, "im": tab.b_im}
    c = {"ex": tab.c_ex, "im": tab.c_im}
    A = {"ex": tab.A_ex, "im": tab.A_im}
    checks = []
    for k in ("ex", "im"):
        checks.append(ConditionCheck(f"sum(b_{k}) = 1", 1, abs(np.sum(b[k]) - 1.0)))
    if up_to_order >= 2:
        for bk in ("ex", "im"):
            for ck in ("ex", "im"):
                checks.append(
                    ConditionCheck(
                        f"b_{bk}.c_{ck} = 1/2", 2, abs(np.dot(b[bk], c[ck]) - 0.5)
                    )
                )
    if up_to_order >= 3:
        for bk in ("ex", "im"):
            for c1, c2 in (("ex", "ex"), ("ex", "im"), ("im", "im")):
                checks.append(
                    ConditionCheck(
                        f"b_{bk}.(c_{c1}*c_{c2}) = 1/3",
                        3,
                        abs(np.dot(b[bk], c[c1] * c[c2]) - 1.0 / 3.0),
                    )
                )
            for ak in ("ex", "im"):
                for ck in ("ex", "im"):
                    checks.append(
                        ConditionCheck(
                            f"b_{bk}.(A_{ak} c_{ck}) = 1/6",
                            3,
                            abs(np.dot(b[bk], A[ak] @ c[ck]) - 1.0 / 6.0),
                        )
                    )
    return checks


def step(pair, q, t, dt, tab):
    """Advance one IMEX step of size dt from state q at time t.

    Every stage sum and stiff tendency the step forms owns its array and
    is updated in place; q, the explicit tendencies and the stiff
    tendencies are only read, so the caller's q keeps its values.
    """
    s = tab.stages
    stage_q = [None] * s
    stage_n = {}
    stage_g = [None] * s

    def explicit(j):
        if j not in stage_n:
            stage_n[j] = pair.explicit_tendency(stage_q[j], t + tab.c_ex[j] * dt)
        return stage_n[j]

    def weighted_sum(w_ex, w_im):
        """q + dt sum_j (w_ex[j] N_j + w_im[j] G_j), added term by term in
        stage order; a zero weight skips its term, so an explicit tendency
        no weight uses is never evaluated, and so does a None tendency.

        The sum owns its array: it starts as the first term's product, q
        is added into it (fl(c t + q) = fl(q + c t)) and every later term
        is added in place.  q and the tendencies are only read; with no
        term the sum is q itself."""
        r = None
        for j, (a_ex, a_im) in enumerate(zip(w_ex, w_im)):
            n = explicit(j) if a_ex != 0.0 else None
            g = stage_g[j] if a_im != 0.0 else None
            for a, term in ((a_ex, n), (a_im, g)):
                if term is None:
                    continue
                if r is None:
                    r = (dt * a) * term
                    r += q
                else:
                    r += (dt * a) * term
        return q if r is None else r

    for i in range(s):
        r = None  # free the last stage's right-hand side before this one is summed
        r = weighted_sum(tab.A_ex[i, :i], tab.A_im[i, :i])
        shift = tab.A_im[i, i]
        if shift != 0.0:
            try:
                stage_q[i] = pair.implicit_solve(shift * dt, r)
            except SolverFailureError as exc:
                raise exc.with_context(f"stage {i} of {tab.name}") from exc
            if tab.stiff_read[i]:
                g = stage_q[i] - r
                g *= 1.0 / (shift * dt)
                stage_g[i] = g
        else:
            stage_q[i] = r

    if tab.stiffly_accurate:
        return stage_q[s - 1]
    return weighted_sum(tab.b_ex, tab.b_im)
