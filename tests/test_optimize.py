"""nelder_mead against scipy's Nelder-Mead as the oracle: equal vertex,
value and iteration count, compared with ==."""

import math

import pytest
from scipy.optimize import minimize

from ergraphon import perturb, solve_microcanonical
from ergraphon.optimize import nelder_mead

from test_perturb import EXACT_RECORDED


def scipy_nelder_mead(f, x0):
    res = minimize(f, x0, method="Nelder-Mead",
                   options=dict(xatol=1e-12, fatol=1e-15, maxiter=3000))
    return tuple(res.x), res.fun, res.nit


def assert_same_as_scipy(f, x0):
    got = nelder_mead(f, x0)
    want = scipy_nelder_mead(f, x0)
    assert got == want
    return got


def rosenbrock(x):
    return sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(x[:-1], x[1:]))


def walled(x):
    # the quadratic's minimum lies beyond the wall, so the search ends on it
    if not -0.5 < x[0] < 0.8 or not -1.0 < x[1] < 1.0:
        return 1e9
    return (x[0] - 1.0) ** 2 + (x[1] - 0.3) ** 2


@pytest.mark.parametrize("x0", [(-1.2, 1.0), (0.0, 0.0), (-1.2, 1.0, 0.5)])
def test_rosenbrock(x0):
    x, fun, nit = assert_same_as_scipy(rosenbrock, x0)
    assert fun < 1e-20 and nit < 3000


@pytest.mark.parametrize("x0", [(0.1, 0.0), (0.0, -0.9), (0.9, 0.0)])
def test_walled_objective(x0):
    # (0.9, 0): every vertex of the first simplex sits on the wall, so the
    # order among equal values decides the moves
    assert_same_as_scipy(walled, x0)


def stairs(x):
    # flat terraces: reflection and expansion often tie, and a tie keeps
    # the reflected point
    return math.floor(4.0 * abs(x[0] - 1.0)) + math.floor(4.0 * abs(x[1] - 0.3))


@pytest.mark.parametrize("x0", [(3.0, -2.0), (-1.2, 1.0)])
def test_staircase_objective(x0):
    assert_same_as_scipy(stairs, x0)


def drifting():
    # a value that changes on every call never meets the f tolerance
    calls = []

    def f(x):
        calls.append(x)
        return (x[0] - 1.0) ** 2 + x[1] ** 2 - 1e-6 * len(calls)

    return f


def test_stops_at_iteration_cap():
    x, fun, nit = nelder_mead(drifting(), (0.0, 0.0))
    assert nit == 3000
    assert (x, fun, nit) == scipy_nelder_mead(drifting(), (0.0, 0.0))


@pytest.mark.parametrize("t1, side", [r[:2] for r in EXACT_RECORDED])
def test_solver_objective(monkeypatch, t1, side):
    runs = []

    def both(f, x0):
        got = nelder_mead(f, x0)
        runs.append((got, scipy_nelder_mead(f, x0)))
        return got

    monkeypatch.setattr(perturb, "nelder_mead", both)
    eps = 1e-4
    t2 = t1**3 + 3 * t1 * eps if side == "above" else t1**3 * (1 - eps)
    solve_microcanonical(t1, t2, mode="exact_constraints")
    assert len(runs) == 4
    for got, want in runs:
        assert got == want
