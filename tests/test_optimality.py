"""First-order optimality certificate for exact_constraints answers, at 50 digits.

A two-step minimizer of the entropy functional E at fixed edge density T1 and
triangle density T2 is a stationary point of L = E - alpha T1 - beta T2
(Kenyon, Radin, Ren & Sadun, J. Stat. Phys. 168 (2017)). With m = (lam, mu),
D = diag(m) and V the 2x2 block values, its Euler-Lagrange equations are

    I'(V_ij) = alpha + 3 beta (V D V)_ij                   (three block values)
    g_1 = g_2,  g_i = 2 sum_j m_j [I(V_ij) - alpha V_ij] - 3 beta (V D V D V)_ii
    T1 = t1,  T2 = t2.

The check works in value coordinates from the returned ansatz alone. It
takes alpha and beta from the mixed and bulk equations and then bounds the
corner-equation residual, the lam-equation residual g_1 - g_2 and both
constraint gaps. A block value that rounds to 0 or 1 sits beyond the last
float inside the box, so there the sign of its residual at that float is
checked instead. Nothing here comes from the solver's own code.
"""

import mpmath
import pytest

from ergraphon import solve_microcanonical

from test_perturb import EXACT_RECORDED, EXACT_STARTS
from test_variational_golden import EXACT

CORNER_TOL = 1e-10
LAM_TOL = 1e-12
CONSTRAINT_TOL = 1e-15
_EDGE = 2.0 ** -53  # 1 - _EDGE is the largest float below 1

# (t1, t2) of every checked answer
TARGETS = sorted(
    {(t1, t1**3 * (1.0 + sign * 1e-4)) for t1, sign in EXACT}
    | {(t1, t1**3 + 3 * t1 * 1e-4 if side == "above" else t1**3 * (1 - 1e-4))
       for t1, side, *_ in EXACT_RECORDED}
    | {(t1, t1**3 + 3 * t1 * eps if side == "above" else t1**3 * (1 - eps))
       for t1, side, eps, _ in EXACT_STARTS}
    | {(t1, t1**3 + 3 * t1 * 1e-8) for t1 in (0.3, 0.7)}
)


def certificate(t1, t2, lam, g11, g12, g22):
    """(corner, lam-equation, T1 gap, T2 gap) residuals at 50 digits.

    The corner entry is the residual I'(v11) - alpha - 3 beta (V D V)_11,
    or, for a corner value that rounds to 0 or 1, the residual at the
    nearest float inside the box with its sign turned so that a KKT-valid
    answer reads <= 0.
    """
    with mpmath.workdps(50):
        t1, t2, lam = mpmath.mpf(t1), mpmath.mpf(t2), mpmath.mpf(lam)
        mu = 1 - lam
        m = (lam, mu)
        v = [[t1 + mpmath.mpf(g11), t1 + mpmath.mpf(g12)],
             [t1 + mpmath.mpf(g12), t1 + mpmath.mpf(g22)]]

        def ent(u):
            return 0 if u in (0, 1) else (u * mpmath.log(u) + (1 - u) * mpmath.log(1 - u)) / 2

        def ent_d(u):
            return mpmath.log(u / (1 - u)) / 2

        w = [[sum(v[i][k] * m[k] * v[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
        beta = (ent_d(v[0][1]) - ent_d(v[1][1])) / (3 * (w[0][1] - w[1][1]))
        alpha = ent_d(v[1][1]) - 3 * beta * w[1][1]
        rhs = alpha + 3 * beta * w[0][0]
        if v[0][0] >= 1:
            corner = ent_d(1 - mpmath.mpf(_EDGE)) - rhs
        elif v[0][0] <= 0:
            corner = rhs - ent_d(mpmath.mpf(_EDGE))
        else:
            corner = ent_d(v[0][0]) - rhs
        g = [2 * sum(m[j] * (ent(v[i][j]) - alpha * v[i][j]) for j in range(2))
             - 3 * beta * sum(v[i][j] * m[j] * w[j][i] for j in range(2))
             for i in range(2)]
        t1_gap = sum(m[i] * m[j] * v[i][j] for i in range(2) for j in range(2)) - t1
        t2_gap = sum(m[i] * v[i][j] * m[j] * w[j][i] for i in range(2) for j in range(2)) - t2
        return corner, g[0] - g[1], t1_gap, t2_gap


def assert_stationary(t1, t2, lam, g11, g12, g22):
    corner, lam_eq, t1_gap, t2_gap = certificate(t1, t2, lam, g11, g12, g22)
    if 0.0 < t1 + g11 < 1.0:
        assert abs(corner) <= CORNER_TOL
    else:
        assert corner <= 0
    assert abs(lam_eq) <= LAM_TOL
    assert abs(t1_gap) <= CONSTRAINT_TOL
    assert abs(t2_gap) <= CONSTRAINT_TOL


@pytest.mark.parametrize("t1, t2", TARGETS)
def test_exact_constraints_answer_is_stationary(t1, t2):
    a = solve_microcanonical(t1, t2, mode="exact_constraints").ansatz
    assert_stationary(t1, t2, a.lam, a.g11, a.g12, a.g22)
