"""Scaling laws of the specific relative entropy near the line t2 = t1^3.

For a fixed edge density t1, the specific relative entropy between the
microcanonical and canonical edge/triangle ensembles vanishes as the
triangle constraint approaches t1^3, but at different speeds on the two
sides:

* approaching from above along t2 = t1^3 + 3 t1 eps, the cost is linear,
      s(eps) = |log(t1/(1-t1)) / (1 - 2 t1)| eps + o(eps);
* approaching from below along t2 = t1^3 (1 - eps), the cost is
      s(eps) = C(t1) eps^(2/3) + o(eps^(2/3)),
  with C(t1) = t1 / (4(1-t1)) for t1 <= 1/2 and C(t1) the interior minimum
  of the Bregman quotient for t1 > 1/2 (strictly smaller, since a shrinking
  corner block is then cheaper than a global split).

The above-line constant is pinned by the optimal vanishing-block
construction itself: its entropy difference *is* the rate, by the
variational reduction s(eps) = J(eps) - I(t1) + O(eps^2). ``curve_sweep``
cross-checks every closed form against the numerically solved variational
problem and fits the local scaling exponents.

In both directions the numeric route is exact desk-scale machinery: the
below-line value comes from the two-step solver, the above-line value from
the explicit optimizer's entropy. Relative entropy is never negative, and
for every t1 the below-line cost dominates the above-line cost at equal
small eps: adding triangles is cheaper than removing them.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import (
    _entropy_vec,
    _logistic,
    bernoulli_entropy,
    bregman_quotient_limit,
    bregman_quotient_min,
)
from .errors import DomainError
from .graphon import _admissible, above_line_graphon, entropy_functional
from .optimize import golden_section_min
from .perturb import _ER_TOL, _below_line_target, solve_microcanonical

__all__ = [
    "ConstraintPair",
    "MultiplierPair",
    "above_line_coefficient",
    "below_line_coefficient",
    "specific_relative_entropy",
    "constant_graphon_sup",
    "region_classify",
    "curve_sweep",
    "CURVE_FIELDS",
]

class MultiplierPair(NamedTuple):
    theta1: float
    theta2: float


@dataclass(frozen=True)
class ConstraintPair:
    """Edge/triangle constraint target with admissibility metadata.

    ``tol`` is the distance from the ER line t2 = t1^3 within which the
    pair counts as on it (``on_er_line``; also the width of the
    triangle-free segment t2 = 0 in ``region_classify``). It defaults to
    the solver's ER tolerance and plays no part in admissibility.
    ``admissible`` is the package's one upper-boundary check,
    t2 <= t1^(3/2) up to rounding slack, shared with ``DensityPair`` and
    ``solve_microcanonical``; the lower boundary of the admissible region
    is out of reach of this package and is deliberately not consulted.
    """

    t1: float
    t2: float
    tol: float = _ER_TOL

    def __post_init__(self):
        if not 0.0 < self.t1 < 1.0:
            raise DomainError(f"need t1 in (0, 1), got {self.t1!r}")
        if not 0.0 <= self.t2 <= 1.0:
            raise DomainError(f"need t2 in [0, 1], got {self.t2!r}")

    @property
    def admissible(self) -> bool:
        return _admissible(self.t1, self.t2)

    @property
    def on_er_line(self) -> bool:
        return abs(self.t2 - self.t1 ** 3) <= self.tol


def above_line_coefficient(t1: float) -> float:
    """Linear rate of the relative entropy for targets t1^3 + 3 t1 eps.

    Equals |log(t1/(1-t1)) / (1 - 2 t1)|, the first-order entropy growth of
    the optimal vanishing-block graphon; strictly positive and symmetric
    under t1 <-> 1-t1. Undefined at t1 = 1/2, where the vanishing-block
    family degenerates.
    """
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    if t1 == 0.5:
        raise DomainError("the above-line rate is undefined at t1 = 1/2")
    return abs(math.log(t1 / (1.0 - t1)) / (1.0 - 2.0 * t1))


def below_line_coefficient(t1: float) -> float:
    """eps^(2/3) rate for targets t1^3 (1 - eps).

    t1/(4(1-t1)) for t1 <= 1/2 (global split); the interior Bregman-quotient
    minimum for t1 > 1/2 (local corner), which is strictly smaller.
    """
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    if t1 <= 0.5:
        return bregman_quotient_limit(t1)
    return bregman_quotient_min(t1).value


def specific_relative_entropy(t1: float, eps: float, side: str) -> float:
    """Numeric J(eps) - I(t1) for the perturbed constraint on the given side.

    side "below" solves the two-step variational problem exactly at target
    t1^3 (1 - eps), with no ER-line tolerance: every eps > 0 is solved, so
    a small eps gives its small positive increment, never a short-circuit
    0. side "above" evaluates the entropy of the explicit optimizer at
    target t1^3 + 3 t1 eps. The O(eps^2) canonical-side correction of the
    variational reduction is dropped. An eps so small that the side's
    target rounds to t1^3 names no target off the line and raises
    DomainError. eps = 0 returns 0 (the unperturbed point is
    ensemble-equivalent).
    """
    if side not in ("above", "below"):
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    if not eps >= 0.0:
        raise DomainError(f"need eps >= 0, got {eps!r}")
    if eps == 0.0:
        return 0.0
    base = bernoulli_entropy(t1)
    if side == "below":
        report = solve_microcanonical(t1, _below_line_target(t1, eps), mode="reduced", er_tol=0.0)
        return report.entropy - base
    if t1 ** 3 + 3.0 * t1 * eps == t1 ** 3:
        raise DomainError(
            f"eps={eps!r} is below the resolution of t1^3 + 3 t1 eps at t1={t1!r}"
        )
    return entropy_functional(above_line_graphon(t1, eps)) - base


def constant_graphon_sup(theta: MultiplierPair) -> tuple:
    """Maximize theta1 u + theta2 u^3 - I(u) over u in [0, 1].

    Returns (u_star, value). A dense grid locates the global basin (the
    objective need not be concave when theta2 != 0), a golden-section search
    narrows it, and Newton steps polish it in x = logit(u), where I'(u) = x/2
    holds exactly; interior maximizers satisfy the stationarity condition
    theta1 + 3 theta2 u^2 = x/2 to 1e-10. The reduction of the
    full graphon supremum to constants is licensed when both multipliers
    are non-negative; this routine computes the constant-class value either
    way and leaves that interpretation to the caller.
    """
    th1, th2 = float(theta[0]), float(theta[1])

    def neg(u):
        return -(th1 * u + th2 * u ** 3 - bernoulli_entropy(u))

    us = np.linspace(0.0, 1.0, 4001)
    inner = us[1:-1]
    vals = th1 * inner + th2 * inner ** 3 - _entropy_vec(inner)
    i = int(np.argmax(vals))
    u_star, _, _ = golden_section_min(neg, us[i], us[i + 2], xtol=1e-13)
    # in u, I'(u) = log(u/(1-u))/2 loses about 8 digits within 1e-8 of 0 or
    # 1; in x the stationarity residual is exact. The objective's second
    # derivative in x, u(1-u) [6 th2 u - I''(u)], is negative at a maximum
    x = math.log(u_star / (1.0 - u_star))
    for _ in range(40):
        u_star = _logistic(x)
        grad = th1 + 3.0 * th2 * u_star ** 2 - 0.5 * x
        curv = 6.0 * th2 * u_star ** 2 * _logistic(-x) - 0.5
        if curv >= 0.0 or abs(grad) < 1e-14:
            break
        x -= grad / curv
    u_star = _logistic(x)
    value = float(-neg(u_star))
    # endpoints carry I = 0; keep them if they dominate the interior polish
    for u_edge in (0.0, 1.0):
        v_edge = th1 * u_edge + th2 * u_edge ** 3
        if v_edge > value:
            u_star, value = u_edge, v_edge
    if 0.0 < u_star < 1.0:
        resid = abs(th1 + 3.0 * th2 * u_star ** 2 - 0.5 * x)
        if resid > 1e-10:
            raise DomainError(f"stationarity residual {resid!r} above 1e-10")
    return u_star, value


def region_classify(pair: ConstraintPair) -> str:
    """Equivalence verdict for a constraint pair.

    Verdicts: "equivalent" on the line t2 = t1^3 or on the triangle-free
    segment (t1 <= 1/2, t2 = 0); "broken" off the line when t2 >= 1/8, or
    when t1 <= 1/2 and 0 < t2 < 1/8; "inadmissible" above the upper
    boundary t2 = t1^(3/2); "unknown" for the remaining admissible region,
    where no verdict is available and none is extrapolated. The unknown
    region includes points below the (uncomputed) lower boundary.

    "Inadmissible" is ``not pair.admissible``. "On the line" is
    ``pair.on_er_line``, and the triangle-free segment has the same width
    ``pair.tol``, so the pair alone decides the verdict.
    """
    t1, t2, tol = pair.t1, pair.t2, pair.tol
    if not pair.admissible:
        return "inadmissible"
    if pair.on_er_line:
        return "equivalent"
    if t1 <= 0.5 and t2 <= tol:
        return "equivalent"
    if t2 >= 0.125:
        return "broken"
    if t1 <= 0.5 and tol < t2 < 0.125:
        return "broken"
    return "unknown"


CURVE_FIELDS = ("t1", "eps", "side", "pred", "numeric", "rel_err", "exponent")


def curve_sweep(t1_list, eps_grid, side: str) -> list:
    """Tabulate closed-form vs numeric relative entropy over a grid.

    Emits one dict per (t1, eps) with the closed-form prediction, the
    numeric value, their relative error, and the local log-log scaling
    exponent between neighbouring eps points (the first point reuses its
    neighbour's slope). side "both" concatenates below and above sweeps.
    For t1 < 1/2 the above-line numeric value is a lower bound for the true
    relative entropy rather than an equality; the tabulated numbers are
    unaffected. The above-line construction needs eps < (1-2 t1)^2 (see
    ``above_line_graphon``), so side "above" or "both" raises
    EpsilonTooLargeError (CLI exit code 2) near t1 = 1/2, for instance at
    eps = 1e-3 for t1 within about 0.016 of 1/2.

    The inputs are checked before the first solve, each failure raising
    DomainError: every t1 in (0, 1), with t1 != 1/2 whenever the above side
    runs (its rate is undefined there), and every eps finite, > 0 and
    distinct (a repeated eps leaves no log-log slope between the two).
    """
    sides = ("below", "above") if side == "both" else (side,)
    if any(s not in ("below", "above") for s in sides):
        raise DomainError(f"side must be 'below', 'above', or 'both', got {side!r}")
    eps_grid = sorted(float(e) for e in eps_grid)
    t1_list = list(t1_list)
    if not eps_grid or not t1_list:
        raise DomainError("t1 list and eps grid must be non-empty")
    for t1 in t1_list:
        if not 0.0 < t1 < 1.0:
            raise DomainError(f"need t1 in (0, 1), got {t1!r}")
        if t1 == 0.5 and "above" in sides:
            raise DomainError("the above-line rate is undefined at t1 = 1/2")
    for e in eps_grid:
        if not 0.0 < e < math.inf:
            raise DomainError(f"need finite eps > 0, got {e!r}")
    for a, b in zip(eps_grid, eps_grid[1:]):
        if a == b:
            raise DomainError(f"eps values must be distinct, got {a!r} twice")
    rows = []
    for s in sides:
        for t1 in t1_list:
            if s == "above":
                coeff = above_line_coefficient(t1)
                preds = [coeff * e for e in eps_grid]
            else:
                coeff = below_line_coefficient(t1)
                preds = [coeff * e ** (2.0 / 3.0) for e in eps_grid]
            numerics = [specific_relative_entropy(t1, e, s) for e in eps_grid]
            logs = np.log(numerics)
            leps = np.log(eps_grid)
            slopes = np.diff(logs) / np.diff(leps)
            for i, e in enumerate(eps_grid):
                expo = slopes[i - 1] if i > 0 else slopes[0] if len(slopes) else float("nan")
                rows.append({
                    "t1": t1,
                    "eps": e,
                    "side": s,
                    "pred": preds[i],
                    "numeric": numerics[i],
                    "rel_err": abs(numerics[i] - preds[i]) / abs(preds[i]),
                    "exponent": float(expo),
                })
    return rows
