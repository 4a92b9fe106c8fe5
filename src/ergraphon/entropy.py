"""Scalar entropy calculus for constrained-graphon problems.

The central object is the (negative) Bernoulli entropy

    I(u) = (1/2) [ u log u + (1-u) log(1-u) ],   u in [0, 1],

with natural logarithms and the convention 0 log 0 = 0, so I(0) = I(1) = 0
and I <= 0 on [0, 1]. Its derivatives have the closed forms

    I'(u)     = (1/2) log(u / (1-u)),
    I^(k)(u)  = ((k-2)!/2) [ (-1)^k / u^(k-1) + 1 / (1-u)^(k-1) ],  k >= 2.

On top of I we expose two quotient functions that control the entropy cost
of hitting a triangle density slightly below u^3 at fixed edge density u:

* ``bregman_quotient(t1, x)``: the second-order Bregman remainder of I at
  t1, scaled by t1^2 / x^2. Its infimum over x in (-t1, 0) is the epsilon^(2/3)
  rate constant of the cost when t1 > 1/2.
* ``block_entropy_rate(t1, c)``: the same quantity in the variable c = -t1/x,
  which is the natural parameter for a shrinking block of relative measure
  c * epsilon^(1/3). The two are related by an exact substitution.

All functions are pure and operate on Python floats; vectorized private
helpers exist for the dense scans used by the minimizers.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .optimize import grid_refine_min

__all__ = [
    "bernoulli_entropy",
    "bernoulli_entropy_deriv",
    "bregman_quotient",
    "bregman_quotient_limit",
    "bregman_quotient_min",
    "block_entropy_rate",
    "entropy_taylor_gap",
    "entropy_taylor_gap_series",
    "QuotientMin",
]

_MAX_DERIV_ORDER = 170  # (k-2)! overflows float64 shortly beyond this


def bernoulli_entropy(u: float) -> float:
    """I(u) = (1/2)[u log u + (1-u) log(1-u)]; exactly 0 at u = 0 and u = 1."""
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"bernoulli_entropy needs u in [0, 1], got {u!r}")
    if u == 0.0 or u == 1.0:
        return 0.0
    return 0.5 * (u * math.log(u) + (1.0 - u) * math.log(1.0 - u))


def bernoulli_entropy_deriv(u: float, k: int = 1) -> float:
    """k-th derivative of the Bernoulli entropy at u in (0, 1).

    k = 1 gives (1/2) log(u/(1-u)); for k >= 2 the closed form
    ((k-2)!/2) [(-1)^k u^(1-k) + (1-u)^(1-k)] is used. Orders above 170
    are rejected because the factorial overflows double precision.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"derivative order must be an integer >= 1, got {k!r}")
    if not 0.0 < u < 1.0:
        raise DomainError(f"derivatives of I need u in (0, 1), got {u!r}")
    if k > _MAX_DERIV_ORDER:
        raise DomainError(f"derivative order {k} exceeds the float64 cap {_MAX_DERIV_ORDER}")
    if k == 1:
        return 0.5 * math.log(u / (1.0 - u))
    sign = 1.0 if k % 2 == 0 else -1.0
    fact = float(math.factorial(k - 2))
    return 0.5 * fact * (sign / u ** (k - 1) + 1.0 / (1.0 - u) ** (k - 1))


def _logistic(x):
    """1/(1 + e^-x) without overflow, for a real (via math.exp) or complex x."""
    exp = cmath.exp if isinstance(x, complex) else math.exp
    if x.real >= 0.0:
        return 1.0 / (1.0 + exp(-x))
    e = exp(x)
    return e / (1.0 + e)


def _entropy_vec(u: np.ndarray) -> np.ndarray:
    """Vectorized I(u) for u in [0, 1], endpoints mapped to exact 0.

    When every entry is interior (the common case) the formula runs on the
    array as it is, with no mask. Otherwise each entry outside (0, 1) is
    evaluated at u = 1 - u = 1, where the formula gives exactly 0.
    """
    u = np.asarray(u, dtype=float)
    w = 1.0 - u
    if not (u.size and u.min() > 0.0 and w.min() > 0.0):
        inner = (u > 0.0) & (w > 0.0)
        u, w = np.where(inner, u, 1.0), np.where(inner, w, 1.0)
    return _entropy_interior(u, w)


def _entropy_interior(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorized I(u) given w = 1 - u, with every entry of u in (0, 1); no test is made."""
    return 0.5 * (u * np.log(u) + w * np.log(w))


class QuotientMin(NamedTuple):
    x: float      # interior minimizer, in (-t1, 0)
    value: float  # minimum of the quotient


def _check_quotient_args(t1: float, x: float) -> None:
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    if not -t1 < x < 0.0:
        raise DomainError(f"need x in (-t1, 0), got x={x!r} for t1={t1!r}")


def bregman_quotient(t1: float, x: float) -> float:
    """t1^2 [I(t1+x) - I(t1) - I'(t1) x] / x^2 for x in (-t1, 0).

    Strictly positive on its domain since I is strictly convex. The limit
    x -> 0 is ``bregman_quotient_limit(t1)``; x = 0 itself is rejected.
    """
    _check_quotient_args(t1, x)
    gap = (
        bernoulli_entropy(t1 + x)
        - bernoulli_entropy(t1)
        - bernoulli_entropy_deriv(t1, 1) * x
    )
    return t1 * t1 * gap / (x * x)


def bregman_quotient_limit(t1: float) -> float:
    """Limit of the quotient as x -> 0: (1/2) t1^2 I''(t1) = t1 / (4(1-t1))."""
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    return t1 / (4.0 * (1.0 - t1))


def _bregman_quotient_vec(t1: float, xs: np.ndarray) -> np.ndarray:
    i_t1 = bernoulli_entropy(t1)
    ip_t1 = bernoulli_entropy_deriv(t1, 1)
    gap = _entropy_vec(t1 + xs) - i_t1 - ip_t1 * xs
    return t1 * t1 * gap / (xs * xs)


def bregman_quotient_min(t1: float, xtol: float = 1e-10) -> QuotientMin:
    """Interior global minimum of x |-> bregman_quotient(t1, x) for t1 > 1/2.

    The scan/refine scheme first samples the quotient on a 1e-4-step grid
    over (-t1, 0) to locate (and count) local minima, then polishes the best
    bracket by golden section down to |dx| < xtol. For t1 <= 1/2 the quotient
    has no interior minimum below its x -> 0 limit, and a DomainError is
    raised rather than returning the boundary value.
    """
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    if t1 <= 0.5:
        raise DomainError(
            f"no interior minimum below the x->0 limit for t1={t1!r} <= 1/2; "
            f"the infimum is the limit value {bregman_quotient_limit(t1)!r}"
        )
    delta = 1e-9
    lo, hi = -t1 + delta, -delta
    num = max(int((hi - lo) / 1e-4), 64) + 1
    x, val, _, n_min = grid_refine_min(
        lambda x: bregman_quotient(t1, x),
        np.linspace(lo, hi, num),
        xtol=xtol,
        f_vec=lambda xs: _bregman_quotient_vec(t1, xs),
    )
    if n_min > 1:
        raise DomainError(
            f"quotient at t1={t1!r} shows {n_min} grid-level local minima; "
            "expected a unique interior minimizer"
        )
    return QuotientMin(x=x, value=val)


def block_entropy_rate(t1: float, c: float) -> float:
    """c^2 [I(t1 - t1/c) - I(t1)] + c t1 I'(t1), the epsilon^(2/3) entropy rate
    of a two-step perturbation whose small block has relative measure
    c * epsilon^(1/3).

    Requires the inner argument t1(1 - 1/c) to lie in [0, 1], i.e. c >= 1.
    Related to ``bregman_quotient`` by the exact substitution
    block_entropy_rate(t1, c) = bregman_quotient(t1, -t1/c) for c > 1.
    """
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    if not c > 0.0:
        raise DomainError(f"need c > 0, got {c!r}")
    inner = t1 - t1 / c
    if not 0.0 <= inner <= 1.0:
        raise DomainError(
            f"inner argument t1(1 - 1/c) = {inner!r} outside [0, 1] for c={c!r}"
        )
    return (
        c * c * (bernoulli_entropy(inner) - bernoulli_entropy(t1))
        + c * t1 * bernoulli_entropy_deriv(t1, 1)
    )


def entropy_taylor_gap(t1: float, y: float) -> float:
    """I(t1-y) - I(t1) + y I'(t1) - (1/2) y^2 I''(t1) for y in (0, t1]."""
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    if not 0.0 < y <= t1:
        raise DomainError(f"need y in (0, t1], got {y!r}")
    return (
        bernoulli_entropy(t1 - y)
        - bernoulli_entropy(t1)
        + y * bernoulli_entropy_deriv(t1, 1)
        - 0.5 * y * y * bernoulli_entropy_deriv(t1, 2)
    )


def entropy_taylor_gap_series(t1: float, y: float, terms: int) -> float:
    """Partial sum sum_{k=3}^{terms} I^(k)(t1) (-y)^k / k!.

    Converges to ``entropy_taylor_gap(t1, y)`` for y < min(t1, 1-t1); the
    term ratio is y/min(t1, 1-t1), so the count needed for a given accuracy
    grows quickly near that radius. Each term is evaluated in the
    overflow-free form [t1 (y/t1)^k + (-1)^k (1-t1) (y/(1-t1))^k] / (2k(k-1)).
    """
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    if not y > 0.0:
        raise DomainError(f"need y > 0, got {y!r}")
    if terms < 3:
        raise DomainError(f"need at least 3 terms, got {terms!r}")
    r1 = y / t1
    r2 = y / (1.0 - t1)
    p1 = r1 ** 3
    p2 = r2 ** 3
    total = 0.0
    for k in range(3, terms + 1):
        sign = 1.0 if k % 2 == 0 else -1.0
        total += (t1 * p1 + sign * (1.0 - t1) * p2) / (2.0 * k * (k - 1))
        p1 *= r1
        p2 *= r2
    return total
