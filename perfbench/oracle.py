"""Reference values the benchmark checks the library's outputs against.

Nothing here imports ergraphon. Exact ensembles are re-derived by a
per-mask brute force that orders vertex pairs colexicographically (the
library orders them lexicographically), so an indexing slip in either
enumerator cannot cancel out. Canonical means come from the resulting
(edges, triangles) histogram, and the Metropolis check for theta2 = 0
uses the closed-form variance of the edge-count chain.
"""

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

# Omega(8; 14, t) from a one-off colex brute force over all 2^28 masks with
# 14 edges, cross-checked against ergraphon.count_constrained.
RECORDED_N8 = {
    (14, 6): 10445400,
    (14, 7): 8466240,
    (14, 8): 4825800,
    (14, 9): 2204160,
}


def _bit(i: int, j: int) -> int:
    """Colex index of the pair i < j."""
    return j * (j - 1) // 2 + i


@lru_cache(maxsize=4)
def histogram(n: int) -> dict:
    """{(edges, triangles): number of labelled graphs} for n <= 7, per mask."""
    if not 1 <= n <= 7:
        raise ValueError(f"brute force covers 1 <= n <= 7, got {n}")
    m = n * (n - 1) // 2
    masks = np.arange(1 << m, dtype=np.uint32)
    edges = np.zeros(masks.size, dtype=np.uint8)
    for b in range(m):
        edges += ((masks >> np.uint32(b)) & np.uint32(1)).astype(np.uint8)
    tris = np.zeros(masks.size, dtype=np.uint8)
    for i, j, k in combinations(range(n), 3):
        tm = np.uint32((1 << _bit(i, j)) | (1 << _bit(i, k)) | (1 << _bit(j, k)))
        tris += (masks & tm) == tm
    width = math.comb(n, 3) + 1
    cells = np.bincount(edges.astype(np.int64) * width + tris, minlength=(m + 1) * width)
    return {(k // width, k % width): int(cells[k]) for k in np.flatnonzero(cells).tolist()}


def omega(n: int, edges: int, triangles: int) -> int:
    return histogram(n).get((edges, triangles), 0)


def canonical(n: int, theta) -> tuple:
    """(psi_n, (mean t1, mean t3)) of the canonical ensemble, from the histogram."""
    th1, th2 = float(theta[0]), float(theta[1])
    cells = histogram(n)
    e = np.array([c[0] for c in cells], dtype=float)
    t = np.array([c[1] for c in cells], dtype=float)
    logn = np.log(np.array(list(cells.values()), dtype=float))
    h = logn + 2.0 * th1 * e + (6.0 / n) * th2 * t
    hmax = float(h.max())
    w = np.exp(h - hmax)
    z = float(w.sum())
    psi = (hmax + math.log(z)) / n ** 2
    w /= z
    return psi, (float(w @ (2.0 * e / n ** 2)), float(w @ (6.0 * t / n ** 3)))


def _hull(points) -> list:
    """Convex hull, counter-clockwise, by the monotone chain."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@lru_cache(maxsize=4)
def interior_classes(n: int) -> frozenset:
    """Classes strictly inside the convex hull of all (edges, triangles).

    Canonical means fill exactly that open hull, so these are the classes
    whose multipliers exist; a class on the hull makes calibration diverge.
    """
    cells = list(histogram(n))
    hull = _hull(cells)
    inside = set()
    for p in cells:
        if all((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) > 0
               for a, b in zip(hull, hull[1:] + hull[:1])):
            inside.add(p)
    return frozenset(inside)


def logistic_edge_se(n: int, theta1: float, steps: int) -> tuple:
    """(p, standard error) of a theta2 = 0 chain's mean edge fraction.

    With theta2 = 0 the edge count C is a birth-death chain: a uniform
    pair is proposed, an absent edge is added with probability
    a = min(1, e^(2 theta1)) and a present one removed with
    b = min(1, e^(-2 theta1)). Its stationary law is Binomial(N, p) with
    p = a/(a+b), and E[C' - mu | C] = lam (C - mu) with lam = 1 - (a+b)/N,
    so Cov(C_s, C_{s+k}) = N p (1-p) lam^k exactly. The standard error of
    the mean over ``steps`` recorded states follows in closed form.
    """
    npairs = n * (n - 1) // 2
    a = min(1.0, math.exp(2.0 * theta1))
    b = min(1.0, math.exp(-2.0 * theta1))
    p = a / (a + b)
    lam = 1.0 - (a + b) / npairs
    t = float(steps)
    lag_sum = lam * (t * (1.0 - lam) - (1.0 - lam ** steps)) / (1.0 - lam) ** 2
    var = p * (1.0 - p) / npairs * (t + 2.0 * lag_sum) / (t * t)
    return p, math.sqrt(var)
