"""Small deterministic minimization helpers.

No derivatives and no randomness: bracketed 1-D search (golden section,
grid scan then golden section), so results are reproducible bit-for-bit
across runs and platforms.
"""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo, hi, xtol=1e-10, max_iter=200):
    """Minimize a unimodal scalar function on [lo, hi].

    Returns (x, f(x), iterations). The bracket shrinks by the golden ratio
    per iteration, so ~60 iterations reach xtol=1e-10 on unit-size brackets.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while abs(b - a) > xtol and it < max_iter:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        it += 1
    x = 0.5 * (a + b)
    return x, f(x), it


def grid_refine_min(f, xs, xtol=1e-10, f_vec=None):
    """Scan the sorted grid ``xs``, then golden-section refine the best cell.

    ``f_vec``, if given, evaluates f on a numpy array (used for the scan);
    ``f`` is the scalar version used in the refinement. Returns
    (x, value, iterations, n_local_minima) where the last entry counts the
    strict interior local minima seen on the grid.
    """
    vals = f_vec(xs) if f_vec is not None else np.array([f(x) for x in xs])
    i = int(np.argmin(vals))
    interior = (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
    n_min = int(np.count_nonzero(interior))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, len(xs) - 1)]
    x, fx, it = golden_section_min(f, a, b, xtol=xtol)
    return x, fx, it, n_min


def loglog_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
