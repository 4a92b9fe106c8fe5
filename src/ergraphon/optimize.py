"""Small deterministic minimization helpers.

No derivatives and no randomness: bracketed 1-D search (golden section,
grid scan then golden section) and a Nelder-Mead simplex search, so results
are reproducible bit-for-bit across runs and platforms.
"""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# stopping rule of nelder_mead: simplex diameter, spread of values, iterations
_NM_XATOL = 1e-12
_NM_FATOL = 1e-15
_NM_MAXITER = 3000


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


def nelder_mead(f, x0):
    """Minimize f over R^n by the Nelder-Mead simplex method from x0.

    The initial simplex is x0 plus, for each k, x0 with coordinate k scaled
    by 1.05 (set to 0.00025 if it is 0). Each iteration reflects the worst
    vertex w through the centroid c of the others to 2c - w, then expands to
    3c - 2w, contracts outside to 1.5c - 0.5w (kept if no worse than the
    reflection) or inside to 0.5c + 0.5w (kept if better than w), or else
    shrinks every vertex halfway toward the best one; the vertices are then
    stably sorted by value. The search stops once every vertex lies within
    1e-12 of the best in each coordinate and every value within 1e-15 of
    the best, or at iteration 3000, counting from 1.

    These are the standard coefficients and initial simplex, in plain floats
    and in the usual reference order of operations; the tests check that the
    iterates equal those of a reference implementation exactly. f receives
    a tuple of floats. Returns (x, f(x), iterations) with x the best vertex
    as a tuple.
    """
    x0 = tuple(float(v) for v in x0)
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0.0 else 0.00025
        sim.append(tuple(y))
    fs = [f(x) for x in sim]

    def order():
        idx = sorted(range(n + 1), key=fs.__getitem__)
        return [sim[i] for i in idx], [fs[i] for i in idx]

    sim, fs = order()
    it = 1
    while it < _NM_MAXITER:
        best = sim[0]
        if (max(abs(a - b) for x in sim[1:] for a, b in zip(x, best)) <= _NM_XATOL
                and max(abs(fs[0] - v) for v in fs[1:]) <= _NM_FATOL):
            break
        worst = sim[-1]
        # the centroid sums the vertices in order, as a numpy reduction does
        tot = sim[0]
        for x in sim[1:-1]:
            tot = tuple(a + b for a, b in zip(tot, x))
        cen = tuple(a / n for a in tot)
        xr = tuple(2.0 * c - w for c, w in zip(cen, worst))
        fr = f(xr)
        if fr < fs[0]:
            xe = tuple(3.0 * c - 2.0 * w for c, w in zip(cen, worst))
            fe = f(xe)
            sim[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fs[-2]:
            sim[-1], fs[-1] = xr, fr
        else:
            if fr < fs[-1]:
                xc = tuple(1.5 * c - 0.5 * w for c, w in zip(cen, worst))
                fc = f(xc)
                keep = fc <= fr
            else:
                xc = tuple(0.5 * c + 0.5 * w for c, w in zip(cen, worst))
                fc = f(xc)
                keep = fc < fs[-1]
            if keep:
                sim[-1], fs[-1] = xc, fc
            else:
                for j in range(1, n + 1):
                    sim[j] = tuple(b + 0.5 * (a - b) for a, b in zip(sim[j], best))
                    fs[j] = f(sim[j])
        it += 1
        sim, fs = order()
    return sim[0], fs[0], it


def loglog_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
