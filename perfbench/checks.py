"""Output checks, by routes independent of the code being timed.

``check(task, out)`` returns None when a task's output is right and a short
reason when it is not. Variational answers are re-measured with the block
quadratures ``edge_density``/``triangle_density`` on ``ansatz_graphon`` (the
solver itself works with the K1/K2/K3 algebra). Exact answers are compared
with the benchmark's own colex brute force and recorded n = 8 counts.
Metropolis means are compared with exact canonical means at n = 7 and, for
theta2 = 0, with the independent-edge law.
"""

import math

import oracle

MCMC_K = 6.0       # standard errors a chain mean may sit from the exact value
T1_TOL = 1e-12     # edge density of a returned ansatz vs t1
T2_TOL = 1e-10     # the solver's own residual tolerance, plus rounding
ER_TOL = 1e-9      # targets this close to t1^3 short-circuit to the constant graphon


def _entropy(u: float) -> float:
    return 0.5 * (u * math.log(u) + (1.0 - u) * math.log(1.0 - u))


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _solve(eg, a, out):
    t1, t2 = a["t1"], a["t2"]
    g = eg.ansatz_graphon(t1, eg.PerturbationAnsatz(out["lam"], out["g11"], out["g12"],
                                                    out["g22"]))
    gap1 = abs(eg.edge_density(g) - t1)
    gap2 = abs(eg.triangle_density(g) - t2)
    if gap1 > T1_TOL:
        return f"T1 off by {gap1:.3g}"
    if gap2 > (ER_TOL if out["iterations"] == 0 else T2_TOL) + 1e-12:
        return f"T2 off by {gap2:.3g}"
    if out["entropy"] < _entropy(t1) - 1e-15:
        return f"J = {out['entropy']!r} below I(t1) = {_entropy(t1)!r}"
    if abs(out["entropy"] - eg.entropy_functional(g)) > 1e-12:
        return "reported J differs from the ansatz's entropy functional"
    return None


def _curve(a, out):
    if a["scan"] == "exclusion":
        if not out["attainable"]:
            return "reduced branch reported unattainable"
        if not all(out["positive"].values()):
            return "a K2 > 0 family had K2 <= 0"
        if not all(e < 1.0 for e in out["exponents"].values()):
            return f"a K2 exponent is not below 1: {out['exponents']}"
        return None
    rows = out["rows"]
    if len(rows) != 2 * len(a["eps"]):
        return f"{len(rows)} rows for {len(a['eps'])} eps values on both sides"
    for r in rows:
        if not (_finite(r["numeric"], r["pred"], r["rel_err"]) and r["numeric"] > 0.0):
            return f"bad row {r}"
    return None


def _exact(kind, a, out):
    n = a["n"]
    e, t = a["c"]
    if kind == "count8":
        want = oracle.RECORDED_N8[(e, t)]
        return None if out["omega"] == want else f"omega {out['omega']} != recorded {want}"
    want = oracle.omega(n, e, t)
    if out["omega"] != want:
        return f"omega {out['omega']} != brute force {want}"
    if kind.startswith("relent"):
        if not (_finite(out["s_n"]) and out["s_n"] >= 0.0):
            return f"s_n = {out['s_n']!r}"
        # the calibrated multipliers must reproduce the class's densities
        _, means = oracle.canonical(n, out["theta"])
        target = (2.0 * e / n ** 2, 6.0 * t / n ** 3)
        if max(abs(m - x) for m, x in zip(means, target)) > 1e-9:
            return f"canonical means {means} at theta miss target {target}"
    return None


def _partition(a, out):
    psi, means = oracle.canonical(a["n"], a["theta"])
    if abs(out["psi_n"] - psi) > 1e-10 * max(1.0, abs(psi)):
        return f"psi_n {out['psi_n']!r} != {psi!r}"
    if max(abs(m - x) for m, x in zip(out["mean_t"], means)) > 1e-10:
        return f"means {out['mean_t']} != {means}"
    return None


def _mcmc(a, out):
    n, (th1, th2) = a["n"], a["theta"]
    if not (_finite(out["mean_t1"], out["mean_t3"], out["se_t1"], out["se_t3"])
            and 0.0 < out["accept_rate"] <= 1.0):
        return f"non-finite summary {out}"
    if n <= 7:
        _, (m1, m3) = oracle.canonical(n, (th1, th2))
        for got, want, se, what in ((out["mean_t1"], m1, out["se_t1"], "t1"),
                                    (out["mean_t3"], m3, out["se_t3"], "t3")):
            if abs(got - want) > MCMC_K * se:
                return f"mean {what} {got!r} is {abs(got - want) / se:.1f} SE from exact {want!r}"
    if th2 == 0.0:
        p, se = oracle.logistic_edge_se(n, th1, a["steps"])
        got = out["mean_edge_fraction"]
        if abs(got - p) > MCMC_K * se:
            return f"edge fraction {got!r} is {abs(got - p) / se:.1f} SE from {p!r}"
    return None


def check(eg, task, out):
    """None if ``out`` is right for ``task``, else the reason it is not.

    ``eg`` is the ergraphon package, needed only for variational tasks.
    """
    kind, a = task["kind"], task["args"]
    if kind in ("reduced", "exact_constraints"):
        return _solve(eg, a, out)
    if kind == "curve":
        return _curve(a, out)
    if kind.startswith(("relent", "count")):
        return _exact(kind, a, out)
    if kind == "partition7":
        return _partition(a, out)
    if kind.startswith("mcmc"):
        return _mcmc(a, out)
    if kind == "calibrate30":
        return None if _finite(*out["theta"]) else f"theta {out['theta']}"
    return f"unknown task kind {kind!r}"
