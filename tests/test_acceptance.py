"""Acceptance gates.

Each criterion runs at its stated tolerance, prints one PASS/FAIL line
(visible with ``pytest -s``), and asserts. Runtime budgets are asserted too.

Known-failing gate: criterion 4 pins the above-line linear-rate constant at
|6 log(t1/(1-t1)) / (1-2 t1)| (12.7095 at t1 = 0.3 and 0.7). The optimal
vanishing-block construction -- the very oracle the gate evaluates -- attains
|log(t1/(1-t1)) / (1-2 t1)|, exactly 6x smaller (2.1182), and since that
construction is feasible for the constraint pair, no admissible value can
exceed it. The gate is kept as stated and fails; the positivity and
exponent sub-checks pass. See the README's "known issues" note.
"""

import math
import random
import time

import numpy as np
import pytest

from ergraphon import (
    ConstraintPair,
    ConvergenceError,
    DenseGraph,
    EpsilonTooLargeError,
    above_line_graphon,
    ansatz_graphon,
    bernoulli_entropy,
    bernoulli_entropy_deriv,
    bregman_quotient_min,
    count_constrained,
    calibrate_exact,
    edge_density,
    entropy_functional,
    exclusion_scan,
    mcmc_sample,
    reduced_ansatz,
    region_classify,
    relative_entropy_exact,
    solve_microcanonical,
    specific_relative_entropy,
    subgraph_counts,
    triangle_density,
)
from ergraphon.ensembles import counts_to_densities
from ergraphon.optimize import loglog_slope

from enum_oracle import enum_tables, log_weights
from test_entropy import central_difference


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({elapsed:.2f}s < {budget}s) -- {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_entropy_calculus():
    t0 = time.perf_counter()
    failures = []
    grid = np.arange(0.05, 0.951, 0.05)
    for k in (1, 2, 3):
        for u in grid:
            u = float(u)
            exact = bernoulli_entropy_deriv(u, k)
            fd = central_difference(u, k)
            # relative check, with an absolute floor where the exact value
            # vanishes (odd derivatives at u = 1/2)
            if abs(fd - exact) > 1e-6 * abs(exact) + 1e-9:
                failures.append(f"k={k} u={u}: fd={fd!r} exact={exact!r}")
    for u in grid:
        u = float(u)
        if bernoulli_entropy_deriv(u, 2) <= 0:
            failures.append(f"I''({u}) not positive")
        for k in (4, 6):
            if bernoulli_entropy_deriv(u, k) <= 0:
                failures.append(f"I^({k})({u}) not positive")
        for k in (3, 5):
            v = bernoulli_entropy_deriv(u, k)
            if (u < 0.5 and v >= 0) or (u > 0.5 and v <= 0):
                failures.append(f"I^({k})({u}) wrong sign")
    report(1, not failures, failures or "derivatives match FD to 1e-6; signs correct",
           time.perf_counter() - t0, 1.0)


def test_criterion_2_below_line_scaling_small_t1():
    t0 = time.perf_counter()
    failures = []
    details = []
    for t1 in (0.2, 0.3, 0.5):
        rep = solve_microcanonical(t1, t1**3 * (1 - 1e-6))
        q = (rep.entropy - bernoulli_entropy(t1)) / 1e-4
        coeff = t1 / (4 * (1 - t1))
        rel = abs(q - coeff) / coeff
        if rel > 0.02:
            failures.append(f"t1={t1}: quotient {q:.6f} vs {coeff:.6f} ({rel:.1%})")
        eps_grid = np.geomspace(1e-6, 1e-3, 7)
        gaps = [
            solve_microcanonical(t1, t1**3 * (1 - e)).entropy - bernoulli_entropy(t1)
            for e in eps_grid
        ]
        slope = loglog_slope(eps_grid, gaps)
        details.append(f"t1={t1}: rel={rel:.2%} slope={slope:.4f}")
        if abs(slope - 2 / 3) > 0.02:
            failures.append(f"t1={t1}: exponent {slope:.4f} not 2/3 +- 0.02")
    report(2, not failures, failures or "; ".join(details),
           time.perf_counter() - t0, 10.0)


def test_criterion_3_below_line_scaling_large_t1():
    t0 = time.perf_counter()
    failures = []
    details = []
    for t1 in (0.6, 0.7, 0.8):
        rep = solve_microcanonical(t1, t1**3 * (1 - 1e-6))
        q = (rep.entropy - bernoulli_entropy(t1)) / 1e-4
        qmin = bregman_quotient_min(t1)
        rel = abs(q - qmin.value) / qmin.value
        if rel > 0.02:
            failures.append(f"t1={t1}: quotient {q:.6f} vs {qmin.value:.6f} ({rel:.1%})")
        limit = t1 / (4 * (1 - t1))
        if not qmin.value < limit:
            failures.append(f"t1={t1}: minimum {qmin.value} not below limit {limit}")
        details.append(f"t1={t1}: rel={rel:.2%} min={qmin.value:.5f}<{limit:.5f}")
    report(3, not failures, failures or "; ".join(details),
           time.perf_counter() - t0, 10.0)


def test_criterion_4_above_line_scaling():
    t0 = time.perf_counter()
    failures = []
    details = []
    stated = abs(6 / (1 - 2 * 0.7) * math.log(0.7 / 0.3))  # 12.7095
    for t1 in (0.3, 0.7):
        quotients = {}
        for eps in (1e-5, 1e-4):
            gap = entropy_functional(above_line_graphon(t1, eps)) - bernoulli_entropy(t1)
            quotients[eps] = gap / eps
            if quotients[eps] <= 0:
                failures.append(f"t1={t1} eps={eps}: quotient not positive")
        eps_grid = np.geomspace(1e-6, 1e-4, 5)
        gaps = [
            entropy_functional(above_line_graphon(t1, e)) - bernoulli_entropy(t1)
            for e in eps_grid
        ]
        slope = loglog_slope(eps_grid, gaps)
        if abs(slope - 1.0) > 0.02:
            failures.append(f"t1={t1}: exponent {slope:.4f} not 1 +- 0.02")
        for eps, q in quotients.items():
            rel = abs(q - stated) / stated
            if rel > 0.02:
                failures.append(
                    f"t1={t1} eps={eps}: quotient {q:.4f} vs stated constant "
                    f"{stated:.4f} (off by {q / stated:.4f}x; construction is "
                    f"feasible, so the admissible rate cannot exceed {q:.4f})"
                )
        details.append(
            f"t1={t1}: quotient {quotients[1e-5]:.4f} slope {slope:.4f}"
        )
    report(4, not failures, failures or "; ".join(details),
           time.perf_counter() - t0, 5.0)


def test_criterion_5_reduced_constraint_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    done = 0
    while done < 100:
        t1 = float(rng.uniform(0.1, 0.85))
        lam = float(rng.uniform(0.05, 0.95))
        eps = float(10 ** rng.uniform(-6, -2))
        try:
            a = reduced_ansatz(t1, eps, lam)
        except EpsilonTooLargeError:
            continue
        h = ansatz_graphon(t1, a)
        if abs(edge_density(h) - t1) > 1e-12:
            failures.append(f"T1 off at {(t1, lam, eps)}")
        if abs(triangle_density(h) - t1**3 * (1 - eps)) > 1e-12:
            failures.append(f"T2 off at {(t1, lam, eps)}")
        done += 1
    report(5, not failures, failures or "100 random triples exact to 1e-12",
           time.perf_counter() - t0, 1.0)


def test_criterion_6_exclusion_exponents():
    t0 = time.perf_counter()
    failures = []
    details = []
    for t1 in (0.3, 0.7):
        rep = exclusion_scan(t1)
        for case in ("1a", "1b", "1c"):
            expo = rep.exponents[case]
            if not rep.k2_positive[case]:
                failures.append(f"t1={t1} case {case}: K2 not positive")
            if expo > 2 / 3 + 0.05:
                failures.append(f"t1={t1} case {case}: exponent {expo:.4f}")
            details.append(f"{t1}/{case}:{expo:.3f}")
    report(6, not failures, failures or "K2 = omega(eps) for all cases: " + " ".join(details),
           time.perf_counter() - t0, 5.0)


def test_criterion_7_finite_ensemble_identities():
    t0 = time.perf_counter()
    failures = []
    if count_constrained(4, (3, 0)) != 16:
        failures.append("Omega(4; 3,0) != 16")
    if count_constrained(3, (3, 1)) != 1:
        failures.append("Omega(3; 3,1) != 1")
    rng = random.Random(777)
    done = 0
    attempts = 0
    while done < 50 and attempts < 600:
        attempts += 1
        n = rng.choice([4, 5, 6, 7])
        npairs = n * (n - 1) // 2
        mask = rng.getrandbits(npairs)
        g = DenseGraph.from_mask(n, mask)
        c = subgraph_counts(g)
        if not 0.25 <= c.edges / npairs <= 0.75:
            continue
        try:
            sol = relative_entropy_exact(n, (c.edges, c.triangles))
        except ConvergenceError:
            continue
        if sol.s_n < 0:
            failures.append(f"S_n < 0 at n={n} {(c.edges, c.triangles)}")
        # recompute both routes independently of the library's internal check
        edges_tab, tris_tab = enum_tables(n)
        logw, _ = log_weights(n, sol.theta)
        sel = (edges_tab == c.edges) & (tris_tab == c.triangles)
        p_mic = 1.0 / sol.omega
        s_sum = float(np.sum(p_mic * (math.log(p_mic) - logw[sel])))
        s_single = -math.log(sol.omega) - float(logw[np.argmax(sel)])
        if abs(s_sum - s_single) > 1e-12 * max(1.0, abs(s_single)):
            failures.append(f"sum/single disagree at n={n}: {s_sum} vs {s_single}")
        if abs(s_sum - sol.s_n) > 1e-12 * max(1.0, abs(sol.s_n)):
            failures.append(f"library S_n disagrees at n={n}: {sol.s_n} vs {s_sum}")
        done += 1
    if done < 50:
        failures.append(f"only {done} interior constraints found")
    report(7, not failures,
           failures or "50 random constraints: both routes and the library's S_n agree to 1e-12",
           time.perf_counter() - t0, 120.0)


def test_criterion_8_canonical_calibration():
    t0 = time.perf_counter()
    failures = []
    n = 7
    npairs = n * (n - 1) // 2
    uniform_means = counts_to_densities(n, npairs / 2, math.comb(n, 3) / 8)
    th = calibrate_exact(n, uniform_means)
    if abs(th.theta1) > 1e-10 or abs(th.theta2) > 1e-10:
        failures.append(f"uniform-means calibration gave {th}")
    summ = mcmc_sample(100, (0.5, 0.0), 10**6, seed=8)
    target = math.e / (1 + math.e)
    dev = abs(summ.mean_edge_fraction - target)
    if dev >= 4 * summ.se_edge_fraction:
        failures.append(
            f"edge fraction {summ.mean_edge_fraction:.6f} vs {target:.6f} "
            f"is {dev / summ.se_edge_fraction:.1f} SEs away"
        )
    detail = (failures or
              [f"theta=(0,0) exact; edge fraction within "
               f"{dev / summ.se_edge_fraction:.1f} SEs of e/(1+e)"])
    report(8, not failures, detail, time.perf_counter() - t0, 30.0)


def test_criterion_9_region_classifier():
    t0 = time.perf_counter()
    failures = []
    cases = [
        ((0.6, 0.216), "equivalent"),
        ((0.6, 0.3), "broken"),
        ((0.4, 0.9), "inadmissible"),
    ]
    for (t1, t2), expect in cases:
        got = region_classify(ConstraintPair(t1, t2))
        if got != expect:
            failures.append(f"({t1},{t2}): {got} != {expect}")
    for t1 in np.linspace(0.005, 0.995, 200):
        for t2 in np.linspace(0.0, 1.0, 200):
            verdict = region_classify(ConstraintPair(float(t1), float(t2)))
            if verdict in ("broken", "equivalent") and t2 > t1**1.5 + 1e-9:
                failures.append(f"({t1:.3f},{t2:.3f}): {verdict} outside admissible")
    report(9, not failures, failures or "verdicts correct; grid sanity holds",
           time.perf_counter() - t0, 1.0)


def test_criterion_10_asymmetry():
    t0 = time.perf_counter()
    failures = []
    details = []
    eps = 1e-5
    for t1 in (0.55, 0.6, 0.7, 0.8):
        below = specific_relative_entropy(t1, eps, "below")
        above = specific_relative_entropy(t1, eps, "above")
        details.append(f"t1={t1}: below={below:.3e} above={above:.3e}")
        if not below > above:
            failures.append(f"t1={t1}: below {below} not above {above}")
    report(10, not failures, failures or "; ".join(details),
           time.perf_counter() - t0, 5.0)
