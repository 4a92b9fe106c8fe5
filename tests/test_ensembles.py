"""Exact finite ensembles against combinatorial oracles, and the Metropolis
sampler against closed forms and the exact enumeration."""

import dataclasses
import math
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ergraphon import (
    CapacityError,
    ConvergenceError,
    DenseGraph,
    DomainError,
    bernoulli_entropy_deriv,
    calibrate_exact,
    count_constrained,
    counts_to_densities,
    densities_to_counts,
    edge_density,
    finite_graph_to_graphon,
    hom_density,
    mcmc_calibrate,
    mcmc_sample,
    partition_exact,
    relative_entropy_exact,
    subgraph_counts,
    triangle_density,
)
from ergraphon import _dos_cells, ensembles
from ergraphon.ensembles import (
    COUNT_CAPACITY,
    MCMC_CAPACITY,
    MCMC_PROPOSAL_CAPACITY,
    WEIGHTED_CAPACITY,
    _accept_table,
    _dos,
    _flip_blocks,
    _flip_pairs,
    _relative_entropy,
)

from enum_oracle import DOS_MAX_N, dos_by_vertex, dos_cells_source, enum_tables, log_weights


def brute_counts(g: DenseGraph):
    """Counts by explicit subset enumeration (independent of bitset code)."""
    a = g.to_matrix()
    n = g.n
    edges = sum(a[i, j] for i, j in combinations(range(n), 2))
    wedges = 0
    for center in range(n):
        nbrs = [v for v in range(n) if a[center, v]]
        wedges += len(nbrs) * (len(nbrs) - 1) // 2
    triangles = sum(
        1
        for i, j, k in combinations(range(n), 3)
        if a[i, j] and a[j, k] and a[i, k]
    )
    return int(edges), int(wedges), int(triangles)


def per_mask_class_sum(n, c_star, theta):
    """(Omega, S_n) as the literal sum of p_mic log(p_mic / w) over the
    class's masks, with canonical weights from the per-mask enumeration."""
    edges_tab, tris_tab = enum_tables(n)
    logw, _ = log_weights(n, theta)
    sel = (edges_tab == c_star[0]) & (tris_tab == c_star[1])
    omega = int(np.count_nonzero(sel))
    p_mic = 1.0 / omega
    return omega, float(np.sum(p_mic * (math.log(p_mic) - logw[sel])))


def strictly_inside_hull(points) -> set:
    """The integer points of ``points`` strictly inside their convex hull.

    Andrew's monotone chain with exact integer cross products; points on a
    hull edge or vertex are excluded.
    """
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(pts[::-1])  # counter-clockwise vertices
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return {p for p in pts if all(cross(a, b, p) > 0 for a, b in edges)}


def per_mask_means(n, theta) -> tuple:
    """Canonical (mean t1, mean t3) as sums over every mask on n vertices."""
    edges_tab, tris_tab = enum_tables(n)
    logw, _ = log_weights(n, theta)
    w = np.exp(logw)
    return float(w @ (2.0 * edges_tab / n**2)), float(w @ (6.0 * tris_tab / n**3))


class ScriptedRng:
    """Stands in for random.Random: ``getrandbits`` returns ``bits`` in turn,
    ``random`` returns ``u`` (None: the kernel must not draw a uniform)."""

    def __init__(self, bits, u):
        self.bits = list(bits)
        self.u = u

    def getrandbits(self, k):
        assert self.bits[0] < 1 << k
        return self.bits.pop(0)

    def random(self):
        assert self.u is not None, "uniform drawn for a flip with dH >= 0"
        u, self.u = self.u, None
        return u

    def done(self):
        return not self.bits


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
    return DenseGraph.from_edges(n, edges)


class TestDenseGraph:
    def test_from_edges_and_matrix_roundtrip(self):
        g = DenseGraph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        g2 = DenseGraph.from_matrix(g.to_matrix())
        assert g == g2

    def test_text_roundtrip(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 9))
            assert DenseGraph.from_text(g.to_text()) == g

    @pytest.mark.parametrize("text", [
        "", "x\n", "0\n", "3.0\n11\n1\n",  # no vertex count n >= 1
        "4\n1\n", "3\n11\n1\n1\n",  # a row count other than n - 1
        "3\n1\n1\n", "3\n1x\n1\n", "3\n11\n2\n", "3\n1 1\n1\n",  # a bad row
    ])
    def test_malformed_text_is_a_domain_error(self, text):
        with pytest.raises(DomainError):
            DenseGraph.from_text(text)

    def test_rejects_self_loop_and_asymmetry(self):
        with pytest.raises(DomainError):
            DenseGraph.from_edges(3, [(1, 1)])
        with pytest.raises(DomainError):
            DenseGraph(2, (2, 0))  # 0->1 present, 1->0 absent

    def test_from_mask_matches_tables(self):
        n = 5
        edges_tab, tris_tab = enum_tables(n)
        rng = random.Random(2)
        for _ in range(50):
            mask = rng.randrange(1 << (n * (n - 1) // 2))
            g = DenseGraph.from_mask(n, mask)
            c = subgraph_counts(g)
            assert c.edges == int(edges_tab[mask])
            assert c.triangles == int(tris_tab[mask])


class TestSubgraphCounts:
    def test_triangle_graph(self):
        g = DenseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert subgraph_counts(g) == (3, 3, 1)

    def test_empty(self):
        g = DenseGraph(4, (0, 0, 0, 0))
        assert subgraph_counts(g) == (0, 0, 0)

    def test_k4(self):
        g = DenseGraph.from_edges(4, list(combinations(range(4), 2)))
        assert subgraph_counts(g) == (6, 12, 4)

    def test_random_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 10))
            assert tuple(subgraph_counts(g)) == brute_counts(g)


class TestHomDensity:
    def test_triangle_graph_values(self):
        g = DenseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert hom_density("edge", g) == pytest.approx(2 * 3 / 9)
        assert hom_density("triangle", g) == pytest.approx(6 * 1 / 27)
        assert hom_density("wedge", g) == pytest.approx(2 * 3 / 27)

    def test_empty(self):
        g = DenseGraph(5, (0,) * 5)
        for kind in ("edge", "wedge", "triangle"):
            assert hom_density(kind, g) == 0.0

    def test_graphon_consistency_all_small_graphs(self):
        # hom densities equal the step-graphon functionals exactly, n <= 5
        for n in (2, 3, 4, 5):
            m = n * (n - 1) // 2
            for mask in range(1 << m):
                g = DenseGraph.from_mask(n, mask)
                h = finite_graph_to_graphon(g)
                assert edge_density(h) == pytest.approx(hom_density("edge", g), abs=1e-14)
                assert triangle_density(h) == pytest.approx(
                    hom_density("triangle", g), abs=1e-14
                )

    def test_unit_conversions_roundtrip(self):
        t1, t3 = counts_to_densities(7, 11, 6)
        assert densities_to_counts(7, t1, t3) == pytest.approx((11.0, 6.0), abs=1e-12)


class TestDensityOfStates:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_per_mask_histogram(self, n):
        # independent route: bincount the full per-mask table on n vertices
        edges_tab, tris_tab = enum_tables(n)
        width = math.comb(n, 3) + 1
        hist = np.bincount(edges_tab * width + tris_tab)
        cells = np.flatnonzero(hist)
        edges, tris, counts = _dos(n)
        assert edges.tolist() == (cells // width).tolist()
        assert tris.tolist() == (cells % width).tolist()
        assert counts.tolist() == hist[cells].tolist()

    def test_n8_totals(self):
        edges, tris, counts = _dos(8)
        assert counts.size == 228
        assert int(counts.sum()) == 1 << 28

    @pytest.mark.parametrize("n", range(1, DOS_MAX_N + 1))
    def test_matches_vertex_adding_builder(self, n):
        # cell by cell, in order and dtype, against the oracle's builder
        for got, expect in zip(_dos(n), dos_by_vertex(n)):
            assert got.dtype == np.int64
            assert got.shape == expect.shape
            assert (got == expect).all()

    def test_committed_table_is_generated(self):
        # the module the library loads is the generator's output, byte for byte
        assert Path(_dos_cells.__file__).read_bytes() == dos_cells_source().encode()


class TestCountConstrained:
    def test_only_triangle(self):
        assert count_constrained(3, (3, 1)) == 1

    def test_three_edges_no_triangle_n4(self):
        assert count_constrained(4, (3, 0)) == 16

    def test_nongraphical(self):
        assert count_constrained(3, (3, 0)) == 0

    def test_capacity(self):
        with pytest.raises(CapacityError):
            count_constrained(9, (3, 0))

    def test_sums_to_total_n5(self):
        m = 10
        total = sum(
            count_constrained(5, (e, t)) for e in range(m + 1) for t in range(11)
        )
        assert total == 1 << m

    def test_n8_small_edge_class_against_oracle(self):
        # independent oracle: enumerate all 5-edge subsets of K_8 directly
        pairs = list(combinations(range(8), 2))
        from collections import Counter

        oracle = Counter()
        for chosen in combinations(pairs, 5):
            es = set(chosen)
            tri = sum(
                1
                for i, j, k in combinations(range(8), 3)
                if ((i, j) in es and (j, k) in es and (i, k) in es)
            )
            oracle[tri] += 1
        for tri, expect in oracle.items():
            assert count_constrained(8, (5, tri)) == expect


class TestPartitionExact:
    def test_uniform_psi_and_means(self):
        for n in (3, 5, 7):
            psi, (m1, m3) = partition_exact(n, (0.0, 0.0))
            npairs = n * (n - 1) // 2
            assert psi == pytest.approx(npairs * math.log(2) / n**2, rel=1e-13)
            # mean edge density: 2 * E[C1] / n^2 with E[C1] = npairs / 2
            assert m1 == pytest.approx(npairs / n**2, rel=1e-12)
            assert m3 == pytest.approx(6 * math.comb(n, 3) / 8 / n**3, rel=1e-12)

    def test_psi3_uniform_value(self):
        psi, (m1, _) = partition_exact(3, (0.0, 0.0))
        assert psi == pytest.approx(math.log(8) / 9, rel=1e-14)
        assert m1 == pytest.approx(1 / 3, rel=1e-14)

    def test_independent_edges_closed_form(self):
        # theta2 = 0 factorizes over edges with retention e^(2 th1)/(1+e^(2 th1))
        for n in (4, 6):
            for th1 in (-0.7, 0.2, 0.5):
                p = math.exp(2 * th1) / (1 + math.exp(2 * th1))
                psi, (m1, m3) = partition_exact(n, (th1, 0.0))
                npairs = n * (n - 1) // 2
                assert m1 == pytest.approx(2 * npairs * p / n**2, rel=1e-12)
                assert m3 == pytest.approx(6 * math.comb(n, 3) * p**3 / n**3, rel=1e-12)
                # psi = (1/n^2) log prod_edges (1 + e^(2 th1))
                assert psi == pytest.approx(npairs * math.log(1 + math.exp(2 * th1)) / n**2,
                                            rel=1e-12)

    def test_triangle_mean_monotone_in_theta2(self):
        means = [partition_exact(5, (0.0, th2))[1][1] for th2 in (-2.0, -1.0, 0.0, 1.0)]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            partition_exact(8, (0.0, 0.0))


class TestCalibrateExact:
    def test_uniform_fixed_point(self):
        n = 5
        _, means = partition_exact(n, (0.0, 0.0))
        th = calibrate_exact(n, means)
        assert abs(th.theta1) < 1e-10
        assert abs(th.theta2) < 1e-10

    def test_er_line_fixed_point(self):
        n, p = 6, 0.62
        th1 = bernoulli_entropy_deriv(p, 1)
        _, means = partition_exact(n, (th1, 0.0))
        th = calibrate_exact(n, means)
        assert th.theta1 == pytest.approx(th1, abs=1e-9)
        assert abs(th.theta2) < 1e-9

    def test_count_units_interior_target(self):
        th = calibrate_exact(4, (3.0, 0.5), units="count")
        _, means = partition_exact(4, th)
        assert means[0] == pytest.approx(2 * 3.0 / 16, abs=1e-10)
        assert means[1] == pytest.approx(6 * 0.5 / 64, abs=1e-10)

    def test_boundary_target_diverges(self):
        with pytest.raises(ConvergenceError):
            calibrate_exact(4, counts_to_densities(4, 3, 0))  # zero triangles: boundary

    @pytest.mark.parametrize("units", ["count", "density"])
    def test_hull_edge_target_rejected(self, units):
        # (5, 2) is the midpoint of the hull edge (4, 0)-(6, 4) of N_4: no
        # multipliers match it, yet Newton alone gets the residual under
        # 1e-10 at |theta| ~ 22
        target = (5, 2) if units == "count" else counts_to_densities(4, 5, 2)
        with pytest.raises(ConvergenceError, match="boundary") as info:
            calibrate_exact(4, target, units=units)
        assert set(info.value.diagnostics) == {"target", "bounds"}

    def test_residual_tolerance(self):
        rng = random.Random(4)
        for n in (5, 6):
            g = random_graph(rng, n, 0.55)
            c = subgraph_counts(g)
            target = counts_to_densities(n, c.edges, c.triangles)
            try:
                th = calibrate_exact(n, target)
            except ConvergenceError:
                continue
            _, means = partition_exact(n, th)
            assert means[0] == pytest.approx(target[0], abs=1e-10)
            assert means[1] == pytest.approx(target[1], abs=1e-10)


class TestRelativeEntropyExact:
    def test_identities_random_constraints(self):
        # sample across n = 4..7; S_n against the per-mask class sum
        rng = random.Random(5)
        done = 0
        attempts = 0
        while done < 12 and attempts < 200:
            attempts += 1
            n = rng.choice([4, 5, 6, 7])
            g = random_graph(rng, n, rng.uniform(0.35, 0.65))
            c = subgraph_counts(g)
            if c.edges in (0, n * (n - 1) // 2):
                continue
            try:
                sol = relative_entropy_exact(n, (c.edges, c.triangles))
            except ConvergenceError:
                continue
            assert sol.s_n >= 0.0
            omega, s_sum = per_mask_class_sum(n, (c.edges, c.triangles), sol.theta)
            assert sol.omega == omega
            assert sol.s_n == pytest.approx(s_sum, abs=1e-12 * max(1.0, abs(s_sum)))
            target = counts_to_densities(n, c.edges, c.triangles)
            assert sol.mean_t[0] == pytest.approx(target[0], abs=1e-9)
            assert sol.mean_t[1] == pytest.approx(target[1], abs=1e-9)
            done += 1
        assert done == 12

    def test_single_graph_identity_explicit(self):
        # the per-mask class sum of p_mic log(p_mic / w), against the
        # library's single-representative S_n, one interior class per n
        for n, c_star in {4: (3, 1), 5: (5, 1), 6: (7, 2), 7: (10, 4)}.items():
            sol = relative_entropy_exact(n, c_star)
            omega, s_sum = per_mask_class_sum(n, c_star, sol.theta)
            assert omega == sol.omega
            assert s_sum == pytest.approx(sol.s_n, abs=1e-12)

    def test_microcanonical_conditioning_uniform(self):
        # canonical weights are constant on the constraint class
        n = 5
        sol = relative_entropy_exact(n, (5, 1))
        edges_tab, tris_tab = enum_tables(n)
        logw, _ = log_weights(n, sol.theta)
        sel = (edges_tab == 5) & (tris_tab == 1)
        w = logw[sel]
        assert float(w.max() - w.min()) < 1e-12

    def test_scaled_entropy_trend_toward_zero(self):
        # s_n / n^2 decreases along near-typical constraints as n grows
        # (diagnostic trend only; no rate is claimed)
        vals = []
        for n in (4, 5, 6, 7):
            e = n * (n - 1) // 4
            t = max(1, round(math.comb(n, 3) / 8))
            sol = relative_entropy_exact(n, (e, t))
            vals.append(sol.s_n / n**2)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nongraphical_rejected(self):
        with pytest.raises(DomainError):
            relative_entropy_exact(3, (3, 0))

    def test_isomorphism_invariance_of_weights(self):
        # the canonical log-weight depends only on the counts
        rng = random.Random(6)
        n = 6
        th = (0.3, -0.2)
        for _ in range(20):
            g = random_graph(rng, n, 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = g.relabeled(perm)
            c1, c2 = subgraph_counts(g), subgraph_counts(g2)
            assert (c1.edges, c1.triangles) == (c2.edges, c2.triangles)

    def test_max_entropy_characterization(self):
        # first-order entropy change vanishes along feasible probability flows
        n = 4
        sol = relative_entropy_exact(n, (3, 1))
        edges_tab, tris_tab = enum_tables(n)
        logw, _ = log_weights(n, sol.theta)
        t1 = 2.0 * edges_tab / n**2
        t3 = 6.0 * tris_tab / n**3
        rng = np.random.default_rng(7)
        # orthonormal basis of span{1, t1, t3} via QR for a true projection
        q, _ = np.linalg.qr(np.stack([np.ones_like(t1), t1, t3]).T)
        for _ in range(20):
            d = rng.standard_normal(t1.size)
            d -= q @ (q.T @ d)
            d /= np.linalg.norm(d)
            # gradient of entropy at P is -(1 + log P); feasible directions
            # are orthogonal to 1, so the derivative reduces to -d . log P
            deriv = -float(d @ logw)
            assert abs(deriv) < 1e-8


class TestExactAgainstPerMaskOracle:
    """Every class of N_3..N_7, the cells built by the oracle's vertex adder."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_calibrates_exactly_the_hull_interior(self, n):
        # the canonical means fill the open convex hull of the cells: a class
        # is matched iff it lies strictly inside, and the rest diverge
        edges, tris, _ = dos_by_vertex(n)
        classes = list(zip(edges.tolist(), tris.tolist()))
        inside = strictly_inside_hull(classes)
        assert len(inside) < len(classes)
        for c_star in classes:
            if c_star not in inside:
                with pytest.raises(ConvergenceError):
                    relative_entropy_exact(n, c_star)
                continue
            sol = relative_entropy_exact(n, c_star)
            if n <= 6:
                target = counts_to_densities(n, *c_star)
                means = per_mask_means(n, sol.theta)
                assert max(abs(m - x) for m, x in zip(means, target)) <= 1e-10, c_star

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("theta", [(0.0, 0.0), (0.4, -1.3), (-1.1, 2.7), (6.0, -15.0)])
    def test_partition_matches_per_mask_sums(self, n, theta):
        psi, means = partition_exact(n, theta)
        _, want_psi = log_weights(n, theta)
        want_means = per_mask_means(n, theta)
        assert abs(psi - want_psi) <= 1e-12 * max(1.0, abs(want_psi))
        assert max(abs(m - x) for m, x in zip(means, want_means)) <= 1e-12


class TestMcmc:
    def test_capacity(self):
        # the ceiling is checked before any pair table is built
        built = _flip_pairs.cache_info().misses
        with pytest.raises(CapacityError, match=f"n <= {MCMC_CAPACITY}, got {MCMC_CAPACITY + 1}"):
            mcmc_sample(MCMC_CAPACITY + 1, (0.0, 0.0), 10, seed=1)
        with pytest.raises(CapacityError):
            mcmc_sample(float(10 * MCMC_CAPACITY), (0.0, 0.0), 10, seed=1)
        with pytest.raises(CapacityError):
            mcmc_calibrate(MCMC_CAPACITY + 1, (0.5, 0.125), seed=1)
        assert _flip_pairs.cache_info().misses == built

    def test_pair_table_peak_memory(self):
        # fresh process, so no cached table and no earlier peak hides the build
        code = ("import resource; from ergraphon.ensembles import _flip_pairs; "
                "r0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
                "_flip_pairs(1000); "
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - r0)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        growth_mib = int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux
        assert growth_mib < 20.0

    def test_determinism(self):
        a = mcmc_sample(12, (0.2, -0.1), 20000, seed=9)
        b = mcmc_sample(12, (0.2, -0.1), 20000, seed=9)
        assert a == b
        c = mcmc_sample(12, (0.2, -0.1), 20000, seed=10)
        assert c != a

    def test_independent_edges_edge_fraction(self):
        # th2 = 0: stationary edge fraction is exactly e/(1+e) at th1 = 0.5
        summ = mcmc_sample(100, (0.5, 0.0), 10**6, seed=1)
        target = math.e / (1 + math.e)
        assert abs(summ.mean_edge_fraction - target) < 4 * summ.se_edge_fraction

    def test_uniform_triangle_density(self):
        n = 40
        summ = mcmc_sample(n, (0.0, 0.0), 4 * 10**5, seed=2)
        target_t3 = 6 * math.comb(n, 3) / 8 / n**3
        assert abs(summ.mean_t3 - target_t3) < 5 * summ.se_t3
        assert abs(summ.mean_edge_fraction - 0.5) < 5 * summ.se_edge_fraction

    def test_detailed_balance_tiny_state_space(self):
        # n = 3: the library kernel's state, read from the mutated rows after
        # every block of 4 proposals (1e7 proposals, 2.5e6 samples), has the
        # exact canonical law over the 8 graphs within (inflated) multinomial
        # error
        n, th = 3, (0.3, 0.2)
        block, samples = 4, 10**7 // 4
        rng = random.Random(11)
        rows = [0] * n
        c1 = c3 = 0
        visits = [0] * 8
        for _ in range(samples):
            c1, c3, _, _ = _flip_blocks(n, rows, c1, c3, th[0], th[1], (block,), rng)
            # mask bits in the pair order (0, 1), (0, 2), (1, 2) of enum_tables
            visits[(rows[0] >> 1 & 1) | (rows[0] >> 2 & 1) << 1 | (rows[1] >> 2 & 1) << 2] += 1
        counts = subgraph_counts(DenseGraph(n, tuple(rows)))
        assert (c1, c3) == (counts.edges, counts.triangles)
        freq = np.array(visits) / samples
        logw, _ = log_weights(3, th)
        exact = np.exp(logw)
        # tau-inflated multinomial bands (short chain memory at n = 3): the
        # factor 10 covers the autocorrelation time of the per-proposal
        # chain, so a sample read every `block` proposals carries 10 / block,
        # which keeps the band of 1e7 per-proposal visits
        for k in range(8):
            band = 6 * math.sqrt(exact[k] * (1 - exact[k]) * (10 / block) / samples)
            assert abs(freq[k] - exact[k]) < band

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("th", [(0.3, 0.2), (-0.25, 0.6)])
    def test_detailed_balance_exact(self, n, th):
        # the kernel's full transition matrix, one proposal at a time: a
        # scripted RNG names the pair (after one out-of-range draw, which
        # must be redrawn) and returns a uniform one ulp below or above the
        # acceptance table entry, so P(x, x ^ pair) = entry / npairs exactly
        m = n * (n - 1) // 2
        pairs = list(combinations(range(n), 2))
        tables = {1: _accept_table(n, *th, 1), -1: _accept_table(n, *th, -1)}
        P = np.zeros((1 << m, 1 << m))
        for x in range(1 << m):
            g = DenseGraph.from_mask(n, x)
            c = subgraph_counts(g)
            for r, (i, j) in enumerate(pairs):
                common = (g.rows[i] & g.rows[j]).bit_count()
                entry = tables[-1 if (g.rows[i] >> j) & 1 else 1][common]
                if entry is None:
                    probes = [(None, True)]
                else:
                    probes = [(math.nextafter(entry, 0.0), True),
                              (math.nextafter(entry, 1.0), False)]
                for u, flips in probes:
                    rng = ScriptedRng([m, r], u)
                    rows = list(g.rows)
                    c1, c3, _, _ = _flip_blocks(n, rows, c.edges, c.triangles, *th, (1,), rng)
                    assert rng.done()
                    h = DenseGraph.from_mask(n, x ^ (1 << r) if flips else x)
                    assert tuple(rows) == h.rows
                    assert (c1, c3) == (subgraph_counts(h).edges, subgraph_counts(h).triangles)
                P[x, x ^ (1 << r)] = (1.0 if entry is None else entry) / m
        pi = np.exp(log_weights(n, th)[0])
        flow = pi[:, None] * P
        assert np.abs(flow - flow.T).max() <= 1e-15

    def test_mcmc_against_exact_means(self):
        n = 7
        th = (0.25, -0.15)
        _, (m1, m3) = partition_exact(n, th)
        summ = mcmc_sample(n, th, 3 * 10**5, seed=3)
        assert abs(summ.mean_t1 - m1) < 5 * summ.se_t1
        assert abs(summ.mean_t3 - m3) < 5 * summ.se_t3

    def test_row_schema(self):
        summ = mcmc_sample(10, (0.1, 0.0), 5000, seed=4)
        row = summ.to_row()
        assert tuple(row) == summ.ROW_FIELDS

    def test_domain(self):
        with pytest.raises(DomainError):
            mcmc_sample(2, (0.0, 0.0), 100, seed=1)
        with pytest.raises(DomainError):
            mcmc_sample(5, (0.0, 0.0), 0, seed=1)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_partition(self, bad):
        with pytest.raises(DomainError):
            partition_exact(5, (bad, 0.0))

    @pytest.mark.parametrize("units", ["density", "count"])
    def test_calibrate_target(self, units):
        with pytest.raises(DomainError):
            calibrate_exact(5, (math.nan, 0.1), units=units)

    @pytest.mark.parametrize("theta", [(math.nan, 0.0), (0.0, -math.inf)])
    def test_mcmc_theta(self, theta):
        with pytest.raises(DomainError):
            mcmc_sample(7, theta, 100, seed=1)

    def test_mcmc_calibrate_target(self):
        with pytest.raises(DomainError):
            mcmc_calibrate(7, (0.4, math.nan), seed=1)

    @pytest.mark.parametrize("theta", [(10 ** 400, 0), (0.0, -10 ** 400), (10 ** 5000, 0)])
    def test_partition_int_beyond_float_range(self, theta):
        with pytest.raises(DomainError, match="beyond float range"):
            partition_exact(5, theta)

    @pytest.mark.parametrize("target", [(10 ** 400, 0), (3, -10 ** 400), (10 ** 5000, 0)])
    def test_calibrate_int_beyond_float_range(self, target):
        with pytest.raises(DomainError, match="beyond float range"):
            calibrate_exact(5, target, units="count")

    @pytest.mark.parametrize("c_star", [(math.nan, 1), (10, math.inf)])
    def test_count_pair(self, c_star):
        with pytest.raises(DomainError):
            count_constrained(7, c_star)
        with pytest.raises(DomainError):
            relative_entropy_exact(7, c_star)


class TestSamplerInputs:
    def test_negative_burnin(self):
        with pytest.raises(DomainError):
            mcmc_sample(7, (0.0, 0.0), 100, seed=1, burnin=-5)

    @pytest.mark.parametrize("steps", [2.5, math.inf, "abc"])
    def test_steps_not_a_whole_number(self, steps):
        with pytest.raises(DomainError):
            mcmc_sample(7, (0.0, 0.0), steps, seed=1)

    @pytest.mark.parametrize("batches", [0, 2.5])
    def test_batches(self, batches):
        with pytest.raises(DomainError):
            mcmc_sample(7, (0.0, 0.0), 100, seed=1, batches=batches)

    def test_integral_float_steps_and_burnin(self):
        assert mcmc_sample(7, (0.1, 0.0), 1e3, seed=1, burnin=50.0) == \
            mcmc_sample(7, (0.1, 0.0), 1000, seed=1, burnin=50)

    @pytest.mark.parametrize("n", [1, 2])
    def test_calibrate_too_few_vertices(self, n):
        with pytest.raises(DomainError):
            mcmc_calibrate(n, (0.4, 0.05), seed=1)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
    def test_calibrate_tol(self, tol):
        with pytest.raises(DomainError):
            mcmc_calibrate(7, (0.4, 0.05), seed=1, tol=tol)

    def test_calibrate_block(self):
        with pytest.raises(DomainError):
            mcmc_calibrate(7, (0.4, 0.05), seed=1, block=0)

    @pytest.mark.parametrize("steps, burnin", [
        (MCMC_PROPOSAL_CAPACITY + 1, None),
        (1, MCMC_PROPOSAL_CAPACITY),
        (MCMC_PROPOSAL_CAPACITY // 2 + 1, MCMC_PROPOSAL_CAPACITY // 2),
        (100, 10 ** 12),
        (100, 10 ** 400),
        (1e12, 0),
    ])
    def test_proposal_ceiling(self, steps, burnin):
        # raised before any pair table is built
        built = _flip_pairs.cache_info().misses
        with pytest.raises(CapacityError, match=f"at most {MCMC_PROPOSAL_CAPACITY} proposals"):
            mcmc_sample(7, (0.0, 0.0), steps, seed=1, burnin=burnin)
        assert _flip_pairs.cache_info().misses == built

    @pytest.mark.parametrize("block", [MCMC_PROPOSAL_CAPACITY // 8 + 1, 10 ** 400])
    def test_calibrate_block_ceiling(self, block):
        built = _flip_pairs.cache_info().misses
        with pytest.raises(CapacityError, match="8 \\* block"):
            mcmc_calibrate(7, (0.4, 0.05), seed=1, block=block)
        assert _flip_pairs.cache_info().misses == built

    def test_proposal_ceiling_admits_its_bound(self, monkeypatch):
        # a run of exactly the ceiling passes the check and reaches the kernel
        def kernel(n, rows, c1, c3, th1, th2, lens, rng):
            raise RuntimeError(f"kernel reached with {lens[:1]}")

        monkeypatch.setattr(ensembles, "_flip_blocks", kernel)
        with pytest.raises(RuntimeError, match="kernel reached"):
            mcmc_sample(7, (0.0, 0.0), 1, seed=1, burnin=MCMC_PROPOSAL_CAPACITY - 1)
        with pytest.raises(RuntimeError, match="kernel reached"):
            mcmc_calibrate(7, (0.4, 0.05), seed=1, block=MCMC_PROPOSAL_CAPACITY // 8)

    def test_calibrate_k0(self):
        with pytest.raises(DomainError):
            mcmc_calibrate(7, (0.4, 0.05), seed=1, k0=0)


class TestCountPairIntegral:
    def test_relative_entropy_rejects_fraction(self):
        with pytest.raises(DomainError):
            relative_entropy_exact(5, (5.9, 1.5))

    def test_count_rejects_fraction(self):
        with pytest.raises(DomainError):
            count_constrained(5, (5.7, 1))

    def test_integral_floats_accepted(self):
        assert count_constrained(5, (5.0, 1.0)) == count_constrained(5, (5, 1)) == 150
        assert relative_entropy_exact(5, (5.0, 1.0)) == relative_entropy_exact(5, (5, 1))


class TestExactN:
    """n reaches every exact entry point through one whole-number check."""

    CALLS = {
        "count": lambda n: count_constrained(n, (3, 0)),
        "partition": lambda n: partition_exact(n, (0.1, 0.0)),
        "calibrate": lambda n: calibrate_exact(n, (5, 1), units="count"),
        "relent": lambda n: relative_entropy_exact(n, (5, 1)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("n", [5.5, 0, -3, 0.0, math.nan, math.inf, "x", None])
    def test_not_a_whole_n_of_at_least_one_is_a_domain_error(self, call, n):
        with pytest.raises(DomainError):
            self.CALLS[call](n)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_integral_float_n_is_the_int(self, call):
        assert self.CALLS[call](5.0) == self.CALLS[call](5)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_above_capacity_is_a_capacity_error(self, call):
        cap = COUNT_CAPACITY if call == "count" else WEIGHTED_CAPACITY
        for n in (cap + 1, float(cap + 1), 10 ** 400):
            with pytest.raises(CapacityError):
                self.CALLS[call](n)


class TestRelativeEntropyMemo:
    CELLS = [(n, e, t) for n in range(1, WEIGHTED_CAPACITY + 1)
             for e, t in zip(_dos(n)[0].tolist(), _dos(n)[1].tolist())]

    def test_every_cell_matches_the_uncached_body(self):
        assert len(self.CELLS) == 196
        answered = 0
        for n, e, t in self.CELLS:
            try:
                want = _relative_entropy.__wrapped__(n, e, t)
            except ConvergenceError:  # a class on the hull of N_n's cells
                with pytest.raises(ConvergenceError):
                    relative_entropy_exact(n, (e, t))
                continue
            got = relative_entropy_exact(n, (e, t))
            assert relative_entropy_exact(n, (e, t)) is got
            for f in dataclasses.fields(got):
                assert getattr(got, f.name) == getattr(want, f.name), (n, e, t, f.name)
            answered += 1
        assert answered > 0
        assert _relative_entropy.cache_info().currsize <= len(self.CELLS)

    @pytest.mark.parametrize("n, c_star, error", [
        (4, (3, 0), ConvergenceError),   # the star and the path: a hull vertex of N_4
        (4, (5, 2), ConvergenceError),   # midpoint of the hull edge (4, 0)-(6, 4)
        (5, (10, 0), DomainError),       # K_5 has ten triangles
        (7, (-1, 0), DomainError),
    ])
    def test_raising_classes_are_not_stored(self, n, c_star, error):
        size = _relative_entropy.cache_info().currsize
        for _ in range(3):
            with pytest.raises(error):
                relative_entropy_exact(n, c_star)
        assert _relative_entropy.cache_info().currsize == size

    def test_float_and_int_spellings_share_one_entry(self):
        _relative_entropy.cache_clear()
        first = relative_entropy_exact(5.0, (5.0, 1.0))
        assert relative_entropy_exact(5, (5, 1)) is first
        info = _relative_entropy.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

    def test_shared_answer_is_immutable(self):
        sol = relative_entropy_exact(6, (7, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.s_n = 0.0
        assert all(isinstance(v, tuple) for v in (sol.theta, sol.mean_t))


class TestCountOffTable:
    @pytest.mark.parametrize("n", range(1, COUNT_CAPACITY + 1))
    def test_pairs_outside_the_cells_count_zero(self, n):
        m = n * (n - 1) // 2
        cells = set(zip(_dos(n)[0].tolist(), _dos(n)[1].tolist()))
        off = [(-1, 0), (0, -1), (-5, -5), (m + 1, 0), (m + 1, math.comb(n, 3))]
        off += [(e, t) for e in range(m + 1) for t in range(math.comb(n, 3) + 2)
                if (e, t) not in cells]
        for c_star in off:
            assert count_constrained(n, c_star) == 0, (n, c_star)


class TestMcmcCalibrate:
    def test_er_fixed_point(self):
        n, p = 30, 0.6
        target = (
            p * (n - 1) / n,
            6 * math.comb(n, 3) * p**3 / n**3,
        )
        th = mcmc_calibrate(n, target, seed=21)
        assert th.theta1 == pytest.approx(bernoulli_entropy_deriv(p, 1), abs=0.05)
        assert th.theta2 == pytest.approx(0.0, abs=0.08)

    def test_against_exact_enumeration(self):
        # certified residual is tol plus the confirmation block's noise
        # floor ~ 1/sqrt(2 * 8 * block): about 5e-3 + 3 * 1.8e-3
        n = 7
        th_true = (0.3, -0.1)
        _, means = partition_exact(n, th_true)
        th = mcmc_calibrate(n, means, seed=22)
        _, back = partition_exact(n, th)
        assert back[0] == pytest.approx(means[0], abs=0.011)
        assert back[1] == pytest.approx(means[1], abs=0.011)

    def test_nonconvergence_reported(self):
        # a target outside the reachable mean region cannot calibrate
        with pytest.raises(ConvergenceError) as exc_info:
            mcmc_calibrate(10, (0.99, 0.0), seed=23, max_rounds=12)
        # the diagnostics are pinned exactly: the seed fixes the whole run
        assert exc_info.value.diagnostics == {
            "theta": (2.6100425302133603, -1.0669005387587283),
            "residual": (-0.23837999999999993, 0.40682640000000003),
            "tol": 0.005,
            "rounds": 12,
        }
