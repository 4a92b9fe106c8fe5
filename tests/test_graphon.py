"""Step-graphon functionals against brute-force oracles, and the explicit
near-line optimizers against their constraint targets."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergraphon import (
    DomainError,
    EpsilonTooLargeError,
    StepGraphon,
    above_line_graphon,
    below_line_global_graphon,
    below_line_local_graphon,
    bernoulli_entropy,
    bernoulli_entropy_deriv,
    bregman_quotient_min,
    density_pair,
    edge_density,
    entropy_functional,
    finite_graph_to_graphon,
    scallop_c,
    scallop_graphon,
    scallop_p,
    scallop_point,
    triangle_density,
)
from ergraphon.entropy import _entropy_vec
from ergraphon.optimize import loglog_slope


def brute_edge(h):
    m, v = h.measures, h.values
    total = 0.0
    for i in range(len(m)):
        for j in range(len(m)):
            total += m[i] * m[j] * v[i, j]
    return total


def brute_triangle(h):
    m, v = h.measures, h.values
    total = 0.0
    for i in range(len(m)):
        for j in range(len(m)):
            for k in range(len(m)):
                total += m[i] * m[j] * m[k] * v[i, j] * v[j, k] * v[k, i]
    return total


def brute_entropy(h):
    m, v = h.measures, h.values
    total = 0.0
    for i in range(len(m)):
        for j in range(len(m)):
            total += m[i] * m[j] * bernoulli_entropy(float(v[i, j]))
    return total


def random_graphon(rng, k=None):
    k = k or rng.integers(1, 6)
    measures = rng.random(k) + 0.05
    measures = measures / measures.sum()
    vals = rng.random((k, k))
    vals = (vals + vals.T) / 2
    return StepGraphon(measures, vals)


class TestStepGraphon:
    def test_validation(self):
        with pytest.raises(DomainError):
            StepGraphon(np.array([0.5, 0.4]), np.zeros((2, 2)))  # measures != 1
        with pytest.raises(DomainError):
            StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 0.3], [0.2, 0.0]]))
        with pytest.raises(DomainError):
            StepGraphon(np.array([1.0]), np.array([[1.5]]))

    @pytest.mark.parametrize("measures, values, message", [
        ([math.nan, 0.5], [[0.1, 0.2], [0.2, 0.3]], "block measures must be positive"),
        ([0.5, math.nan], [[0.1, 0.2], [0.2, 0.3]], "block measures must be positive"),
        ([0.0, 1.0], [[0.1, 0.2], [0.2, 0.3]], "block measures must be positive"),
        ([], np.zeros((0, 0)), "block measures must be positive"),
        ([0.5, 0.4], [[0.1, 0.2], [0.2, 0.3]], "block measures must sum to 1, got"),
        ([0.5, 0.5], [[0.1, 0.2, 0.3]], "value matrix shape (1, 3) does not match 2 blocks"),
        ([0.5, 0.5], [[math.nan, 0.2], [0.2, 0.3]], "block values must lie in [0, 1]"),
        ([0.5, 0.5], [[0.1, math.nan], [math.nan, 0.3]], "block values must lie in [0, 1]"),
        ([0.5, 0.5], [[0.1, 0.2], [0.2, 1.0 + 1e-9]], "block values must lie in [0, 1]"),
        ([0.5, 0.5], [[0.1, 0.2], [0.25, 0.3]], "value matrix must be symmetric"),
    ])
    def test_validation_messages(self, measures, values, message):
        with pytest.raises(DomainError) as exc:
            StepGraphon(np.array(measures), np.array(values))
        assert type(exc.value) is DomainError
        assert str(exc.value).startswith(message)

    def test_values_within_tolerance_are_clipped(self):
        h = StepGraphon(np.array([0.5, 0.5]), np.array([[-1e-13, 0.2], [0.2, 1.0 + 1e-13]]))
        assert h.values.tolist() == [[0.0, 0.2], [0.2, 1.0]]

    def test_owns_its_arrays(self):
        m = np.array([0.3, 0.7])
        v = np.array([[0.2, 0.5], [0.5, 0.9]])
        h = StepGraphon(m, v)
        before = (edge_density(h), triangle_density(h), entropy_functional(h))
        m[0] = 5.0
        v[:] = 1.0
        assert h.measures.tolist() == [0.3, 0.7]
        assert h.values.tolist() == [[0.2, 0.5], [0.5, 0.9]]
        assert (edge_density(h), triangle_density(h), entropy_functional(h)) == before
        assert not h.measures.flags.writeable and not h.values.flags.writeable
        assert m.flags.writeable and v.flags.writeable

    def test_functionals_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            h = random_graphon(rng)
            assert edge_density(h) == pytest.approx(brute_edge(h), abs=1e-14)
            assert triangle_density(h) == pytest.approx(brute_triangle(h), abs=1e-14)
            assert entropy_functional(h) == pytest.approx(brute_entropy(h), abs=1e-14)

    def test_constant_graphon_values(self):
        h = StepGraphon(np.array([1.0]), np.array([[0.4]]))
        assert edge_density(h) == pytest.approx(0.4, abs=1e-15)
        assert triangle_density(h) == pytest.approx(0.064, abs=1e-15)
        for u in np.linspace(0.01, 0.99, 25):
            hu = StepGraphon(np.array([1.0]), np.array([[u]]))
            assert triangle_density(hu) == pytest.approx(u**3, abs=1e-14)

    def test_two_block_checkerboard(self):
        h = StepGraphon(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert edge_density(h) == pytest.approx(0.5, abs=1e-15)
        assert triangle_density(h) == pytest.approx(0.25, abs=1e-15)

    def test_entropy_special_values(self):
        const = StepGraphon(np.array([1.0]), np.array([[0.5]]))
        assert entropy_functional(const) == pytest.approx(-math.log(2) / 2, rel=1e-15)
        zero_one = StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert entropy_functional(zero_one) == 0.0
        mixed = StepGraphon(np.array([0.5, 0.5]), np.array([[0.3, 0.7], [0.7, 0.3]]))
        assert entropy_functional(mixed) == pytest.approx(
            bernoulli_entropy(0.3), rel=1e-14
        )

    def test_refinement_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_graphon(rng)
            i = int(rng.integers(0, h.n_blocks))
            frac = float(rng.uniform(0.2, 0.8))
            m = list(h.measures)
            split = [m[i] * frac, m[i] * (1 - frac)]
            new_m = np.array(m[:i] + split + m[i + 1 :])
            v = h.values
            new_v = np.insert(v, i, v[i, :], axis=0)
            new_v = np.insert(new_v, i, new_v[:, i], axis=1)
            h2 = StepGraphon(new_m, new_v)
            assert edge_density(h2) == pytest.approx(edge_density(h), abs=1e-12)
            assert triangle_density(h2) == pytest.approx(triangle_density(h), abs=1e-12)
            assert entropy_functional(h2) == pytest.approx(entropy_functional(h), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h = random_graphon(rng, k=4)
            perm = rng.permutation(4)
            h2 = h.permuted(perm)
            assert edge_density(h2) == pytest.approx(edge_density(h), abs=1e-14)
            assert triangle_density(h2) == pytest.approx(triangle_density(h), abs=1e-14)
            assert entropy_functional(h2) == pytest.approx(entropy_functional(h), abs=1e-14)

    def test_serialization_roundtrip_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = random_graphon(rng)
            h2 = StepGraphon.from_text(h.to_text())
            assert np.array_equal(h.measures, h2.measures)
            assert np.array_equal(h.values, h2.values)

    @pytest.mark.parametrize("text", ["0.5 x\n1 1\n1 1\n", "0.5 0.5\n1 1\n1\n", "\n"])
    def test_malformed_text_is_a_domain_error(self, text):
        with pytest.raises(DomainError):
            StepGraphon.from_text(text)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(6)
        h = random_graphon(rng, k=3)
        nsamp = 10**6
        edges_cum = np.cumsum(h.measures)
        xs = np.searchsorted(edges_cum, rng.random(nsamp))
        ys = np.searchsorted(edges_cum, rng.random(nsamp))
        zs = np.searchsorted(edges_cum, rng.random(nsamp))
        v = h.values
        t1_samples = v[xs, ys]
        t2_samples = v[xs, ys] * v[ys, zs] * v[zs, xs]
        for samples, exact in ((t1_samples, edge_density(h)), (t2_samples, triangle_density(h))):
            est = samples.mean()
            se = samples.std(ddof=1) / math.sqrt(nsamp)
            assert abs(est - exact) < 4 * se + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_density_bounds_property(self, seed):
        h = random_graphon(np.random.default_rng(seed))
        pair = density_pair(h)  # raises if t2 exceeds t1^(3/2) bound
        assert 0.0 <= pair.t1 <= 1.0
        assert 0.0 <= pair.t2 <= 1.0


def reference_checks(measures, values):
    """(measures, values) as the StepGraphon constructor first checked and stored them.

    The reference for the constructor's checks: the same order, tolerances
    and messages, written with ``m.min()``, ``m.sum()``, ``v.min()``,
    ``v.max()`` and ``(v == v.T).all()``.
    """
    m = np.array(measures, dtype=float).reshape(-1)
    v = np.array(values, dtype=float)
    if m.size == 0 or not m.min() > 0.0:
        raise DomainError("block measures must be positive")
    total = m.sum()
    if abs(float(total) - 1.0) > 1e-12:
        raise DomainError(f"block measures must sum to 1, got {total!r}")
    if v.shape != (m.size, m.size):
        raise DomainError(f"value matrix shape {v.shape} does not match {m.size} blocks")
    lo, hi = v.min(), v.max()
    if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
        raise DomainError("block values must lie in [0, 1]")
    if not (v == v.T).all():
        raise DomainError("value matrix must be symmetric")
    if lo < 0.0 or hi > 1.0:
        v = np.clip(v, 0.0, 1.0)
    return m, v


# values at and beyond the edges of what the checks accept
EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.0,
               1.0 - 2.0 ** -53, -5e-13, 1.0 + 5e-13, -1e-12, 1.0 + 1e-12,
               -2e-12, 1.0 + 2e-12, 0.5)
any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-0.1, 1.1),
                      st.floats(allow_nan=True, allow_infinity=True))
# [0, 1] and the values within the 1e-12 tolerance outside it, which are clipped
unit_float = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    (0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, -5e-13, 1.0 + 5e-13, -1e-12, 1.0 + 1e-12)))


@st.composite
def constructor_inputs(draw):
    """(measures, values) of 1-4 blocks: valid, nearly valid, malformed or empty."""
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["partition"] * 3 + ["perturbed", "arbitrary", "empty"]))
    if kind == "empty":
        measures = []
    elif kind == "arbitrary":
        measures = draw(st.lists(any_float, min_size=k, max_size=k))
    else:
        w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
        measures = (w / w.sum()).tolist()
        if kind == "perturbed":
            measures[draw(st.integers(0, k - 1))] = draw(any_float)
    shape = draw(st.sampled_from(["flat", "row", "column"]))
    if shape != "flat" and measures:
        measures = [measures] if shape == "row" else [[x] for x in measures]
    kv = draw(st.sampled_from([k, k, k, k, k + 1, max(k - 1, 0)]))
    entry = draw(st.sampled_from([unit_float, unit_float, any_float]))
    values = np.array(draw(st.lists(entry, min_size=kv * kv, max_size=kv * kv)),
                      dtype=float).reshape(kv, kv)
    if draw(st.booleans()):
        values = np.triu(values) + np.triu(values, 1).T
    return measures, values


class TestChecksAgainstReference:
    @given(constructor_inputs())
    @settings(max_examples=1500, deadline=None)
    def test_same_error_or_same_arrays(self, inputs):
        measures, values = inputs
        try:
            want = reference_checks(np.array(measures), values)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                StepGraphon(np.array(measures), values)
            assert str(got.value) == str(exc)
            return
        h = StepGraphon(np.array(measures), values)
        for got, ref in zip((h.measures, h.values), want):
            assert (got.shape, got.dtype, got.tobytes()) == (ref.shape, ref.dtype, ref.tobytes())
            assert not got.flags.writeable
        assert h._interior == bool(((h.values > 0.0) & (h.values < 1.0)).all())

    @pytest.mark.parametrize("measures, values", [
        ([], np.zeros((0, 0))),
        ([], []),
        ([0.5, 0.5], np.zeros((0, 0))),
        (1.0, [[0.3]]),
        ([[0.25, 0.75]], [[0.1, 0.2], [0.2, 0.3]]),
        ([0.5, 0.5], [[-0.0, 0.0], [0.0, 5e-324]]),
        ([0.5, 0.5], [[0.1, 0.0], [-0.0, 0.3]]),
    ])
    def test_corner_inputs(self, measures, values):
        try:
            want = reference_checks(measures, values)
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                StepGraphon(measures, values)
            return
        h = StepGraphon(measures, values)
        assert [a.tobytes() for a in (h.measures, h.values)] == [a.tobytes() for a in want]


@st.composite
def entropy_graphons(draw):
    """Graphons of 1-6 blocks whose values include 0, 1 and clipped values."""
    k = draw(st.integers(1, 6))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
    entry = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        (0.0, 1.0, -0.0, 5e-324, 1.0 - 2.0 ** -53, -5e-13, 1.0 + 5e-13, 0.5)))
    v = np.array(draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
    return StepGraphon(w / w.sum(), np.triu(v) + np.triu(v, 1).T)


class TestEntropyFunctionalBits:
    @given(entropy_graphons())
    @settings(max_examples=1500, deadline=None)
    def test_same_bits_as_masked_formula(self, h):
        m = h.measures
        assert entropy_functional(h).hex() == float(m @ _entropy_vec(h.values) @ m).hex()

    @pytest.mark.parametrize("k", [8, 50, 300])
    def test_same_bits_on_larger_graphons(self, k):
        rng = np.random.default_rng(k)
        for zeros in (False, True):
            h = random_graphon(rng, k=k)
            if zeros:
                v = np.where(rng.random((k, k)) < 0.2, 0.0, h.values)
                h = StepGraphon(h.measures, np.minimum(v, v.T))
            assert h._interior is not zeros
            m = h.measures
            assert entropy_functional(h).hex() == float(m @ _entropy_vec(h.values) @ m).hex()


class TestScallop:
    def test_corner_values(self):
        assert scallop_c(2, 2 / 3) == pytest.approx(1 / 3, rel=1e-12)
        assert scallop_p(2, 2 / 3) == pytest.approx(1.0, rel=1e-12)

    def test_c_formula_and_range(self):
        assert scallop_c(2, 0.6) == pytest.approx(0.43874258867227847, rel=1e-13)
        for ell in (2, 3, 4):
            lo, hi = (ell - 1) / ell, ell / (ell + 1)
            for t1 in np.linspace(lo + 1e-6, hi, 25):
                c = scallop_c(ell, float(t1))
                assert 1 / (ell + 1) <= c < 1 / ell

    def test_p_value_and_range(self):
        c = scallop_c(2, 0.6)
        expected = 4 * c * (1 - 2 * c) / (1 - c) ** 2
        assert scallop_p(2, 0.6) == pytest.approx(expected, rel=1e-14)
        # frozen: 25-digit evaluation of the closed form
        assert scallop_p(2, 0.6) == pytest.approx(0.6825496411794466, rel=1e-13)
        for ell in (2, 3):
            lo, hi = (ell - 1) / ell, ell / (ell + 1)
            for t1 in np.linspace(lo + 1e-6, hi, 25):
                assert 0.0 < scallop_p(ell, float(t1)) <= 1.0

    def test_piece_three_range(self):
        c = scallop_c(3, 0.7)
        assert 0.25 <= c < 1 / 3

    def test_domain(self):
        with pytest.raises(DomainError):
            scallop_c(2, 0.7)  # belongs to piece 3
        with pytest.raises(DomainError):
            scallop_c(1, 0.3)

    def test_graphon_hits_edge_density(self):
        for ell, t1 in ((2, 0.55), (2, 0.6), (2, 2 / 3), (3, 0.68), (3, 0.7), (4, 0.78)):
            g = scallop_graphon(ell, t1)
            assert edge_density(g) == pytest.approx(t1, abs=1e-10)

    def test_last_two_blocks_create_no_triangles(self):
        g = scallop_graphon(3, 0.7)
        # triangle contribution restricted to the last two blocks vanishes
        idx = [g.n_blocks - 2, g.n_blocks - 1]
        sub_m = g.measures[idx]
        sub_v = g.values[np.ix_(idx, idx)]
        total = 0.0
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    total += (
                        sub_m[i] * sub_m[j] * sub_m[k]
                        * sub_v[i, j] * sub_v[j, k] * sub_v[k, i]
                    )
        assert total == 0.0
        assert g.values[-1, -1] == 0.0
        assert g.values[-2, -2] == 0.0

    def test_continuity_across_pieces(self):
        # at the seam t1 = 2/3 the piece-2 corner (p = 1) and the incoming
        # piece-3 graphon (p -> 0) describe the same complete 3-partite limit
        g2 = scallop_graphon(2, 2 / 3)
        g3 = scallop_graphon(3, 2 / 3 + 1e-9)
        assert triangle_density(g2) == pytest.approx(2 / 9, rel=1e-8)
        assert triangle_density(g3) == pytest.approx(triangle_density(g2), abs=1e-4)
        assert scallop_c(3, 2 / 3 + 1e-9) == pytest.approx(1 / 3, abs=1e-4)

    def test_scallop_point_bundle(self):
        pt = scallop_point(2, 0.6)
        assert pt.c == scallop_c(2, 0.6)
        assert pt.p == scallop_p(2, 0.6)
        assert pt.ell == 2


class TestAboveLineGraphon:
    def test_frozen_parameters_at_03(self):
        eps = 1e-4
        g = above_line_graphon(0.3, eps)
        lam = 1 / (1 - 0.6) ** 2
        assert lam == pytest.approx(6.25)
        assert g.measures[0] == pytest.approx(lam * eps, rel=1e-12)
        # mixed 0.7 + h1 eps with h1 = -2.5; bulk 0.3 + h2 eps with h2 = -5
        assert g.values[0, 1] == pytest.approx(0.7 - 2.5 * eps, rel=1e-12)
        assert g.values[1, 1] == pytest.approx(0.3 - 5.0 * eps, rel=1e-12)
        # corner value is exactly 343/370: I'(h) = 3 I'(0.7) means
        # h/(1-h) = (7/3)^3
        assert g.values[0, 0] == pytest.approx(343 / 370, abs=1e-9)

    def test_corner_solves_stationarity(self):
        for t1 in (0.3, 0.7, 0.45):
            g = above_line_graphon(t1, 1e-5)
            h11 = float(g.values[0, 0])
            assert bernoulli_entropy_deriv(h11, 1) == pytest.approx(
                3 * bernoulli_entropy_deriv(1 - t1, 1), abs=1e-9
            )

    def test_triangle_constraint_first_order(self):
        for t1 in (0.3, 0.7):
            eps_grid = [1e-5, 3e-5, 1e-4, 3e-4, 1e-3]
            resid = [
                abs(triangle_density(above_line_graphon(t1, e)) - (t1**3 + 3 * t1 * e))
                for e in eps_grid
            ]
            assert loglog_slope(eps_grid, resid) > 1.5  # o(eps)

    def test_edge_constraint_first_order(self):
        for t1 in (0.3, 0.7):
            eps_grid = [1e-5, 1e-4, 1e-3]
            resid = [
                abs(edge_density(above_line_graphon(t1, e)) - t1) for e in eps_grid
            ]
            assert loglog_slope(eps_grid, resid) > 1.9  # exact to first order

    def test_eps_too_large(self):
        with pytest.raises(EpsilonTooLargeError):
            above_line_graphon(0.3, 0.08)  # bulk 0.3 - 5 eps < 0

    def test_rejects_half(self):
        with pytest.raises(DomainError):
            above_line_graphon(0.5, 1e-4)


class TestBelowLineGraphons:
    def test_global_exact_values(self):
        g = below_line_global_graphon(0.3, 1e-3)
        assert np.allclose(g.measures, [0.5, 0.5])
        assert g.values[0, 0] == pytest.approx(0.27, rel=1e-12)
        assert g.values[0, 1] == pytest.approx(0.33, rel=1e-12)

    def test_global_constraints_exact(self):
        for t1 in (0.2, 0.3, 0.5):
            for eps in (1e-5, 1e-3, 1e-2):
                g = below_line_global_graphon(t1, eps)
                assert edge_density(g) == pytest.approx(t1, abs=1e-15)
                assert triangle_density(g) == pytest.approx(t1**3 * (1 - eps), abs=1e-15)

    def test_global_domain(self):
        with pytest.raises(DomainError):
            below_line_global_graphon(0.7, 1e-3)  # local regime
        with pytest.raises(EpsilonTooLargeError):
            below_line_global_graphon(0.3, 1.5)

    def test_local_structure(self):
        t1, eps = 0.7, 1e-4
        res = bregman_quotient_min(t1)
        g = below_line_local_graphon(t1, eps)
        delta = (t1 / abs(res.x)) * eps ** (1 / 3)
        assert g.measures[1] == pytest.approx(delta, rel=1e-10)
        assert g.values[1, 1] == pytest.approx(t1 + res.x, rel=1e-9)
        assert g.values[0, 1] == pytest.approx(t1 + t1 * eps ** (1 / 3), rel=1e-12)

    def test_local_edge_residual_order(self):
        t1 = 0.7
        eps_grid = [1e-6, 1e-5, 1e-4, 1e-3]
        resid = [abs(edge_density(below_line_local_graphon(t1, e)) - t1) for e in eps_grid]
        slope = loglog_slope(eps_grid, resid)
        assert slope == pytest.approx(4 / 3, abs=0.05)

    def test_local_triangle_residual_small_o_eps(self):
        t1 = 0.7
        eps_grid = [1e-6, 1e-5, 1e-4, 1e-3]
        resid = [
            abs(triangle_density(below_line_local_graphon(t1, e)) - t1**3 * (1 - e))
            for e in eps_grid
        ]
        assert loglog_slope(eps_grid, resid) > 1.2

    def test_local_vanishing_perturbation(self):
        t1 = 0.6
        g = below_line_local_graphon(t1, 1e-9)
        assert g.values[0, 0] == pytest.approx(t1, abs=1e-5)
        assert g.values[0, 1] == pytest.approx(t1, abs=1e-2)
        assert g.measures[1] < 1e-2

    def test_local_entropy_rate(self):
        # entropy gap tracks the quotient minimum times eps^(2/3); the
        # relative deviation is O(eps^(1/3)) and must shrink with eps
        for t1 in (0.6, 0.7):
            coeff = bregman_quotient_min(t1).value
            rels = []
            for eps in (1e-7, 1e-8):
                gap = entropy_functional(below_line_local_graphon(t1, eps)) - bernoulli_entropy(t1)
                rels.append(abs(gap / (coeff * eps ** (2 / 3)) - 1.0))
            assert rels[-1] < 0.03
            assert rels[1] < rels[0]


class TestFiniteGraphEmbedding:
    def test_triangle_graph(self):
        a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        h = finite_graph_to_graphon(a)
        assert edge_density(h) == pytest.approx(2 / 3, abs=1e-15)
        assert triangle_density(h) == pytest.approx(6 / 27, abs=1e-15)

    def test_empty_graph(self):
        h = finite_graph_to_graphon(np.zeros((4, 4), dtype=int))
        assert edge_density(h) == 0.0
        assert triangle_density(h) == 0.0

    def test_complete_graphs(self):
        for n in (3, 5, 8):
            a = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
            h = finite_graph_to_graphon(a)
            assert edge_density(h) == pytest.approx((n - 1) / n, abs=1e-14)
            assert triangle_density(h) == pytest.approx((n - 1) * (n - 2) / n**2, abs=1e-14)

    def test_rejects_loops_and_asymmetry(self):
        with pytest.raises(DomainError):
            finite_graph_to_graphon(np.eye(3, dtype=int))
        with pytest.raises(DomainError):
            finite_graph_to_graphon(np.array([[0, 1], [0, 0]]))


class TestConstructedDensityBounds:
    def test_all_constructions_admissible(self):
        graphons = [
            scallop_graphon(2, 0.6),
            scallop_graphon(3, 0.7),
            above_line_graphon(0.3, 1e-4),
            above_line_graphon(0.7, 1e-4),
            below_line_global_graphon(0.3, 1e-3),
            below_line_local_graphon(0.7, 1e-3),
        ]
        for g in graphons:
            pair = density_pair(g)
            assert pair.t2 <= pair.t1**1.5 + 1e-12
