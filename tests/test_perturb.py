"""Constraint residuals against brute-force integrals, the reduced family's
exactness, the case expansions, and both solver modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergraphon import (
    ConvergenceError,
    DomainError,
    EpsilonTooLargeError,
    InfeasibleError,
    PerturbationAnsatz,
    above_line_coefficient,
    above_line_graphon,
    ansatz_graphon,
    below_line_global_graphon,
    below_line_local_graphon,
    bernoulli_entropy,
    bregman_quotient_min,
    block_entropy_rate,
    case_entropy,
    constraint_residuals,
    edge_density,
    entropy_functional,
    entropy_taylor_gap_series,
    exclusion_scan,
    g12_eliminating_k1,
    k2_quadratic_form,
    reduced_ansatz,
    solve_microcanonical,
    specific_relative_entropy,
    triangle_density,
)
from ergraphon.optimize import loglog_slope


def brute_k_integrals(a: PerturbationAnsatz):
    """Independent block-summation of the three constraint integrals."""
    lams = [a.lam, 1.0 - a.lam]
    d = [[a.g11, a.g12], [a.g12, a.g22]]
    k1 = sum(lams[i] * lams[j] * d[i][j] for i in range(2) for j in range(2))
    quad = sum(
        lams[i] * lams[j] * lams[k] * d[i][j] * d[j][k]
        for i in range(2) for j in range(2) for k in range(2)
    )
    cubic = sum(
        lams[i] * lams[j] * lams[k] * d[i][j] * d[j][k] * d[k][i]
        for i in range(2) for j in range(2) for k in range(2)
    )
    return k1, quad, cubic


def random_ansatz(rng, t1):
    while True:
        lam = rng.uniform(0.05, 0.95)
        g = rng.uniform(-t1, 1 - t1, size=3)
        a = PerturbationAnsatz(lam, *g)
        if a.in_unit_box(t1):
            return a


class TestResiduals:
    def test_zero_perturbation(self):
        r = constraint_residuals(0.4, PerturbationAnsatz(0.5, 0.0, 0.0, 0.0))
        assert (r.k1, r.k2, r.k3) == (0.0, 0.0, 0.0)

    def test_symmetric_split_closed_form(self):
        # lam = 1/2, g11 = g22 = -c, g12 = +c gives (0, 0, -c^3)
        t1, c = 0.3, 0.05
        r = constraint_residuals(t1, PerturbationAnsatz(0.5, -c, c, -c))
        assert r.k1 == pytest.approx(0.0, abs=1e-16)
        assert r.k2 == pytest.approx(0.0, abs=1e-16)
        assert r.k3 == pytest.approx(-c**3, rel=1e-12)

    def test_matches_brute_force_integrals(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t1 = rng.uniform(0.15, 0.8)
            a = random_ansatz(rng, t1)
            r = constraint_residuals(t1, a)
            k1, quad, cubic = brute_k_integrals(a)
            assert r.k1 == pytest.approx(k1, abs=1e-14)
            assert r.k2 == pytest.approx(3 * t1 * quad, abs=1e-12)
            assert r.k3 == pytest.approx(cubic, abs=1e-14)

    def test_density_identity(self):
        # T1 = t1 + K1 and T2 = t1^3 + 3 t1^2 K1 + K2 + K3 exactly
        rng = np.random.default_rng(12)
        for _ in range(100):
            t1 = rng.uniform(0.15, 0.8)
            a = random_ansatz(rng, t1)
            r = constraint_residuals(t1, a)
            h = ansatz_graphon(t1, a)
            assert edge_density(h) == pytest.approx(t1 + r.k1, abs=1e-13)
            assert triangle_density(h) == pytest.approx(
                t1**3 + 3 * t1**2 * r.k1 + r.k2 + r.k3, abs=1e-13
            )

    def test_quadratic_form_matches_when_k1_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            t1 = rng.uniform(0.15, 0.8)
            lam = rng.uniform(0.05, 0.95)
            g11 = rng.uniform(-0.2, 0.2)
            g22 = rng.uniform(-0.2, 0.2)
            g12 = g12_eliminating_k1(lam, g11, g22)
            a = PerturbationAnsatz(lam, g11, g12, g22)
            r = constraint_residuals(t1, a)
            assert r.k1 == pytest.approx(0.0, abs=1e-15)
            assert k2_quadratic_form(t1, lam, g11, g22) == pytest.approx(r.k2, abs=1e-12)

    @given(
        t1=st.floats(0.1, 0.85),
        lam=st.floats(0.05, 0.95),
        g11=st.floats(-0.1, 0.1),
        g12=st.floats(-0.1, 0.1),
        g22=st.floats(-0.1, 0.1),
    )
    @settings(max_examples=500, deadline=None)
    def test_k2_nonnegative_property(self, t1, lam, g11, g12, g22):
        r = constraint_residuals(t1, PerturbationAnsatz(lam, g11, g12, g22))
        assert r.k2 >= 0.0


class TestReducedAnsatz:
    def test_residuals_exact(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 100:
            t1 = rng.uniform(0.1, 0.85)
            eps = 10 ** rng.uniform(-6, -3)
            lam = rng.uniform(0.05, 0.95)
            try:
                a = reduced_ansatz(t1, eps, lam)
            except EpsilonTooLargeError:
                continue
            r = constraint_residuals(t1, a)
            assert abs(r.k1) < 1e-12
            assert abs(r.k2) < 1e-12
            assert r.k3 == pytest.approx(-t1**3 * eps, abs=1e-12)
            done += 1

    def test_densities_exact(self):
        rng = np.random.default_rng(22)
        done = 0
        while done < 100:
            t1 = rng.uniform(0.1, 0.85)
            eps = 10 ** rng.uniform(-6, -3)
            lam = rng.uniform(0.05, 0.95)
            try:
                a = reduced_ansatz(t1, eps, lam)
            except EpsilonTooLargeError:
                continue
            h = ansatz_graphon(t1, a)
            assert edge_density(h) == pytest.approx(t1, abs=1e-12)
            assert triangle_density(h) == pytest.approx(t1**3 * (1 - eps), abs=1e-12)
            done += 1

    def test_symmetric_lambda_is_global_graphon(self):
        t1, eps = 0.3, 1e-3
        a = reduced_ansatz(t1, eps, 0.5)
        h = ansatz_graphon(t1, a)
        g = below_line_global_graphon(t1, eps)
        assert np.allclose(h.measures, g.measures, atol=1e-15)
        assert np.allclose(np.sort(h.values.ravel()), np.sort(g.values.ravel()), atol=1e-15)

    def test_small_block_lambda_matches_local_graphon(self):
        # lam = delta reproduces the corner construction termwise to leading order
        t1, eps = 0.7, 1e-6
        y = bregman_quotient_min(t1).x
        delta = (t1 / abs(y)) * eps ** (1 / 3)
        a = reduced_ansatz(t1, eps, delta)
        g = below_line_local_graphon(t1, eps)
        u = eps ** (1 / 3)
        assert a.g11 == pytest.approx(y, rel=3 * u / abs(y))
        assert t1 + a.g11 == pytest.approx(g.values[1, 1], abs=2 * t1 * u)
        assert a.g12 == pytest.approx(g.values[0, 1] - t1, rel=1e-12)
        assert a.g22 == pytest.approx(g.values[0, 0] - t1, rel=3 * u)

    def test_eps_too_large(self):
        with pytest.raises(EpsilonTooLargeError):
            reduced_ansatz(0.8, 0.05, 0.5)  # t1 (1 + eps^(1/3)) > 1


class TestCaseEntropy:
    def test_case1_symmetric_split_kills_eps_term(self):
        t1, eps = 0.3, 1e-4
        val = case_entropy(t1, eps, "I", 0.5)
        expect = bernoulli_entropy(t1) + 0.5 * t1**2 / (2 * t1 * (1 - t1)) * eps ** (2 / 3)
        assert val == pytest.approx(expect, abs=1e-15)

    def test_case2_coefficient_is_block_rate(self):
        t1, eps, c = 0.7, 1e-5, 2.0
        val = case_entropy(t1, eps, "II", c)
        expect = bernoulli_entropy(t1) + block_entropy_rate(t1, c) * eps ** (2 / 3)
        assert val == pytest.approx(expect, abs=1e-15)

    def test_case1_tracks_exact_entropy(self):
        # difference is o(eps) at lam = 1/2, O(eps) otherwise
        t1 = 0.3
        for lam, min_slope in ((0.5, 1.25), (0.3, 0.95)):
            eps_grid = [1e-6, 1e-5, 1e-4, 1e-3]
            diffs = []
            for e in eps_grid:
                exact = entropy_functional(ansatz_graphon(t1, reduced_ansatz(t1, e, lam)))
                diffs.append(abs(exact - case_entropy(t1, e, "I", lam)))
            assert loglog_slope(eps_grid, diffs) > min_slope

    def test_case3_exceeds_winner_both_sides(self):
        eps = 1e-8
        # below 1/2 the winner is the symmetric split
        t1 = 0.3
        assert case_entropy(t1, eps, "III", 0.2) > case_entropy(t1, eps, "I", 0.5)
        # above 1/2 the winner is the shrinking block at its optimal size
        t1 = 0.7
        c_star = t1 / abs(bregman_quotient_min(t1).x)
        assert case_entropy(t1, eps, "III", 0.2) > case_entropy(t1, eps, "II", c_star)

    def test_case3_is_case1_at_shrinking_lam(self):
        t1, eps, rate = 0.3, 1e-6, 0.2
        assert case_entropy(t1, eps, "III", rate) == case_entropy(t1, eps, "I", eps**rate)

    def test_case3_domain(self):
        with pytest.raises(DomainError):
            case_entropy(0.3, 1.0, "III", 0.2)  # lam = eps^rate = 1
        with pytest.raises(DomainError):
            case_entropy(0.3, 1e-4, "III", 0.5)  # rate outside (0, 1/3)

    def test_case2_domain(self):
        with pytest.raises(DomainError):
            case_entropy(0.3, 1e-4, "II", 0.5)  # inner argument below zero

    def test_unknown_case(self):
        with pytest.raises(DomainError):
            case_entropy(0.3, 1e-4, "IV", 0.5)


class TestSolveReduced:
    def test_er_point_zero_perturbation(self):
        rep = solve_microcanonical(0.3, 0.027)
        assert rep.entropy == pytest.approx(bernoulli_entropy(0.3), abs=1e-15)
        assert rep.ansatz.g11 == 0.0
        assert rep.iterations == 0

    def test_below_half_symmetric_optimum(self):
        t1, eps = 0.3, 1e-3
        rep = solve_microcanonical(t1, t1**3 * (1 - eps))
        assert rep.ansatz.lam == pytest.approx(0.5, abs=1e-6)
        assert rep.case_label == "I"
        expect = bernoulli_entropy(t1) + t1 / (4 * (1 - t1)) * eps ** (2 / 3)
        assert rep.entropy == pytest.approx(expect, rel=1e-3)
        assert abs(rep.residuals.k1) < 1e-12

    def test_above_half_small_block_optimum(self):
        t1, eps = 0.7, 1e-6
        rep = solve_microcanonical(t1, t1**3 * (1 - eps))
        assert rep.case_label == "II"
        y = bregman_quotient_min(t1)
        delta = (t1 / abs(y.x)) * eps ** (1 / 3)
        assert rep.ansatz.lam == pytest.approx(delta, rel=0.10)
        expect = bernoulli_entropy(t1) + y.value * eps ** (2 / 3)
        assert rep.entropy == pytest.approx(expect, rel=1e-2)
        # the corner block carries a perturbation near y*
        assert rep.ansatz.g11 == pytest.approx(y.x, rel=0.05)

    def test_quotient_convergence_below(self):
        for t1 in (0.2, 0.3, 0.5):
            rep = solve_microcanonical(t1, t1**3 * (1 - 1e-6))
            q = (rep.entropy - bernoulli_entropy(t1)) / 1e-4
            assert q == pytest.approx(t1 / (4 * (1 - t1)), rel=2e-2)

    def test_quotient_convergence_above_half(self):
        for t1 in (0.6, 0.7, 0.8):
            rep = solve_microcanonical(t1, t1**3 * (1 - 1e-6))
            q = (rep.entropy - bernoulli_entropy(t1)) / 1e-4
            assert q == pytest.approx(bregman_quotient_min(t1).value, rel=2e-2)

    def test_infeasible_above_line(self):
        with pytest.raises(InfeasibleError):
            solve_microcanonical(0.3, 0.06)  # above the cube, reduced family

    def test_inadmissible_target(self):
        with pytest.raises(InfeasibleError):
            solve_microcanonical(0.3, 0.9)

    def test_report_serialization(self):
        rep = solve_microcanonical(0.3, 0.3**3 * (1 - 1e-3))
        text = rep.to_text()
        assert "entropy" in text and "case = I" in text
        row = rep.to_row()
        assert set(rep.ROW_FIELDS) == set(row)


class TestSolveExact:
    def test_agrees_with_reduced_below(self):
        for t1 in (0.3, 0.6, 0.7):
            for eps in (1e-4, 1e-3):
                t2 = t1**3 * (1 - eps)
                red = solve_microcanonical(t1, t2, mode="reduced")
                ex = solve_microcanonical(t1, t2, mode="exact_constraints")
                gap = abs(ex.entropy - red.entropy)
                assert gap <= 1e-8 + 0.2 * eps ** (4 / 3)
                assert ex.entropy <= red.entropy + 1e-12
                r = ex.residuals
                assert abs(r.k1) < 1e-10
                assert abs(r.k2 + r.k3 - (t2 - t1**3)) < 1e-10

    def test_above_line_structure(self):
        t1, eps = 0.3, 1e-4
        t2 = t1**3 + 3 * t1 * eps
        rep = solve_microcanonical(t1, t2, mode="exact_constraints")
        r = rep.residuals
        assert abs(r.k1) < 1e-10
        assert abs(r.k2 + r.k3 - (t2 - t1**3)) < 1e-10
        # vanishing block against a bulk near t1
        assert rep.ansatz.lam < 5e-3
        assert abs(rep.ansatz.g22) < 5e-3

    def test_er_point(self):
        rep = solve_microcanonical(0.4, 0.064, mode="exact_constraints")
        assert rep.entropy == pytest.approx(bernoulli_entropy(0.4), abs=1e-15)

    @pytest.mark.parametrize("t1", [0.3, 0.7])
    def test_vanishing_block_below_1e_minus_6(self, t1):
        # eps = 1e-8 above the line: the optimal block has measure
        # eps/(1-2 t1)^2 = 6.25e-8, and the increment is the linear rate
        eps = 1e-8
        rep = solve_microcanonical(t1, t1**3 + 3 * t1 * eps, mode="exact_constraints")
        assert rep.ansatz.lam == pytest.approx(eps / (1 - 2 * t1) ** 2, rel=1e-4)
        inc = rep.entropy - bernoulli_entropy(t1)
        assert inc == pytest.approx(above_line_coefficient(t1) * eps, rel=1e-6)

    def test_missing_reduced_seed_names_its_reason(self):
        # t1 (1 + eps^(1/3)) > 1: the reduced family, whose answer is the
        # only start below the line, leaves the box
        with pytest.raises(InfeasibleError, match=r"reduced seed.*mixed value.*> 1"):
            solve_microcanonical(0.96, 0.96**3 * (1 - 1e-4), mode="exact_constraints")


# exact_constraints answers at eps = 1e-4, recorded from the solver that
# fitted the g22 cubic on four nodes: (t1, side, lam, g11, g12, g22, entropy).
# Above the line t2 = t1^3 + 3 t1 eps, below it t2 = t1^3 (1 - eps).
EXACT_RECORDED = [
    (0.2, "above", 0.0002779622531509096, 0.7999962509713173, 0.5998285865038169,
     -0.0003336139702160341, -0.2499699695217382),
    (0.2, "below", 0.49999964484472864, -0.009283190937992347, 0.009283177667227254,
     -0.009283164396481133, -0.2500665202832821),
    (0.3, "above", 0.000627501310919043, 0.6917478349054521, 0.398937450087648,
     -0.0005012546359489079, -0.30522021467008315),
    (0.3, "below", 0.4999998604071516, -0.013924774720149434, 0.013924766500840543,
     -0.01392475828153649, -0.30520125610142673),
    (0.6, "above", 0.0024661693518796364, -0.3215902737382944, -0.2007873559059141,
     0.0009947652511015448, -0.33630309310037165),
    (0.6, "below", 0.110488019695141, -0.2242810190138753, 0.027818845446167986,
     -0.003450522037589692, -0.3357135368445636),
    (0.7, "above", 0.0006227097004527904, -0.5286667754280432, -0.40048172937603144,
     0.0004992837517691555, -0.30522031286385987),
    (0.7, "below", 0.07037647175886752, -0.42957954179746644, 0.03232050325905911,
     -0.002431621219980533, -0.3042910636767462),
]


class TestExactConstraintsRecorded:
    @pytest.mark.parametrize("t1, side, lam, g11, g12, g22, entropy", EXACT_RECORDED)
    def test_matches_recorded(self, t1, side, lam, g11, g12, g22, entropy):
        eps = 1e-4
        t2 = t1**3 + 3 * t1 * eps if side == "above" else t1**3 * (1 - eps)
        rep = solve_microcanonical(t1, t2, mode="exact_constraints")
        assert abs(rep.entropy - entropy) <= 1e-14
        # the entropy landscape is flat in lam, so the minimizer's location
        # is pinned far more loosely than its value
        a = rep.ansatz
        for got, want in zip((a.lam, a.g11, a.g12, a.g22), (lam, g11, g12, g22)):
            assert abs(got - want) <= 1e-5


# exact_constraints answers that need more than one kind of start:
# (t1, side, eps, entropy). Above the line at eps = 1e-2 and t1 <= 0.14 the
# optimum is a dense block of measure lam > 0.1. From the vanishing-block
# start at lam = eps/(1-2 t1)^2, Newton stops at a corner block of measure
# below 0.03 whose entropy is higher by 4.2e-3 (t1 = 0.14) to 3.2e-2
# (t1 = 0.05); at t1 <= 0.08 only the dense-block start reaches the optimum.
# At t1 = 0.499 the first-order measure overshoots: only the vanishing block
# started at lam = 0.2 reaches the optimum (lam = 0.1475) at eps = 1e-6, and
# only the near-symmetric split (lam = 0.3576) at eps = 1e-5.
# Below the line at t1 = 0.75 only the reduced solve's answer reaches it.
EXACT_STARTS = [
    (0.05, "above", 1e-2, -0.078859656565991),
    (0.075, "above", 1e-2, -0.11038655339979206),
    (0.08, "above", 1e-2, -0.1162509737105516),
    (0.1, "above", 1e-2, -0.1384830611493011),
    (0.14, "above", 1e-2, -0.1779308638782323),
    (0.499, "above", 1e-6, -0.34657059027529),
    (0.499, "above", 1e-5, -0.34655259011784073),
    (0.75, "below", 1e-4, -0.27979539320519453),
]


class TestExactConstraintsStarts:
    @pytest.mark.parametrize("t1, side, eps, entropy", EXACT_STARTS)
    def test_matches_recorded(self, t1, side, eps, entropy):
        t2 = t1**3 + 3 * t1 * eps if side == "above" else t1**3 * (1 - eps)
        rep = solve_microcanonical(t1, t2, mode="exact_constraints")
        assert abs(rep.entropy - entropy) <= 1e-12
        if side == "above":
            assert rep.ansatz.lam > 0.1


class TestExclusionScan:
    def test_fitted_exponents(self):
        for t1 in (0.3, 0.7):
            rep = exclusion_scan(t1)
            for case in ("1a", "1b", "1c", "2", "3", "4"):
                assert rep.k2_positive[case]
                assert rep.exponents[case] <= 2 / 3 + 0.05
                assert rep.exponents[case] < 1.0  # K2 = omega(eps)

    def test_case_1a_exponent_two_thirds(self):
        rep = exclusion_scan(0.3)
        assert rep.exponents["1a"] == pytest.approx(2 / 3, abs=0.01)

    def test_case_1c_exponent_two_thirds(self):
        rep = exclusion_scan(0.7)
        assert rep.exponents["1c"] == pytest.approx(2 / 3, abs=0.05)

    def test_reduced_branch_attainable(self):
        rep = exclusion_scan(0.3)
        assert rep.reduced_attainable
        # exact entropies track the case expansions at the probed scales
        assert rep.reduced_entropy_gap < 2e-4

    def test_rows_shape(self):
        rep = exclusion_scan(0.55)
        rows = rep.rows()
        assert len(rows) == 6
        assert all(set(r) == {"t1", "case", "k2_exponent", "k2_positive"} for r in rows)

    def test_domain(self):
        with pytest.raises(DomainError):
            exclusion_scan(0.3, eps=0.5)

    @pytest.mark.parametrize("n_scales", [0, 1])
    def test_fewer_than_two_scales(self, n_scales):
        with pytest.raises(DomainError, match="n_scales"):
            exclusion_scan(0.3, n_scales=n_scales)

    def test_case_ii_limit_names_t1_and_scale(self):
        # at t1 = 0.74 the reduced optimum at the top scale 1e-2 has
        # c = lam / eps^(1/3) < 1, outside the case-II expansion
        with pytest.raises(DomainError) as info:
            exclusion_scan(0.74)
        msg = str(info.value)
        assert "t1=0.74" in msg and "eps=0.01" in msg and "smaller eps" in msg

    def test_smaller_eps_reaches_case_ii(self):
        assert exclusion_scan(0.74, eps=1e-3).reduced_attainable

    def test_scale_below_resolution(self):
        # 1 - 1e-17 rounds to 1, so that scale's target would be t1^3 itself
        with pytest.raises(DomainError, match=r"eps=1e-17 is below the resolution .* t1=0\.6"):
            exclusion_scan(0.6, 1e-2, 20)


@pytest.mark.parametrize("call", [
    lambda: above_line_graphon(0.3, math.nan),
    lambda: below_line_global_graphon(0.3, math.nan),
    lambda: below_line_local_graphon(0.7, math.nan),
    lambda: reduced_ansatz(0.3, math.nan, 0.5),
    lambda: specific_relative_entropy(0.3, math.nan, "above"),
    lambda: specific_relative_entropy(0.3, math.nan, "below"),
    lambda: exclusion_scan(math.nan),
    lambda: entropy_taylor_gap_series(0.3, math.nan, 5),
    lambda: block_entropy_rate(0.3, math.nan),
], ids=["above_line", "below_global", "below_local", "reduced_ansatz", "sre_above",
        "sre_below", "exclusion_t1", "taylor_series", "block_rate"])
def test_nan_is_a_domain_error(call):
    # NaN fails every comparison, so a check written as eps <= 0 lets it
    # through to a later EpsilonTooLargeError or a silent nan
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError
