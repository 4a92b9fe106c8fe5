"""Golden outputs of the variational solvers, compared exactly (==, no tolerance).

The reduced solve scans about a thousand candidate two-step graphons and
polishes the best bracket by golden section; ``exact_constraints`` runs
damped Newton on the Euler-Lagrange equations from a handful of starts.
Every float they return depends on the order and rounding of that
arithmetic, so any change to the grid, the starts, the residual or the
block-value formulas shows up here as an inequality. That the
``exact_constraints`` answers are stationary points, independently of
these bits, is checked in ``test_optimality.py``.
"""

import pytest

from ergraphon import ExclusionReport, curve_sweep, exclusion_scan, solve_microcanonical

# (t1, eps) -> (lam, g11, g12, g22, entropy, iterations, case) of the reduced
# solve at t2 = t1^3 (1 - eps): case I and case II, t1 on both sides of 1/2
REDUCED = {
    (0.2, 0.0001): (0.5, -0.009283177667227312, 0.009283177667227312, -0.009283177667227312, -0.25006652028328197, 1046, 'I'),  # noqa: E501
    (0.35, 0.001): (0.5, -0.0349999999999994, 0.0349999999999994, -0.0349999999999994, -0.32237547353069257, 1046, 'I'),  # noqa: E501
    (0.45, 0.01): (0.5, -0.09694956105143486, 0.09694956105143486, -0.09694956105143486, -0.33451167832873024, 1045, 'I'),  # noqa: E501
    (0.5, 0.0001): (0.5, -0.023207944168063047, 0.023207944168063047, -0.023207944168063047, -0.3460347880410707, 1046, 'I'),  # noqa: E501
    (0.55, 1e-06): (0.04967942371761894, -0.10520981884277886, 0.005499999999990786, -0.0002875206927701584, -0.3440390329411397, 1047, 'II'),  # noqa: E501
    (0.55, 0.01): (0.5, -0.11849390795175341, 0.11849390795175341, -0.11849390795175341, -0.32974372082110576, 1045, 'I'),  # noqa: E501
    (0.6, 0.001): (0.1966708371839765, -0.2450782762666146, 0.05999999999999945, -0.014689184430543257, -0.3327946646980398, 1047, 'II'),  # noqa: E501
    (0.7, 0.0001): (0.07029729948050648, -0.4297047530474363, 0.03249112183528539, -0.002456740333051006, -0.3042909392688863, 1046, 'II'),  # noqa: E501
    (0.8, 0.01): (0.19157112031416168, -0.7273360285047222, 0.17235477520255085, -0.04084242684387931, -0.20476239507795305, 1045, 'II'),  # noqa: E501
    (0.9, 1e-06): (0.011005574436926745, -0.8087674006669997, 0.009000000000134241, -0.00010015240467854504, -0.16242761118519833, 1046, 'II'),  # noqa: E501
}
# (t1, sign) -> the same tuple for exact_constraints at t2 = t1^3 (1 + sign 1e-4);
# there the iterations entry counts Euler-Lagrange residual evaluations
EXACT = {
    (0.3, 1.0): (1.875221845333774e-05, 0.6918454457680419, 0.3999684663976843, -1.5001116705881667e-05, -0.30542579619275306, 1082, 'II'),  # noqa: E501
    (0.7, -1.0): (0.07037648447815266, -0.4295794627501698, 0.03232050148125509, -0.0024316213979346246, -0.3042910636767462, 36, 'II'),  # noqa: E501
}
# curve_sweep([0.3, 0.7], [1e-5, 1e-4, 1e-3], "both")
CURVE = [
    {'t1': 0.3, 'eps': 1e-05, 'side': 'below', 'pred': 4.973130893156552e-05, 'numeric': 4.973421447113102e-05, 'rel_err': 5.8424755509682635e-05, 'exponent': 0.6667591264287184},  # noqa: E501
    {'t1': 0.3, 'eps': 0.0001, 'side': 'below', 'pred': 0.00023083228821770194, 'numeric': 0.00023089492602007544, 'rel_err': 0.00027135632912161066, 'exponent': 0.6667591264287184},  # noqa: E501
    {'t1': 0.3, 'eps': 0.001, 'side': 'below', 'pred': 0.0010714285714285717, 'numeric': 0.001072782067246092, 'rel_err': 0.0012632627630188827, 'exponent': 0.6670971159049283},  # noqa: E501
    {'t1': 0.7, 'eps': 1e-05, 'side': 'below', 'pred': 0.00024088450761043122, 'numeric': 0.00024316377760780217, 'rel_err': 0.00946208629181367, 'exponent': 0.6714673561595763},  # noqa: E501
    {'t1': 0.7, 'eps': 0.0001, 'side': 'below', 'pred': 0.00111808684071489, 'numeric': 0.0011412117585604675, 'rel_err': 0.02068257759906358, 'exponent': 0.6714673561595763},  # noqa: E501
    {'t1': 0.7, 'eps': 0.001, 'side': 'below', 'pred': 0.005189699394871621, 'numeric': 0.005429296942413231, 'rel_err': 0.04616790478816095, 'exponent': 0.6773773572097382},  # noqa: E501
    {'t1': 0.3, 'eps': 1e-05, 'side': 'above', 'pred': 2.118244650968009e-05, 'numeric': 2.118213378921041e-05, 'rel_err': 1.4763189395263286e-05, 'exponent': 0.9999422560759701},  # noqa: E501
    {'t1': 0.3, 'eps': 0.0001, 'side': 'above', 'pred': 0.00021182446509680089, 'numeric': 0.00021179317593600366, 'rel_err': 0.0001477126864591551, 'exponent': 0.9999422560759701},  # noqa: E501
    {'t1': 0.3, 'eps': 0.001, 'side': 'above', 'pred': 0.0021182446509680087, 'numeric': 0.0021150988837957962, 'rel_err': 0.0014850820800018892, 'exponent': 0.9994187132043901},  # noqa: E501
    {'t1': 0.7, 'eps': 1e-05, 'side': 'above', 'pred': 2.1182446509680092e-05, 'numeric': 2.118213378921041e-05, 'rel_err': 1.4763189395423233e-05, 'exponent': 0.9999422560758567},  # noqa: E501
    {'t1': 0.7, 'eps': 0.0001, 'side': 'above', 'pred': 0.0002118244650968009, 'numeric': 0.00021179317593594815, 'rel_err': 0.00014771268672134508, 'exponent': 0.9999422560758567},  # noqa: E501
    {'t1': 0.7, 'eps': 0.001, 'side': 'above', 'pred': 0.002118244650968009, 'numeric': 0.0021150988837957407, 'rel_err': 0.0014850820800283, 'exponent': 0.9994187132044919},  # noqa: E501
]
EXCLUSION = ExclusionReport(  # exclusion_scan(0.6)
    t1=0.6,
    scales=(0.01, 0.001, 0.0001, 1e-05, 1.0000000000000002e-06),
    exponents={'1a': 0.6666666666666663, '1b': 0.7009777844796908, '1c': 0.6481376412537807,
               '2': 0.6666666666666665, '3': 0.6666666666666664, '4': 0.6666666666666664},
    k2_positive={'1a': True, '1b': True, '1c': True, '2': True, '3': True, '4': True},
    reduced_attainable=True,
    reduced_entropy_gap=0.0001227192591857773,
)


def _key(report):
    a = report.ansatz
    return (a.lam, a.g11, a.g12, a.g22, report.entropy, report.iterations, report.case_label)


@pytest.mark.parametrize("t1, eps", sorted(REDUCED))
def test_reduced_solve_golden(t1, eps):
    assert _key(solve_microcanonical(t1, t1 ** 3 * (1.0 - eps))) == REDUCED[(t1, eps)]


@pytest.mark.parametrize("t1, sign", sorted(EXACT))
def test_exact_constraints_golden(t1, sign):
    report = solve_microcanonical(t1, t1 ** 3 * (1.0 + sign * 1e-4), mode="exact_constraints")
    assert _key(report) == EXACT[(t1, sign)]


def test_curve_sweep_both_golden():
    assert curve_sweep([0.3, 0.7], [1e-5, 1e-4, 1e-3], "both") == CURVE


def test_exclusion_scan_golden():
    assert exclusion_scan(0.6) == EXCLUSION
