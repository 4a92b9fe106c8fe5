"""Golden outputs of the Metropolis sampler, compared exactly (==, no tolerance).

A seed fixes the chain: the pair draws, the acceptance draws and every
float the summaries are built from. These values were recorded before the
flip loop was last rewritten; any change to the random stream or to the
batch-means arithmetic shows up here as an inequality.
"""

import contextlib
import io
import random
from itertools import combinations

import pytest

from ergraphon import (
    DenseGraph,
    McmcSummary,
    MultiplierPair,
    mcmc_calibrate,
    mcmc_sample,
)
from ergraphon.cli import main


def _start_graph():
    rng = random.Random(5)
    edges = [(i, j) for i, j in combinations(range(10), 2) if rng.random() < 0.4]
    return DenseGraph.from_edges(10, edges)


SAMPLE_CASES = {
    "n3_theta2_pos": (
        (3, (0.3, 0.2), 5000, 1), {},
        McmcSummary(n=3, theta=MultiplierPair(theta1=0.3, theta2=0.2), steps=5000, burnin=90, seed=1, mean_t1=0.4548911662765166, se_t1=0.005884389424339414, mean_t3=0.07715160959587711, se_t3=0.0032160335165939396, mean_edge_fraction=0.6823367494147748, se_edge_fraction=0.008826584136509122, accept_rate=0.6300589390962672),  # noqa: E501
    ),
    "n7_theta2_neg": (
        (7, (0.25, -0.15), 20000, 2), {},
        McmcSummary(n=7, theta=MultiplierPair(theta1=0.25, theta2=-0.15), steps=20000, burnin=490, seed=2, mean_t1=0.49068979591836737, se_t1=0.002757783202748231, mean_t3=0.10853615160349854, se_t3=0.0018930899991092013, mean_edge_fraction=0.5724714285714285, se_edge_fraction=0.0032174137365396037, accept_rate=0.8576866764275256),  # noqa: E501
    ),
    "n30_theta2_zero": (
        (30, (0.1, 0.0), 20000, 3), {},
        McmcSummary(n=30, theta=MultiplierPair(theta1=0.1, theta2=0.0), steps=20000, burnin=9000, seed=3, mean_t1=0.5271123333333333, se_t1=0.0027604498637033596, mean_t3=0.1458032111111111, se_t3=0.00230037704908586, mean_edge_fraction=0.5452886206896551, se_edge_fraction=0.0028556377900379602, accept_rate=0.9016896551724138),  # noqa: E501
    ),
    "n30_theta2_pos": (
        (30, (-0.2, 0.4), 20000, 4), {},
        McmcSummary(n=30, theta=MultiplierPair(theta1=-0.2, theta2=0.4), steps=20000, burnin=9000, seed=4, mean_t1=0.5848191111111112, se_t1=0.004647031178954583, mean_t3=0.20715714444444444, se_t3=0.0048272719851982695, mean_edge_fraction=0.604985287356322, se_edge_fraction=0.004807273633401291, accept_rate=0.793344827586207),  # noqa: E501
    ),
    "n100_theta2_neg": (
        (100, (0.5, -0.3), 20000, 5), {},
        McmcSummary(n=100, theta=MultiplierPair(theta1=0.5, theta2=-0.3), steps=20000, burnin=100000, seed=5, mean_t1=0.58457772, se_t1=0.000692096970979291, mean_t3=0.1986019635, se_t3=0.0006956451678801936, mean_edge_fraction=0.5904825454545455, se_edge_fraction=0.0006990878494740317, accept_rate=0.8152666666666667),  # noqa: E501
    ),
    "n100_theta2_zero": (
        (100, (-0.4, 0.0), 20000, 6), {},
        McmcSummary(n=100, theta=MultiplierPair(theta1=-0.4, theta2=0.0), steps=20000, burnin=100000, seed=6, mean_t1=0.31075637, se_t1=0.0009113071812812829, mean_t3=0.029937612, se_t3=0.0002758277192092942, mean_edge_fraction=0.3138953232323232, se_edge_fraction=0.0009205123043245291, accept_rate=0.61395),  # noqa: E501
    ),
    "burnin_zero": (
        (12, (0.2, -0.1), 3000, 7), {"burnin": 0},
        McmcSummary(n=12, theta=MultiplierPair(theta1=0.2, theta2=-0.1), steps=3000, burnin=0, seed=7, mean_t1=0.506306708593889, se_t1=0.008901013907506708, mean_t3=0.127824196706036, se_t3=0.005319464709030901, mean_edge_fraction=0.5523345911933335, se_edge_fraction=0.009710196990007317, accept_rate=0.881),  # noqa: E501
    ),
    "start_graph": (
        (10, (0.0, 0.3), 4000, 8), {"start": _start_graph()},
        McmcSummary(n=10, theta=MultiplierPair(theta1=0.0, theta2=0.3), steps=4000, burnin=1000, seed=8, mean_t1=0.580445, se_t1=0.0057620728097201365, mean_t3=0.20004450000000001, se_t3=0.005972214836762959, mean_edge_fraction=0.6449388888888888, se_edge_fraction=0.006402303121911267, accept_rate=0.7184),  # noqa: E501
    ),
    "steps_not_divisible": (
        (9, (0.1, -0.2), 1001, 9), {"batches": 32},
        McmcSummary(n=9, theta=MultiplierPair(theta1=0.1, theta2=-0.2), steps=1001, burnin=810, seed=9, mean_t1=0.41889436479490244, se_t1=0.006912194352477116, mean_t3=0.06438441689897784, se_t3=0.0034736366897425226, mean_edge_fraction=0.4712561603942652, se_edge_fraction=0.007776218646536755, accept_rate=0.932633903920486),  # noqa: E501
    ),
    "fewer_steps_than_batches": (
        (8, (0.4, 0.1), 10, 10), {"burnin": 50},
        McmcSummary(n=8, theta=MultiplierPair(theta1=0.4, theta2=0.1), steps=10, burnin=50, seed=10, mean_t1=0.571875, se_t1=0.01401419171570178, mean_t3=0.172265625, se_t3=0.01441083339507556, mean_edge_fraction=0.6535714285714287, se_edge_fraction=0.016016219103659184, accept_rate=0.6666666666666666),  # noqa: E501
    ),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_mcmc_sample_golden(case):
    args, kwargs, expected = SAMPLE_CASES[case]
    assert mcmc_sample(*args, **kwargs) == expected


@pytest.mark.parametrize("target, seed, expected", [
    ((0.5, 0.125), 31, MultiplierPair(theta1=0.016563925325292002, theta2=0.012283327567802564)),
    ((0.34, 0.0387), 32, MultiplierPair(theta1=-0.3170093753213044, theta2=0.004304689346272822)),
])
def test_mcmc_calibrate_golden(target, seed, expected):
    assert mcmc_calibrate(30, target, seed=seed) == expected


def test_cli_readme_example_golden():
    # the README's `ergraphon mcmc` example, byte for byte
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["mcmc", "--n", "100", "--theta1", "0.5", "--theta2", "0",
                     "--steps", "1e6", "--seed", "1"])
    assert code == 0
    assert buf.getvalue() == (
        "theta1,theta2,n,steps,seed,mean_t1,se_t1,mean_t3,se_t3\n"
        "0.5,0,100,1000000,1,0.72436873960000003,0.00054767859802355202,"
        "0.38005372844399998,0.00085744972650223146\n"
        "# version=0.1.0 config=92721e89bab867a9 tolerances=\n"
    )
