"""The exact finite-n free energy against the variational layer's limit.

For theta2 = 0 the canonical ensemble puts independent edges of probability
p = logistic(2 theta1) on the n(n-1)/2 pairs, so

    n^2 psi_n(theta1, 0) = (n(n-1)/2) log(1 + e^(2 theta1))

and n/(n-1) psi_n equals the constant-graphon supremum
sup_u [theta1 u - I(u)] = log(1 + e^(2 theta1)) / 2 at every n. This ties
``partition_exact`` to ``constant_graphon_sup`` with no fitting.
"""

import pytest

from ergraphon import MultiplierPair, constant_graphon_sup, partition_exact


@pytest.mark.parametrize("theta1", [-2.0, -0.7, 0.0, 0.5, 1.3])
@pytest.mark.parametrize("n", range(2, 8))
def test_independent_edges_free_energy_is_the_supremum(n, theta1):
    psi, _ = partition_exact(n, (theta1, 0.0))
    _, sup = constant_graphon_sup(MultiplierPair(theta1, 0.0))
    assert abs(n / (n - 1) * psi - sup) <= 1e-14
