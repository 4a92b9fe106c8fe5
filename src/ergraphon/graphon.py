"""Step graphons, their edge/triangle functionals, and explicit optimizers.

A step graphon is a symmetric function [0,1]^2 -> [0,1] that is constant on
the cells of a product partition. It is stored as the partition's block
measures (positive, summing to 1) plus the symmetric block-value matrix.
Because every object handled here is piecewise constant, the edge density,
triangle density, and entropy functional are all *exact* finite sums over
blocks -- no numerical quadrature is ever involved:

    T1(h) = sum_ij  m_i m_j V_ij
    T2(h) = sum_ijk m_i m_j m_k V_ij V_jk V_ki
    I(h)  = sum_ij  m_i m_j I(V_ij)

The module also builds the explicit optimizing graphons for edge/triangle
constraints near the line t2 = t1^3:

* ``scallop_graphon``: the (l+1)-block optimizer on the l-th piece of the
  lower boundary of the admissible region (complete l-partite core plus a
  partially wired split of the last part that creates no internal triangles).
* ``above_line_graphon``: the vanishing-block optimizer for targets
  (t1, t1^3 + 3 t1 eps); its entropy is I(t1) + |log(t1/(1-t1))/(1-2 t1)| eps + o(eps).
* ``below_line_global_graphon`` (t1 <= 1/2) and ``below_line_local_graphon``
  (t1 > 1/2): the epsilon^(1/3) perturbations for targets (t1, t1^3(1 - eps)).

Amplitude limits are never hard-coded: each constructor builds the candidate
blocks and rejects the epsilon if any value leaves [0, 1] or a measure leaves
(0, 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .entropy import (
    _entropy_interior,
    _entropy_vec,
    bernoulli_entropy_deriv,
    bregman_quotient_min,
)
from .errors import DomainError, EpsilonTooLargeError

__all__ = [
    "StepGraphon",
    "DensityPair",
    "ScallopPoint",
    "edge_density",
    "triangle_density",
    "entropy_functional",
    "density_pair",
    "scallop_c",
    "scallop_p",
    "scallop_point",
    "scallop_graphon",
    "above_line_graphon",
    "below_line_global_graphon",
    "below_line_local_graphon",
    "finite_graph_to_graphon",
]

_MEASURE_TOL = 1e-12
_VALUE_TOL = 1e-12
_ADMISSIBLE_TOL = 1e-12


@dataclass(frozen=True)
class StepGraphon:
    """Piecewise-constant symmetric graphon.

    measures: 1-D array of positive block measures summing to 1.
    values:   symmetric matrix, entry (i, j) is the constant on block i x j.

    Both inputs are copied once into read-only float arrays, so changing
    the caller's arrays later leaves the graphon as it was. The checks run
    in this order: measures positive (a NaN measure fails here), measures
    summing to 1 within 1e-12, matrix shape, values in [0, 1] within 1e-12
    (a NaN value fails here), symmetry. Values within the tolerance outside
    [0, 1] are clipped onto it.

    The positivity check reads the measures as Python floats. The sum
    (numpy's, so its bits do not depend on the Python version), the
    minimum and the maximum of the values, and the symmetry test are one
    numpy reduction each. The minimum and maximum also set the private
    flag ``_interior``, true when every value lies in (0, 1), so that
    ``entropy_functional`` needs no second test for 0 log 0 terms.
    """

    measures: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        m = np.array(self.measures, dtype=float).ravel()
        v = np.array(self.values, dtype=float)
        # written with ">" and "not (>= and <=)" so that NaN fails them
        if not m.size or not all(x > 0.0 for x in m.tolist()):
            raise DomainError("block measures must be positive")
        total = np.add.reduce(m)
        if abs(float(total) - 1.0) > _MEASURE_TOL:
            raise DomainError(f"block measures must sum to 1, got {total!r}")
        if v.shape != (m.size, m.size):
            raise DomainError(f"value matrix shape {v.shape} does not match {m.size} blocks")
        lo = float(np.minimum.reduce(v, axis=None))
        hi = float(np.maximum.reduce(v, axis=None))
        if not (lo >= -_VALUE_TOL and hi <= 1.0 + _VALUE_TOL):
            raise DomainError("block values must lie in [0, 1]")
        if not np.logical_and.reduce(v == v.T, axis=None):
            raise DomainError("value matrix must be symmetric")
        if lo < 0.0 or hi > 1.0:
            v = np.clip(v, 0.0, 1.0)
        m.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "measures", m)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_interior", lo > 0.0 and hi < 1.0)

    @property
    def n_blocks(self) -> int:
        return self.measures.size

    def permuted(self, order) -> "StepGraphon":
        """Equivalent graphon with blocks listed in a new order."""
        idx = np.asarray(order, dtype=int)
        return StepGraphon(self.measures[idx], self.values[np.ix_(idx, idx)])

    def to_text(self) -> str:
        """Delimited text: measures line, then one line per value row.

        Floats are printed with 17 significant digits, which round-trips
        IEEE doubles exactly.
        """
        lines = [" ".join(f"{x:.17g}" for x in self.measures)]
        for row in self.values:
            lines.append(" ".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "StepGraphon":
        """Inverse of ``to_text``; DomainError on a token that is not a float."""
        try:
            rows = [[float(x) for x in ln.split()] for ln in text.splitlines() if ln.strip()]
        except ValueError as exc:
            raise DomainError(f"bad step-graphon text: {exc}") from None
        if not rows:
            raise DomainError("empty step-graphon text")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DomainError("every step-graphon line must hold one number per block")
        return cls(np.array(rows[0]), np.array(rows[1:]))


def edge_density(h: StepGraphon) -> float:
    """T1(h): exact block quadrature of the edge homomorphism density."""
    m = h.measures
    return float(m @ h.values @ m)


def triangle_density(h: StepGraphon) -> float:
    """T2(h): exact block quadrature of the triangle homomorphism density."""
    m, v = h.measures, h.values
    return float(np.einsum("i,j,k,ij,jk,ki->", m, m, m, v, v, v))


def entropy_functional(h: StepGraphon) -> float:
    """Integral of the Bernoulli entropy I over the unit square, block-exact.

    When the graphon's ``_interior`` flag is set (every value in (0, 1),
    recorded by the constructor's range check) the entropy formula runs on
    the values as they are; otherwise ``_entropy_vec`` maps the values at 0
    and 1 to exact zeros. Either way the result is m . I(V) . m.
    """
    m, v = h.measures, h.values
    e = _entropy_interior(v, 1.0 - v) if h._interior else _entropy_vec(v)
    return float(m.dot(e).dot(m))


def _admissible(t1: float, t2: float) -> bool:
    """The upper-boundary test t2 <= t1^(3/2), with 1e-12 slack for rounding.

    The one definition of the admissible region's upper edge; the lower
    (scallopy) boundary is not computed anywhere in the package.
    """
    return t2 <= t1 ** 1.5 + _ADMISSIBLE_TOL


@dataclass(frozen=True)
class DensityPair:
    """Edge/triangle density pair with its admissibility upper-bound check.

    Only the upper boundary t2 <= t1^(3/2) is enforced; the lower (scallopy)
    boundary is not computed here.
    """

    t1: float
    t2: float

    def __post_init__(self):
        if not 0.0 <= self.t1 <= 1.0 or not 0.0 <= self.t2 <= 1.0:
            raise DomainError(f"densities must lie in [0, 1], got {(self.t1, self.t2)!r}")
        if not _admissible(self.t1, self.t2):
            raise DomainError(
                f"t2={self.t2!r} exceeds the admissibility bound t1^(3/2)={self.t1 ** 1.5!r}"
            )


def density_pair(h: StepGraphon) -> DensityPair:
    """Edge and triangle densities of h, validated against the upper bound."""
    return DensityPair(edge_density(h), triangle_density(h))


# ---------------------------------------------------------------------------
# scallop constructions (lower-boundary corner formulas)
# ---------------------------------------------------------------------------


def _check_scallop_piece(ell: int, t1: float) -> None:
    if not isinstance(ell, int) or ell < 2:
        raise DomainError(f"piece index must be an integer >= 2, got {ell!r}")
    lo, hi = (ell - 1) / ell, ell / (ell + 1)
    if not lo < t1 <= hi:
        raise DomainError(
            f"t1={t1!r} outside piece {ell}: need t1 in ({lo!r}, {hi!r}]"
        )


def scallop_c(ell: int, t1: float) -> float:
    """Part measure c for the l-th piece: (1/(l+1)) [1 + sqrt(1 - ((l+1)/l) t1)]."""
    _check_scallop_piece(ell, t1)
    disc = 1.0 - (ell + 1) / ell * t1
    # right endpoint hits disc = 0 up to rounding
    disc = max(disc, 0.0)
    return (1.0 + np.sqrt(disc)) / (ell + 1)


def scallop_p(ell: int, t1: float) -> float:
    """Bridge value p = 4c(1 - l c) / (1 - (l-1) c)^2 for the l-th piece."""
    c = scallop_c(ell, t1)
    return 4.0 * c * (1.0 - ell * c) / (1.0 - (ell - 1) * c) ** 2


@dataclass(frozen=True)
class ScallopPoint:
    ell: int
    t1: float
    c: float
    p: float


def scallop_point(ell: int, t1: float) -> ScallopPoint:
    return ScallopPoint(ell=ell, t1=t1, c=scallop_c(ell, t1), p=scallop_p(ell, t1))


def scallop_graphon(ell: int, t1: float) -> StepGraphon:
    """Optimizer on the l-th piece of the lower boundary.

    l-1 parts of measure c are pairwise fully connected (and connected to
    everything else); the remaining mass 1-(l-1)c splits into two equal
    blocks joined at height p with nothing inside either block, so the last
    part contributes no triangles of its own.
    """
    pt = scallop_point(ell, t1)
    c, p = pt.c, pt.p
    half = 0.5 * (1.0 - (ell - 1) * c)
    k = ell + 1  # blocks: (l-1) parts + two half-blocks
    measures = np.array([c] * (ell - 1) + [half, half])
    values = np.ones((k, k))
    for i in range(ell - 1):
        values[i, i] = 0.0
    values[ell - 1, ell - 1] = 0.0
    values[ell, ell] = 0.0
    values[ell - 1, ell] = p
    values[ell, ell - 1] = p
    return StepGraphon(measures, values)


# ---------------------------------------------------------------------------
# near-line optimizers
# ---------------------------------------------------------------------------


def _corner_value(t1: float) -> float:
    """Root h of I'(h) = 3 I'(1 - t1).

    I'(h) = (1/2) logit(h), so the root is the logistic of 6 I'(1 - t1).
    """
    return 1.0 / (1.0 + math.exp(-6.0 * bernoulli_entropy_deriv(1.0 - t1, 1)))


def _require_unit(values: dict, eps: float) -> None:
    bad = {k: v for k, v in values.items() if not 0.0 <= v <= 1.0}
    if bad:
        raise EpsilonTooLargeError(
            f"eps={eps!r} pushes block values outside [0, 1]: {bad!r}"
        )


def above_line_graphon(t1: float, eps: float) -> StepGraphon:
    """Two-block optimizer for the constraint pair (t1, t1^3 + 3 t1 eps).

    A block of vanishing measure lam*eps with lam = 1/(1-2 t1)^2 sits against
    the bulk: corner value solves I'(h11) = 3 I'(1-t1), the mixed value is
    1 - t1 + h1 eps with h1 = -1/(1-2 t1), and the bulk is t1 + h2 eps with
    h2 = -2/(1-2 t1). Both constraints hold to first order in eps.

    The vanishing block needs lam*eps < 1, that is eps < (1-2 t1)^2, and
    every block value must stay in [0, 1]; otherwise EpsilonTooLargeError
    is raised (CLI exit code 2). Near t1 = 1/2 the first bound binds: at
    t1 = 0.49 it allows only eps < 4e-4.
    """
    if not 0.0 < t1 < 1.0 or t1 == 0.5:
        raise DomainError(f"need t1 in (0, 1) with t1 != 1/2, got {t1!r}")
    if not eps > 0.0:
        raise DomainError(f"need eps > 0, got {eps!r}")
    lam = 1.0 / (1.0 - 2.0 * t1) ** 2
    h2 = -2.0 / (1.0 - 2.0 * t1)
    h1 = 0.5 * h2
    a = lam * eps
    if a >= 1.0:
        raise EpsilonTooLargeError(f"block measure lam*eps = {a!r} >= 1")
    h11 = _corner_value(t1)
    v12 = 1.0 - t1 + h1 * eps
    v22 = t1 + h2 * eps
    _require_unit({"corner": h11, "mixed": v12, "bulk": v22}, eps)
    return StepGraphon(
        np.array([a, 1.0 - a]),
        np.array([[h11, v12], [v12, v22]]),
    )


def below_line_global_graphon(t1: float, eps: float) -> StepGraphon:
    """Equal-split perturbation for (t1, t1^3 (1 - eps)) when t1 <= 1/2.

    Diagonal blocks carry t1 - t1 eps^(1/3), off-diagonal t1 + t1 eps^(1/3).
    Both constraints hold exactly: T1 = t1 and T2 = t1^3 - t1^3 eps are block
    identities for the symmetric split.
    """
    if not 0.0 < t1 <= 0.5:
        raise DomainError(f"need t1 in (0, 1/2], got {t1!r}")
    if not eps > 0.0:
        raise DomainError(f"need eps > 0, got {eps!r}")
    d = t1 * eps ** (1.0 / 3.0)
    if d >= min(t1, 1.0 - t1):
        raise EpsilonTooLargeError(f"amplitude t1 eps^(1/3) = {d!r} too large")
    lo, hi = t1 - d, t1 + d
    _require_unit({"diagonal": lo, "off-diagonal": hi}, eps)
    return StepGraphon(
        np.array([0.5, 0.5]),
        np.array([[lo, hi], [hi, lo]]),
    )


def below_line_local_graphon(t1: float, eps: float) -> StepGraphon:
    """Shrinking-corner perturbation for (t1, t1^3 (1 - eps)) when t1 > 1/2.

    With y* the interior minimizer of the Bregman quotient, a block of
    measure delta = (t1/|y*|) eps^(1/3) takes the value t1 + y*, the mixed
    blocks take t1 + t1 eps^(1/3), and the core absorbs t1 + (t1^2/y*) eps^(2/3).
    """
    if not 0.5 < t1 < 1.0:
        raise DomainError(f"need t1 in (1/2, 1), got {t1!r}")
    if not eps > 0.0:
        raise DomainError(f"need eps > 0, got {eps!r}")
    y_star = bregman_quotient_min(t1).x
    delta = (t1 / abs(y_star)) * eps ** (1.0 / 3.0)
    if delta >= 1.0:
        raise EpsilonTooLargeError(f"corner measure delta = {delta!r} >= 1")
    core = t1 + (t1 * t1 / y_star) * eps ** (2.0 / 3.0)
    mixed = t1 + t1 * eps ** (1.0 / 3.0)
    corner = t1 + y_star
    _require_unit({"core": core, "mixed": mixed, "corner": corner}, eps)
    return StepGraphon(
        np.array([1.0 - delta, delta]),
        np.array([[core, mixed], [mixed, corner]]),
    )


def finite_graph_to_graphon(graph) -> StepGraphon:
    """Embed a labelled simple graph as its n-equal-block step graphon.

    Accepts a square symmetric 0/1 matrix or any object exposing
    ``to_matrix()``. The diagonal is zero (simple graphs carry no loops), so
    edge and triangle homomorphism densities of the graph are reproduced
    exactly by the block functionals.
    """
    if hasattr(graph, "to_matrix"):
        a = np.asarray(graph.to_matrix(), dtype=float)
    else:
        a = np.asarray(graph, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DomainError(f"adjacency must be square and non-empty, got shape {a.shape}")
    if not np.array_equal(a, a.T) or not np.all((a == 0.0) | (a == 1.0)):
        raise DomainError("adjacency must be a symmetric 0/1 matrix")
    if np.any(np.diag(a) != 0.0):
        raise DomainError("self-loops are not allowed")
    n = a.shape[0]
    return StepGraphon(np.full(n, 1.0 / n), a)
