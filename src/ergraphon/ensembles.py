"""Exact finite-n edge/triangle ensembles and an edge-flip Metropolis sampler.

Ground truth at desk scale. For a hard constraint C* = (edges, triangles),
the microcanonical ensemble is uniform on {G : C(G) = C*}; the canonical
ensemble is the exponential family

    P(G | theta) = exp(n^2 [theta . T(G) - psi_n(theta)]),
    T(G) = (t(edge, G), t(triangle, G)),

in homomorphism-density coordinates t(F, G) = p(F) C_F(G) / n^|V(F)| with
p(edge) = p(wedge) = 2 and p(triangle) = 6. Two constraint scalings are
exposed throughout: raw subgraph counts and the density vector; conversions
are exact rationals times counts, so nothing n-dependent can leak between
them silently.

Exact operations work on the density of states N_n(e, t), the number of
labelled graphs on n vertices with e edges and t triangles (228 nonzero
cells at n = 8). Every exact quantity depends on a graph only through
(e, t): Omega is one cell, and the canonical ensemble is a law on the
cells. Per n, two row blocks are cached: the exponent rows (2e, (6/n)t,
log N) and the moment rows (1, t1, t3, t1^2, t1 t3, t3^2). One canonical
evaluation is one log-sum-exp of the exponent rows against
(theta1, theta2, 1), finite at |n^2 theta . T| in the hundreds, and one
matvec of the moment rows with its weights: psi_n, the means and the
scaled density covariance come out together. The covariance is the
(positive-definite) Jacobian of the damped Newton multiplier calibration,
which takes its 2x2 step in closed form and its moments about the target,
so the residual is a first moment and the covariance suffers no
cancellation near convergence. One Newton run yields theta, psi_n and the
means together: the relative entropy reads all three from its last
evaluation and evaluates the ensemble no further. The means fill exactly
the open convex hull of the cells; a target on or outside it is rejected
before any step.
N_1..N_8 are 424 integer cells in all, committed as the generated table
``_dos_cells`` and imported on first use; nothing is enumerated at run
time. The tests rebuild the table by per-mask enumeration and compare it
byte for byte. Counting runs to n = 8, weighted sums to n = 7.

The canonical weight is constant on a constraint class, so the relative
entropy of the microcanonical with respect to the canonical ensemble is
S_n = -log Omega - log w(e*, t*). The per-mask class sum that this identity
collapses is recomputed independently in the tests. Omega is one lookup in
a per-n dict of the cells, and each class's relative entropy is computed
once and memoized: only the 196 cells of N_1..N_7 can be answered, which
bounds the memo.

At larger n the canonical ensemble is sampled by single-edge-flip Metropolis
with incremental triangle updates (flipping (i, j) changes the triangle
count by |N(i) & N(j)| via one bitset AND), and multipliers are calibrated
stochastically by Robbins-Monro. Both run on one flip kernel that advances
a chain through consecutive blocks of proposals and returns per-block
integer sums of the counts. The acceptance probability depends on a
proposal only through (edge present, common-neighbour count), so it is
read from two tables of n - 1 entries built once per call. A seed fixes
the random stream: the pair draw is ``randrange`` inlined, and a uniform
is drawn only for flips with dH < 0.
"""

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .entropy import bernoulli_entropy_deriv
from .errors import CapacityError, ConvergenceError, DomainError
from .scaling import MultiplierPair

__all__ = [
    "DenseGraph",
    "SubgraphCounts",
    "EnsembleSolution",
    "McmcSummary",
    "subgraph_counts",
    "hom_density",
    "counts_to_densities",
    "densities_to_counts",
    "count_constrained",
    "partition_exact",
    "calibrate_exact",
    "relative_entropy_exact",
    "mcmc_sample",
    "mcmc_calibrate",
    "COUNT_CAPACITY",
    "WEIGHTED_CAPACITY",
]

COUNT_CAPACITY = 8     # the committed cell table _dos_cells holds N_1..N_8
WEIGHTED_CAPACITY = 7
# Largest n the Metropolis sampler takes. _flip_pairs holds all n(n-1)/2
# pairs as two tuples of shared vertex ints, 16 bytes per pair (about
# 31 MiB at n = 2000, measured), and builds them with no larger peak.
MCMC_CAPACITY = 2000
# Most proposals one flip-kernel call makes: burnin + steps in mcmc_sample,
# the 8x confirmation block in mcmc_calibrate. About seven minutes at the
# 2.4 million proposals a second measured at n = 100 on a 2-vCPU VM, and 25
# times the default burn-in 10 n^2 at n = MCMC_CAPACITY.
MCMC_PROPOSAL_CAPACITY = 10 ** 9
# max-norm residual of the canonical means at which calibrate_exact stops
_NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class DenseGraph:
    """Labelled simple graph, adjacency bit-packed one integer row per vertex."""

    n: int
    rows: tuple  # rows[i] has bit j set iff {i, j} is an edge

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n!r}")
        if len(self.rows) != self.n:
            raise DomainError("row count must equal n")
        for i, r in enumerate(self.rows):
            if r >> self.n:
                raise DomainError(f"row {i} has bits beyond vertex range")
            if (r >> i) & 1:
                raise DomainError(f"self-loop at vertex {i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if ((self.rows[i] >> j) & 1) != ((self.rows[j] >> i) & 1):
                    raise DomainError(f"adjacency not symmetric at ({i}, {j})")

    @classmethod
    def from_edges(cls, n: int, edges) -> "DenseGraph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise DomainError(f"self-loop at vertex {i}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, tuple(rows))

    @classmethod
    def from_matrix(cls, a) -> "DenseGraph":
        a = np.asarray(a)
        n = a.shape[0]
        rows = [int(sum((1 << j) for j in range(n) if a[i, j])) for i in range(n)]
        return cls(n, tuple(rows))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "DenseGraph":
        """Graph from an edge-subset index over the pairs of K_n (i<j order)."""
        rows = [0] * n
        for b, (i, j) in enumerate(combinations(range(n), 2)):
            if (mask >> b) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        return cls(n, tuple(rows))

    def to_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.uint8)
        for i, r in enumerate(self.rows):
            for j in range(self.n):
                a[i, j] = (r >> j) & 1
        return a

    def relabeled(self, perm) -> "DenseGraph":
        """Graph with vertex i renamed perm[i]."""
        rows = [0] * self.n
        for i in range(self.n):
            for j in range(self.n):
                if (self.rows[i] >> j) & 1:
                    rows[perm[i]] |= 1 << perm[j]
        return DenseGraph(self.n, tuple(rows))

    def to_text(self) -> str:
        """n, then the upper-triangular bit rows as 0/1 strings."""
        lines = [str(self.n)]
        for i in range(self.n - 1):
            lines.append("".join(str((self.rows[i] >> j) & 1) for j in range(i + 1, self.n)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DenseGraph":
        """Inverse of ``to_text``; DomainError on any malformed line."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not (lines[0].isascii() and lines[0].isdigit()) or int(lines[0]) < 1:
            raise DomainError(f"graph text must open with a vertex count n >= 1: {lines[:1]!r}")
        n, rows = int(lines[0]), lines[1:]
        if len(rows) != n - 1:
            raise DomainError(f"graph text for n={n} needs {n - 1} bit rows, got {len(rows)}")
        edges = []
        for i, row in enumerate(rows):
            if len(row) != n - 1 - i or not set(row) <= {"0", "1"}:
                raise DomainError(f"bit row {i} must be {n - 1 - i} characters 0 or 1: {row!r}")
            edges += [(i, i + 1 + k) for k, ch in enumerate(row) if ch == "1"]
        return cls.from_edges(n, edges)


class SubgraphCounts(NamedTuple):
    edges: int
    wedges: int
    triangles: int


def subgraph_counts(g: DenseGraph) -> SubgraphCounts:
    """Exact edge, wedge (2-path), and triangle counts via bitset intersections."""
    degs = [r.bit_count() for r in g.rows]
    edges = sum(degs) // 2
    wedges = sum(d * (d - 1) // 2 for d in degs)
    tri3 = 0
    for i in range(g.n):
        ri = g.rows[i]
        for j in range(i + 1, g.n):
            if (ri >> j) & 1:
                tri3 += (ri & g.rows[j]).bit_count()
    return SubgraphCounts(edges=edges, wedges=wedges, triangles=tri3 // 3)


_HOM_PERMS = {"edge": 2, "wedge": 2, "triangle": 6}
_HOM_VERTS = {"edge": 2, "wedge": 3, "triangle": 3}


def hom_density(kind: str, g: DenseGraph) -> float:
    """Homomorphism density t(F, G) = p(F) C_F(G) / n^|V(F)|."""
    if kind not in _HOM_PERMS:
        raise DomainError(f"kind must be one of {sorted(_HOM_PERMS)}, got {kind!r}")
    counts = subgraph_counts(g)
    c = {"edge": counts.edges, "wedge": counts.wedges, "triangle": counts.triangles}[kind]
    return _HOM_PERMS[kind] * c / g.n ** _HOM_VERTS[kind]


def counts_to_densities(n: int, edges: float, triangles: float) -> tuple:
    """(2 e / n^2, 6 tr / n^3): count constraints in density coordinates."""
    return 2.0 * edges / n ** 2, 6.0 * triangles / n ** 3


def densities_to_counts(n: int, t1: float, t3: float) -> tuple:
    return t1 * n ** 2 / 2.0, t3 * n ** 3 / 6.0


# ---------------------------------------------------------------------------
# exact ensembles on the density of states
# ---------------------------------------------------------------------------


@lru_cache(maxsize=COUNT_CAPACITY)
def _dos(n: int) -> tuple:
    """Density of states N_n(e, t) as (edges, triangles, counts) over its nonzero cells.

    1 <= n <= COUNT_CAPACITY. Three int64 arrays in row-major (e, t)
    order, read from the committed cell table ``_dos_cells``, which the
    tests regenerate by per-mask enumeration and compare cell by cell.
    """
    from ._dos_cells import CELLS

    return tuple(np.array(col, dtype=np.int64) for col in zip(*CELLS[n]))


@lru_cache(maxsize=COUNT_CAPACITY)
def _class_sizes(n: int) -> dict:
    """N_n as a dict {(edges, triangles): count} over its nonzero cells."""
    edges, tris, counts = _dos(n)
    return dict(zip(zip(edges.tolist(), tris.tolist()), counts.tolist()))


def _whole(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``; integral floats such as 1e6 are accepted.

    An int is kept exact, so one beyond float range still compares with a capacity.
    """
    if isinstance(value, int):
        x = value
    else:
        try:
            x = float(value)
        except (TypeError, ValueError):
            raise DomainError(f"{name} must be a whole number, got {value!r}") from None
        if not x.is_integer():
            raise DomainError(f"need a whole number {name} >= {least}, got {value!r}")
    if x < least:
        raise DomainError(f"need a whole number {name} >= {least}, got {value!r}")
    return int(x)


def _capped_n(n, least: int, capacity: int, what: str) -> int:
    """``n`` as an int >= ``least`` (else DomainError), at most ``capacity`` (else CapacityError).

    The int is passed on, so memo keys and table lookups see one spelling of n.
    """
    n = _whole("n", n, least)
    if n > capacity:
        raise CapacityError(f"{what} handles {least} <= n <= {capacity}, got {n!r}")
    return n


def _finite_pair(name: str, pair) -> tuple:
    try:
        a, b = float(pair[0]), float(pair[1])
    except OverflowError:
        raise DomainError(f"{name} must be finite, got an int beyond float range") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"{name} must be finite, got {tuple(pair)!r}")
    return a, b


def _count_pair(c_star) -> tuple:
    """(edges, triangles) as ints; ints are kept exact, integral floats accepted."""
    pair = []
    for c in c_star[0], c_star[1]:
        if not isinstance(c, int):
            c = float(c)
            if not c.is_integer():  # nan and inf included
                raise DomainError(
                    f"constraint counts must be whole numbers, got {tuple(c_star)!r}")
        pair.append(int(c))
    return tuple(pair)


def count_constrained(n: int, c_star) -> int:
    """Number of graphs on n labelled vertices with the exact count pair.

    n <= 8. A lookup in the density of states N_n(e, t), read from the
    committed cell table; pairs outside its cells (negative, too many
    edges, non-graphical) count 0.
    """
    n = _capped_n(n, 1, COUNT_CAPACITY, "count_constrained")
    return _class_sizes(n).get(_count_pair(c_star), 0)


def _weighted_n(n) -> int:
    return _capped_n(n, 1, WEIGHTED_CAPACITY, "exact weighted enumeration")


@lru_cache(maxsize=WEIGHTED_CAPACITY)
def _cell_rows(n: int) -> tuple:
    """(exponent rows, moment rows) over the cells of N_n, 1 <= n <= WEIGHTED_CAPACITY.

    The exponent rows (2 e, (6/n) t, log N) give each cell's log-weight
    n^2 theta . T + log N as one matvec with (theta1, theta2, 1); the
    moment rows are (1, t1, t3, t1^2, t1 t3, t3^2) in density coordinates.
    """
    edges, tris, counts = _dos(n)
    expo = np.stack([2.0 * edges, (6.0 / n) * tris, np.log(counts)], axis=1)
    return expo, _moment_rows(*counts_to_densities(n, edges, tris))


def _moment_rows(x1: np.ndarray, x3: np.ndarray) -> np.ndarray:
    return np.array((np.ones_like(x1), x1, x3, x1 * x1, x1 * x3, x3 * x3))


@lru_cache(maxsize=WEIGHTED_CAPACITY)
def _hull(n: int) -> tuple:
    """Counter-clockwise vertices of the convex hull of N_n's cells, in (e, t).

    Andrew's monotone chain on the integer cells; a cell inside a hull edge
    is not a vertex. Fewer than three vertices means the hull is flat.
    """
    edges, tris, _ = _dos(n)
    cells = sorted(zip(edges.tolist(), tris.tolist()))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return tuple(chain(cells) + chain(cells[::-1]))


def _turn(a, b, p):
    """Twice the signed area of (a, b, p): > 0 when p lies left of a -> b."""
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _inside_hull(n: int, counts) -> bool:
    """Whether the (edges, triangles) pair lies strictly inside N_n's hull.

    Exact for integer counts: the cross products are integers below 2^53.
    """
    hull = _hull(n)
    return len(hull) > 2 and all(_turn(a, b, counts) > 0
                                 for a, b in zip(hull, hull[1:] + hull[:1]))


def _canonical_moments(n: int, theta, rows=None) -> tuple:
    """(log Z_n, (E x1, E x3), n^2 (Var x1, Cov(x1, x3), Var x3)) at theta.

    One log-sum-exp over the cells and one matvec with the moment rows,
    ``rows`` if given (``_moment_rows`` of the cell densities about a
    centre, so x = t - centre) and the raw rows of ``_cell_rows`` otherwise.
    """
    expo, raw = _cell_rows(n)
    h = expo @ np.array((theta[0], theta[1], 1.0))
    hmax = float(h.max())
    s0, s1, s3, s11, s13, s33 = ((raw if rows is None else rows) @ np.exp(h - hmax)).tolist()
    m1, m3 = s1 / s0, s3 / s0
    nn = n * n
    cov = (nn * (s11 / s0 - m1 * m1), nn * (s13 / s0 - m1 * m3), nn * (s33 / s0 - m3 * m3))
    return hmax + math.log(s0), (m1, m3), cov


def partition_exact(n: int, theta) -> tuple:
    """(psi_n, (mean edge density, mean triangle density)), exact over N_n."""
    n = _weighted_n(n)
    logz, means, _ = _canonical_moments(n, _finite_pair("theta", theta))
    return logz / n ** 2, means


def calibrate_exact(n: int, t_target, units: str = "density",
                    tol: float = _NEWTON_TOL, max_iter: int = 100) -> MultiplierPair:
    """Multipliers matching the canonical means to the target, by damped Newton.

    ``units`` selects the target scaling: "density" for (t1, t3), "count"
    for raw (edges, triangles). The Jacobian of the moment map is the scaled
    density covariance (positive definite for interior targets); the 2x2
    step is taken in closed form and halved until the residual norm
    decreases. Moments are taken about the target, so the residual is a
    first moment and the covariance suffers no cancellation near
    convergence. The canonical means fill exactly the open convex hull of
    N_n's cells, so a target on or outside it has no multipliers and raises
    ConvergenceError before the first step; one close inside it can still
    run the multipliers away, which is detected and reported as divergence.
    """
    return _calibrate(n, t_target, units, tol, max_iter)[0]


def _calibrate(n: int, t_target, units: str = "density",
               tol: float = _NEWTON_TOL, max_iter: int = 100) -> tuple:
    """(theta, log Z_n, means) of ``calibrate_exact``, from its last Newton evaluation."""
    n = _weighted_n(n)
    target = _finite_pair("target", t_target)
    if units == "count":
        counts, target = target, counts_to_densities(n, *target)
    elif units == "density":
        counts = densities_to_counts(n, *target)
    else:
        raise DomainError(f"units must be 'density' or 'count', got {units!r}")

    # every graph has positive weight, so the means fill the open hull
    if not _inside_hull(n, counts):
        raise ConvergenceError(
            "target on the boundary of the mean region; multipliers diverge",
            {"target": list(target),
             "bounds": [counts_to_densities(n, *v) for v in _hull(n)]},
        )

    raw = _cell_rows(n)[1]
    rows = _moment_rows(raw[1] - target[0], raw[2] - target[1])
    p0 = min(max(target[0] * n / (n - 1) if n > 1 else target[0], 1e-3), 1.0 - 1e-3)
    th1, th2 = bernoulli_entropy_deriv(p0, 1), 0.0
    logz, (r1, r3), (a, b, c) = _canonical_moments(n, (th1, th2), rows)
    for _ in range(max_iter):
        if max(abs(r1), abs(r3)) < tol:
            return MultiplierPair(th1, th2), logz, (target[0] + r1, target[1] + r3)
        det = a * c - b * b
        if det == 0.0 or not math.isfinite(det):
            raise ConvergenceError("singular moment-map Jacobian", {"theta": [th1, th2]})
        step1, step3 = (c * r1 - b * r3) / det, (a * r3 - b * r1) / det
        norm = math.hypot(r1, r3)
        scale = 1.0
        for _ in range(60):
            cand1, cand2 = th1 - scale * step1, th2 - scale * step3
            logz_c, (q1, q3), jac = _canonical_moments(n, (cand1, cand2), rows)
            if math.hypot(q1, q3) < norm:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "Newton stalled; target likely on the boundary of the mean region",
                {"theta": [th1, th2], "residual": [r1, r3]},
            )
        th1, th2, logz, r1, r3, (a, b, c) = cand1, cand2, logz_c, q1, q3, jac
        if max(abs(th1), abs(th2)) > 60.0:
            raise ConvergenceError(
                "multipliers diverging; target not interior to the mean region",
                {"theta": [th1, th2], "residual": [r1, r3]},
            )
    raise ConvergenceError("Newton did not converge",
                           {"theta": [th1, th2], "residual": [r1, r3]})


@dataclass(frozen=True)
class EnsembleSolution:
    theta: MultiplierPair
    psi_n: float
    mean_t: tuple
    s_n: float
    omega: int


def relative_entropy_exact(n: int, c_star) -> EnsembleSolution:
    """Relative entropy of the microcanonical w.r.t. the calibrated canonical.

    The hard constraint is an exact count pair (edges, triangles). The
    canonical weight is constant on the constraint class, so the class sum
    of p_mic log(p_mic / w) reduces to S_n = -log Omega - log w(e*, t*).
    One Newton run yields theta, psi_n = log Z_n / n^2 and the means: they
    are read from the calibration's last canonical evaluation. A class on
    the convex hull of N_n's cells has no calibrated canonical ensemble and
    raises ConvergenceError.

    Answers are memoized per class (n, e*, t*) after the inputs are checked
    and made ints, so (5.0, 1.0) and (5, 1) share one entry. Only the cells
    of N_1..N_7 can succeed, so the memo holds at most 196 entries; raised
    errors are not stored. The answer is frozen with tuple fields, so the
    instance every caller shares cannot be mutated.
    """
    return _relative_entropy(_weighted_n(n), *_count_pair(c_star))


@lru_cache(maxsize=None)  # bounded by the 196 cells of N_1..N_7
def _relative_entropy(n: int, e_star: int, t_star: int) -> EnsembleSolution:
    omega = _class_sizes(n).get((e_star, t_star), 0)
    if omega == 0:
        raise DomainError(f"constraint ({e_star}, {t_star}) is not graphical for n={n}")
    theta, logz, means = _calibrate(n, (e_star, t_star), units="count")
    psi = logz / n ** 2
    # log w = n^2 theta . T(G) - log Z_n = 2 th1 C1 + (6/n) th2 C3 - n^2 psi_n
    log_w = 2.0 * theta.theta1 * e_star + (6.0 / n) * theta.theta2 * t_star - n ** 2 * psi
    return EnsembleSolution(theta=theta, psi_n=psi, mean_t=means,
                            s_n=-math.log(omega) - log_w, omega=omega)


# ---------------------------------------------------------------------------
# Metropolis sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McmcSummary:
    """Batch-means summary of an edge-flip Metropolis run.

    mean_t1/mean_t3 are homomorphism densities (the Hamiltonian's conjugate
    coordinates); mean_edge_fraction is the unbiased per-pair retention
    estimate C1 / (n choose 2), whose stationary mean under independent
    edges is the retention probability itself with no (n-1)/n correction.
    """

    n: int
    theta: MultiplierPair
    steps: int
    burnin: int
    seed: int
    mean_t1: float
    se_t1: float
    mean_t3: float
    se_t3: float
    mean_edge_fraction: float
    se_edge_fraction: float
    accept_rate: float

    ROW_FIELDS = ("theta1", "theta2", "n", "steps", "seed",
                  "mean_t1", "se_t1", "mean_t3", "se_t3")

    def to_row(self) -> dict:
        return {
            "theta1": self.theta.theta1, "theta2": self.theta.theta2,
            "n": self.n, "steps": self.steps, "seed": self.seed,
            "mean_t1": self.mean_t1, "se_t1": self.se_t1,
            "mean_t3": self.mean_t3, "se_t3": self.se_t3,
        }


@lru_cache(maxsize=8)
def _flip_pairs(n: int) -> tuple:
    """(first vertices, second vertices) of the pairs of K_n, and 1 << v per vertex.

    The pairs run in ``combinations(range(n), 2)`` order. Both tuples hold
    references into one pool of vertex ints and are filled from generators,
    so no per-pair tuple is ever built.
    """
    pool = tuple(range(n))
    pi = tuple(i for i in pool for _ in pool[i + 1:])
    pj = tuple(j for i in pool for j in pool[i + 1:])
    return pi, pj, tuple(1 << v for v in pool)


def _accept_table(n: int, th1: float, th2: float, d1: int) -> list:
    """exp(dH) for a flip with edge change d1 and c common neighbours, by c.

    None marks dH >= 0: the flip is accepted without drawing a uniform.
    """
    tri_coef = 6.0 / n
    dhs = (2.0 * th1 * d1 + tri_coef * th2 * (d1 * common) for common in range(n - 1))
    return [None if dh >= 0.0 else math.exp(dh) for dh in dhs]


def _flip_blocks(n, rows, c1, c3, th1, th2, lens, rng) -> tuple:
    """Advance the edge-flip chain in place through blocks of ``lens[b]`` proposals.

    Each proposal picks a uniform pair (i, j) (``rng.randrange`` inlined)
    and flips it with probability min(1, e^dH), dH = 2 th1 dC1 + (6/n) th2
    dC3, where dC3 = +-|N(i) & N(j)|; e^dH is looked up by the common
    neighbour count. ``rows`` is mutated. Returns (c1, c3, sums, accepted):
    the final counts, one (sum of C1, sum of C3) pair of Python ints per
    block over the states after each of its proposals, and the number of
    accepted flips.
    """
    pi, pj, bit = _flip_pairs(n)
    npairs = len(pi)
    k = npairs.bit_length()
    getrandbits = rng.getrandbits
    uniform = rng.random
    add = _accept_table(n, th1, th2, 1)
    remove = _accept_table(n, th1, th2, -1)
    accepted = 0
    sums = []
    for length in lens:
        s1 = s3 = 0
        for _ in range(length):
            r = getrandbits(k)
            while r >= npairs:
                r = getrandbits(k)
            i = pi[r]
            j = pj[r]
            ri = rows[i]
            rj = rows[j]
            common = (ri & rj).bit_count()
            if (ri >> j) & 1:
                p = remove[common]
                d1 = -1
                d3 = -common
            else:
                p = add[common]
                d1 = 1
                d3 = common
            if p is None or uniform() < p:
                rows[i] = ri ^ bit[j]
                rows[j] = rj ^ bit[i]
                c1 += d1
                c3 += d3
                accepted += 1
            s1 += c1
            s3 += c3
        sums.append((s1, s3))
    return c1, c3, sums, accepted


def _batch_stats(batch_means: np.ndarray) -> tuple:
    mean = float(batch_means.mean())
    if batch_means.size < 2:
        return mean, float("nan")
    se = float(batch_means.std(ddof=1) / math.sqrt(batch_means.size))
    return mean, se


def _mcmc_n(n) -> int:
    return _capped_n(n, 3, MCMC_CAPACITY, "the Metropolis sampler")


def mcmc_sample(n: int, theta, steps: int, seed: int,
                burnin: int | None = None, batches: int = 32,
                start: DenseGraph | None = None) -> McmcSummary:
    """Single-edge-flip Metropolis chain targeting the canonical ensemble.

    One call of the flip kernel runs ``burnin`` proposals (default 10 n^2)
    and then ``steps`` recorded proposals as consecutive blocks, one per
    batch; the batch means give the standard errors. Each proposal is a
    uniform pair, accepted with min(1, e^dH) where dH = 2 th1 dC1 +
    (6/n) th2 dC3; the triangle increment is the popcount of one row
    intersection, and e^dH is read from a table indexed by it. Fully
    deterministic for a fixed seed. Needs 3 <= n <= MCMC_CAPACITY (2000)
    and burnin + steps <= MCMC_PROPOSAL_CAPACITY (10^9); a larger n or
    proposal count raises CapacityError before any pair table is built.
    """
    n = _mcmc_n(n)
    steps = _whole("steps", steps, 1)
    burnin = 10 * n * n if burnin is None else _whole("burnin", burnin, 0)
    if burnin + steps > MCMC_PROPOSAL_CAPACITY:
        raise CapacityError(
            f"the Metropolis sampler runs at most {MCMC_PROPOSAL_CAPACITY} proposals "
            "(burnin + steps) in one call"
        )
    batches = _whole("batches", batches, 1)
    th1, th2 = _finite_pair("theta", theta)
    rng = random.Random(seed)
    if start is None:
        rows = [0] * n
        c1 = c3 = 0
    else:
        if start.n != n:
            raise DomainError("start graph size mismatch")
        rows = list(start.rows)
        counts = subgraph_counts(start)
        c1, c3 = counts.edges, counts.triangles

    # batch b holds recorded steps s with floor(s nb / steps) == b
    nb = max(1, min(batches, steps))
    ends = [-(-b * steps // nb) for b in range(nb + 1)]
    lens = [hi - lo for lo, hi in zip(ends, ends[1:])]
    _, _, sums, accepted = _flip_blocks(n, rows, c1, c3, th1, th2, [burnin] + lens, rng)

    m1 = np.array([s1 / length for (s1, _), length in zip(sums[1:], lens)])
    m3 = np.array([s3 / length for (_, s3), length in zip(sums[1:], lens)])
    t1_batches, t3_batches = counts_to_densities(n, m1, m3)
    frac_batches = m1 / (n * (n - 1) // 2)
    mean_t1, se_t1 = _batch_stats(t1_batches)
    mean_t3, se_t3 = _batch_stats(t3_batches)
    mean_fr, se_fr = _batch_stats(frac_batches)
    return McmcSummary(
        n=n, theta=MultiplierPair(th1, th2), steps=steps, burnin=burnin,
        seed=seed, mean_t1=mean_t1, se_t1=se_t1, mean_t3=mean_t3, se_t3=se_t3,
        mean_edge_fraction=mean_fr, se_edge_fraction=se_fr,
        accept_rate=accepted / (burnin + steps),
    )


def mcmc_calibrate(n: int, t_target, seed: int, tol: float = 5e-3,
                   max_rounds: int = 80, block: int | None = None,
                   a0: float = 2.0, k0: int = 8) -> MultiplierPair:
    """Robbins-Monro calibration of the multipliers against density targets.

    One persistent chain is advanced block by block, one flip-kernel call
    per block; after each block the update theta_{k+1} = theta_k - a_k
    (block mean - target) is applied with a_k = a0 / (k + k0). Convergence
    requires the block means within ``tol`` per component of the target,
    re-confirmed on an 8x longer block (a block mean's noise floor is about
    1/sqrt(2 * block), independent of n, so the default block is sized for
    the tolerance). Persistent failure is reported with diagnostics;
    metastability near the broken-equivalence region shows up here and is
    reported rather than silently retried. Needs 3 <= n <= MCMC_CAPACITY
    (2000), as ``mcmc_sample`` does, and a confirmation block 8 * block of
    at most MCMC_PROPOSAL_CAPACITY (10^9) proposals, so block <= 1.25e8;
    either excess raises CapacityError before any pair table is built.
    """
    n = _mcmc_n(n)
    target1, target3 = _finite_pair("target", t_target)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"need a finite tol > 0, got {tol!r}")
    if not k0 > 0:
        raise DomainError(f"need k0 > 0, got {k0!r}")
    if block is None:
        block = max(10 * n * n, int(1.0 / (2.0 * tol * tol)))
    block = _whole("block", block, 1)
    if 8 * block > MCMC_PROPOSAL_CAPACITY:
        raise CapacityError(
            f"the Metropolis sampler runs at most {MCMC_PROPOSAL_CAPACITY} proposals "
            "(8 * block, the confirmation block) in one call"
        )
    rng = random.Random(seed)
    th1 = bernoulli_entropy_deriv(min(max(target1, 1e-3), 1.0 - 1e-3), 1)
    th2 = 0.0
    rows = [0] * n
    c1, c3, _, _ = _flip_blocks(n, rows, 0, 0, th1, th2, [10 * n * n], rng)

    def residual(length):
        # advance one block at the current multipliers; (mean t1, mean t3) - target
        nonlocal c1, c3
        c1, c3, [(s1, s3)], _ = _flip_blocks(n, rows, c1, c3, th1, th2, [length], rng)
        t1, t3 = counts_to_densities(n, s1 / length, s3 / length)
        return t1 - target1, t3 - target3

    resid = (float("inf"), float("inf"))
    for k in range(max_rounds):
        r1, r3 = resid = residual(block)
        if abs(r1) < tol and abs(r3) < tol and k >= 5:
            # confirm on a longer block before declaring convergence: a
            # single block's mean is noisy at the tolerance scale
            r1, r3 = resid = residual(8 * block)
            if abs(r1) < tol and abs(r3) < tol:
                return MultiplierPair(th1, th2)
        a_k = a0 / (k + k0)
        th1 -= a_k * r1
        th2 -= a_k * r3
    raise ConvergenceError(
        "Robbins-Monro calibration did not reach tolerance",
        {"theta": (th1, th2), "residual": resid, "tol": tol, "rounds": max_rounds},
    )
