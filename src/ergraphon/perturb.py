"""Two-step perturbation solver for microcanonical edge/triangle constraints.

A two-step perturbation of the constant graphon t1 is

    h = t1 + Delta,   Delta = g11 on IxI, g12 on the mixed blocks, g22 on JxJ,

with lam = |I| in (0, 1). Writing K1 for the linear, K2 for the quadratic,
and K3 for the cubic constraint functionals of Delta,

    T1(h) = t1   + K1,
    T2(h) = t1^3 + 3 t1^2 K1 + K2 + K3,            (exact block identities)

    K1 = lam^2 g11 + 2 lam (1-lam) g12 + (1-lam)^2 g22,
    K2 = 3 t1 [lam r1^2 + (1-lam) r2^2]  >= 0,
         r1 = lam g11 + (1-lam) g12,  r2 = lam g12 + (1-lam) g22,
    K3 = lam^3 g11^3 + (1-lam)^3 g22^3
         + 3 lam (1-lam) g12^2 [lam g11 + (1-lam) g22].

Holding the edge density (K1 = 0) and pushing the triangle density below the
cube (K2 + K3 = -t1^3 eps) admits the closed one-parameter family

    g11 = -((1-lam)/lam) u,  g12 = u,  g22 = -(lam/(1-lam)) u,  u = t1 eps^(1/3),

which satisfies K1 = K2 = 0 and K3 = -t1^3 eps *identically* (not just
asymptotically). ``solve_microcanonical`` minimizes the exact entropy
functional E either within this reduced family (1-D search over lam) or over
the full two-step class with both constraints enforced exactly. There a
minimizer is a stationary point of L = E - alpha T1 - beta T2 (Kenyon,
Radin, Ren & Sadun, J. Stat. Phys. 168 (2017)); with m = (lam, 1-lam),
D = diag(m) and V the 2x2 block values,

    I'(V_ij) = alpha + 3 beta (V D V)_ij           for v11, v12, v22,
    g1 = g2,  g_i = 2 sum_j m_j [I(V_ij) - alpha V_ij] - 3 beta (V D V D V)_ii,
    T1 = t1,  T2 = t2.

Damped Newton solves these six equations in z = (logit lam, logit v11,
logit v12, logit v22, alpha, beta), where I'(v) = (logit v)/2 is exact and
no value can leave (0, 1), with a complex-step Jacobian (Squire & Trapp,
SIAM Rev. 40 (1998)), from the reduced answer below the line and, above it,
from the vanishing-block optimizer at its first-order measure and at 0.2, a
near-symmetric split and a dense block, of which the lowest answer wins.

``exclusion_scan`` probes the ansatz families for which K2 cannot vanish and
fits how fast K2 decays with eps: whenever K2 > 0 along those families it
decays strictly slower than eps, so the constraint K2 + K3 = -t1^3 eps is
out of reach and the reduced branch is the only surviving one.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .entropy import _logistic, bernoulli_entropy, bernoulli_entropy_deriv, block_entropy_rate
from .errors import ConvergenceError, DomainError, EpsilonTooLargeError, InfeasibleError
from .graphon import StepGraphon, _admissible, _corner_value, entropy_functional
from .optimize import grid_refine_min, loglog_slope

__all__ = [
    "PerturbationAnsatz",
    "ConstraintResiduals",
    "SolveReport",
    "ExclusionReport",
    "ansatz_graphon",
    "constraint_residuals",
    "k2_quadratic_form",
    "g12_eliminating_k1",
    "reduced_ansatz",
    "case_entropy",
    "solve_microcanonical",
    "exclusion_scan",
]

_LAM_FLOOR = 1e-6  # lower end of the reduced solve's grid
_RESIDUAL_TOL = 1e-10
_ER_TOL = 1e-9
_NEWTON_STEPS = 60


@dataclass(frozen=True)
class PerturbationAnsatz:
    """Two-step perturbation (lam, g11, g12, g22) of a constant baseline."""

    lam: float
    g11: float
    g12: float
    g22: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise DomainError(f"block measure must lie in (0, 1), got {self.lam!r}")

    def values(self, t1: float) -> tuple:
        return (t1 + self.g11, t1 + self.g12, t1 + self.g22)

    def in_unit_box(self, t1: float) -> bool:
        return all(0.0 <= v <= 1.0 for v in self.values(t1))

    def canonical(self) -> "PerturbationAnsatz":
        """Quotient the block-label symmetry by forcing lam <= 1/2."""
        if self.lam <= 0.5:
            return self
        return PerturbationAnsatz(1.0 - self.lam, self.g22, self.g12, self.g11)


@dataclass(frozen=True)
class ConstraintResiduals:
    k1: float
    k2: float
    k3: float


@dataclass(frozen=True)
class SolveReport:
    t1: float
    t2_target: float
    ansatz: PerturbationAnsatz
    entropy: float
    residuals: ConstraintResiduals
    case_label: str
    iterations: int

    ROW_FIELDS = (
        "t1", "t2_target", "mode", "lam", "g11", "g12", "g22",
        "entropy", "k1", "k2", "k3", "case", "iterations",
    )

    mode: str = "reduced"

    def to_row(self) -> dict:
        a, r = self.ansatz, self.residuals
        return {
            "t1": self.t1, "t2_target": self.t2_target, "mode": self.mode,
            "lam": a.lam, "g11": a.g11, "g12": a.g12, "g22": a.g22,
            "entropy": self.entropy, "k1": r.k1, "k2": r.k2, "k3": r.k3,
            "case": self.case_label, "iterations": self.iterations,
        }

    def to_text(self) -> str:
        row = self.to_row()
        lines = []
        for key in self.ROW_FIELDS:
            val = row[key]
            lines.append(f"{key} = {val:.17g}" if isinstance(val, float) else f"{key} = {val}")
        return "\n".join(lines) + "\n"


def _two_step_graphon(lam: float, v11: float, v12: float, v22: float) -> StepGraphon:
    return StepGraphon((lam, 1.0 - lam), ((v11, v12), (v12, v22)))


def ansatz_graphon(t1: float, a: PerturbationAnsatz) -> StepGraphon:
    """The step graphon t1 + Delta for a two-step perturbation."""
    return _two_step_graphon(a.lam, *a.values(t1))


def _boxed_entropy(t1: float, lam: float, g11: float, g12: float, g22: float) -> float:
    """Entropy functional of t1 + Delta, or inf when a block value leaves [0, 1].

    Scores one candidate of a search without building a ``PerturbationAnsatz``.
    """
    v11, v12, v22 = t1 + g11, t1 + g12, t1 + g22
    if not (0.0 <= v11 <= 1.0 and 0.0 <= v12 <= 1.0 and 0.0 <= v22 <= 1.0):
        return math.inf
    return entropy_functional(_two_step_graphon(lam, v11, v12, v22))


def constraint_residuals(t1: float, a: PerturbationAnsatz) -> ConstraintResiduals:
    """Exact K1, K2, K3 of the perturbation (valid for any g12, not only K1=0)."""
    lam, g11, g12, g22 = a.lam, a.g11, a.g12, a.g22
    mu = 1.0 - lam
    k1 = lam * lam * g11 + 2.0 * lam * mu * g12 + mu * mu * g22
    r1 = lam * g11 + mu * g12
    r2 = lam * g12 + mu * g22
    k2 = 3.0 * t1 * (lam * r1 * r1 + mu * r2 * r2)
    k3 = (
        lam ** 3 * g11 ** 3
        + mu ** 3 * g22 ** 3
        + 3.0 * lam * mu * g12 * g12 * (lam * g11 + mu * g22)
    )
    return ConstraintResiduals(k1=k1, k2=k2, k3=k3)


def k2_quadratic_form(t1: float, lam: float, g11: float, g22: float) -> float:
    """K2 as (3 t1 / 4) lam (1-lam) [lam g11/(1-lam) - (1-lam) g22/lam]^2.

    Equals ``constraint_residuals(...).k2`` exactly when g12 is chosen to
    kill K1 (see ``g12_eliminating_k1``); it is not valid otherwise.
    """
    mu = 1.0 - lam
    diff = lam / mu * g11 - mu / lam * g22
    return 3.0 * t1 * 0.25 * lam * mu * diff * diff


def g12_eliminating_k1(lam: float, g11: float, g22: float) -> float:
    """The mixed value forced by K1 = 0 for given diagonal perturbations."""
    mu = 1.0 - lam
    return -0.5 * (lam / mu * g11 + mu / lam * g22)


def _reduced_deltas(u: float, lam: float) -> tuple:
    """(g11, g12, g22) of the reduced family at amplitude u = t1 eps^(1/3)."""
    return -(1.0 - lam) / lam * u, u, -lam / (1.0 - lam) * u


def reduced_ansatz(t1: float, eps: float, lam: float) -> PerturbationAnsatz:
    """Closed-form member of the K1 = K2 = 0, K3 = -t1^3 eps family."""
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    if not eps > 0.0:
        raise DomainError(f"need eps > 0, got {eps!r}")
    if not 0.0 < lam < 1.0:
        raise DomainError(f"need lam in (0, 1), got {lam!r}")
    a = PerturbationAnsatz(lam, *_reduced_deltas(t1 * eps ** (1.0 / 3.0), lam))
    if not a.in_unit_box(t1):
        raise EpsilonTooLargeError(
            f"eps={eps!r} too large for lam={lam!r}: values {a.values(t1)!r} leave [0, 1]"
        )
    return a


def _below_line_target(t1: float, eps: float) -> float:
    """t1^3 (1 - eps), or DomainError when it rounds to t1^3."""
    target = t1 ** 3 * (1.0 - eps)
    if target == t1 ** 3:
        raise DomainError(f"eps={eps!r} is below the resolution of t1^3 (1 - eps) at t1={t1!r}")
    return target


def case_entropy(t1: float, eps: float, case: str, param: float) -> float:
    """Asymptotic entropy of the reduced branch for the three block-measure regimes.

    Case "I"  (param = lam, a constant in (0, 1)):
        I(t1) + (1/2) I''(t1) t1^2 eps^(2/3)
              - (1/6) I'''(t1) t1^3 (1-2 lam)^2 / (lam (1-lam)) eps.
    Case "II" (param = c > 0, lam = c eps^(1/3)):
        I(t1) + block_entropy_rate(t1, c) eps^(2/3).
    Case "III" (param = rate in (0, 1/3), lam = eps^rate -> 0 slower than
        eps^(1/3)): the same two-term expansion as Case I evaluated at the
        shrinking lam; its correction beyond the universal eps^(2/3) term is
        of order eps^(1-rate), so Case III never undercuts the winning case.
    """
    if not eps > 0.0:
        raise DomainError(f"need eps > 0, got {eps!r}")
    i0 = bernoulli_entropy(t1)
    if case == "II":
        return i0 + block_entropy_rate(t1, param) * eps ** (2.0 / 3.0)
    if case == "I":
        lam = param
    elif case == "III":
        if not 0.0 < param < 1.0 / 3.0:
            raise DomainError(f"case III needs a rate in (0, 1/3), got {param!r}")
        lam = eps ** param
    else:
        raise DomainError(f"unknown case label {case!r}")
    if not 0.0 < lam < 1.0:
        raise DomainError(f"case {case} needs lam in (0, 1), got {lam!r}")
    i2 = bernoulli_entropy_deriv(t1, 2)
    i3 = bernoulli_entropy_deriv(t1, 3)
    shape = (1.0 - 2.0 * lam) ** 2 / (lam * (1.0 - lam))
    return i0 + 0.5 * i2 * t1 * t1 * eps ** (2.0 / 3.0) - i3 * t1 ** 3 * shape * eps / 6.0


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def _solve_reduced(t1: float, eps: float):
    r = eps ** (1.0 / 3.0)
    lam_min = max(r / (1.0 + r) * (1.0 + 1e-12), _LAM_FLOOR)
    if lam_min >= 0.5:
        raise InfeasibleError(f"no feasible block measure for eps={eps!r}")
    if t1 * (1.0 + r) > 1.0:
        raise InfeasibleError(
            f"mixed value t1 (1 + eps^(1/3)) = {t1 * (1.0 + r)!r} > 1: eps too large"
        )
    u = t1 * r

    def obj(lam):
        return _boxed_entropy(t1, lam, *_reduced_deltas(u, lam))

    # the landscape has at most one basin near lam = 1/2 and one scaling like
    # eps^(1/3); a linear grid plus log-spaced points near lam_min covers both
    grid = np.linspace(lam_min, 0.5, 801)
    extra = np.geomspace(lam_min, 0.5, 200)
    cand = np.unique(np.concatenate([grid, extra]))
    lam, ent, iters, _ = grid_refine_min(obj, cand.tolist(), xtol=1e-13)
    # the symmetric point is always stationary; prefer it on numerical ties
    ent_half = obj(0.5)
    if ent_half <= ent + 4e-16:
        lam, ent = 0.5, ent_half
    return lam, ent, iters + cand.size


def _softplus(x: complex) -> complex:
    """log(1 + e^x) without overflow for either sign of Re x."""
    if x.real >= 0.0:
        return x + cmath.log(1.0 + cmath.exp(-x))
    return cmath.log(1.0 + cmath.exp(x))


def _el_residual(t1: float, t2: float, z) -> list:
    """Euler-Lagrange residuals at z = (logit lam, x11, x12, x22, alpha, beta).

    x_ij = logit v_ij, so I'(v_ij) = x_ij / 2 and I(v_ij) = (v_ij x_ij -
    softplus(x_ij)) / 2 exactly. Complex arithmetic throughout, so that a
    complex step in z differentiates every entry.
    """
    lam, mu = _logistic(z[0]), _logistic(-z[0])
    x11, x12, x22, alpha, beta = z[1:]
    v11, v12, v22 = _logistic(x11), _logistic(x12), _logistic(x22)
    # (V D V)_ij and (V D V D V)_ii, with D = diag(lam, mu)
    w11 = lam * v11 * v11 + mu * v12 * v12
    w12 = lam * v11 * v12 + mu * v12 * v22
    w22 = lam * v12 * v12 + mu * v22 * v22
    c1 = lam * v11 * w11 + mu * v12 * w12
    c2 = lam * v12 * w12 + mu * v22 * w22
    e11, e12, e22 = (0.5 * (v * x - _softplus(x)) - alpha * v
                     for v, x in ((v11, x11), (v12, x12), (v22, x22)))
    # g_i = dL/dm_i = 2 sum_j m_j [I(V_ij) - alpha V_ij] - 3 beta (V D V D V)_ii
    g1 = 2.0 * (lam * e11 + mu * e12) - 3.0 * beta * c1
    g2 = 2.0 * (lam * e12 + mu * e22) - 3.0 * beta * c2
    return [
        0.5 * x11 - alpha - 3.0 * beta * w11,
        0.5 * x12 - alpha - 3.0 * beta * w12,
        0.5 * x22 - alpha - 3.0 * beta * w22,
        g1 - g2,
        lam * lam * v11 + 2.0 * lam * mu * v12 + mu * mu * v22 - t1,
        lam * c1 + mu * c2 - t2,
    ]


def _el_newton(t1: float, t2: float, z: np.ndarray):
    """Damped Newton on the Euler-Lagrange residuals from z.

    Each step is halved until the max-norm residual falls; the iteration
    ends when a full step no longer lowers it. Returns (z, or None when the
    residual is then above 1e-14 (1 + max|x_ij| + |alpha| + 3|beta|) or
    after 60 steps, the number of residual evaluations).
    """
    evals = 0

    def resid(z):
        nonlocal evals
        evals += 1
        return np.array(_el_residual(t1, t2, z.tolist()))

    def converged():
        return r <= 1e-14 * (1.0 + np.max(np.abs(z[1:4])) + abs(z[4]) + 3.0 * abs(z[5]))

    f = resid(z).real
    r = np.max(np.abs(f))
    for _ in range(_NEWTON_STEPS):
        # complex-step Jacobian, exact to rounding
        jac = np.array([resid(z + 1e-30j * e).imag for e in np.eye(6)]).T / 1e-30
        try:
            dz = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        while True:
            f_new = resid(z + step * dz).real
            r_new = np.max(np.abs(f_new))
            if r_new < r:
                break
            if converged() or step < 2.0 ** -30:  # at the rounding floor, or stalled
                return (z if converged() else None), evals
            step *= 0.5
        z, f, r = z + step * dz, f_new, r_new
    return (z if converged() else None), evals


def _exact_starts(t1: float, delta: float) -> list:
    """(lam, v11, v12, v22) starts of the Euler-Lagrange solve, inside the box."""
    if delta > 0.0:
        eps = delta / (3.0 * t1)
        starts = []
        if t1 != 0.5:
            # the vanishing-block optimizer; near t1 = 1/2 its first-order
            # measure overshoots, hence the fixed measure 0.2 beside it
            h = -1.0 / (1.0 - 2.0 * t1)
            vals = (_corner_value(t1), 1.0 - t1 + h * eps, t1 + 2.0 * h * eps)
            starts += [(lam, *vals) for lam in (min(eps * h * h, 0.45), 0.2)]
        d = 2.0 * math.sqrt(eps)
        starts.append((0.49, t1 - d, t1, t1 + d))
        # a dense block, with v22 set by T1 = t1
        lam = min(2.0 * t1, 0.2)
        v11 = max(1.0 - t1, min(t1 + 0.6, 0.95))
        v22 = (t1 - lam * lam * v11 - 2.0 * lam * (1.0 - lam) * t1) / (1.0 - lam) ** 2
        starts.append((lam, v11, t1, v22))
    else:
        eps = -delta / t1 ** 3
        try:
            lam_r, _, _ = _solve_reduced(t1, eps)
            starts = [(lam_r, *reduced_ansatz(t1, eps, lam_r).values(t1))]
        except InfeasibleError as exc:
            raise InfeasibleError(f"no reduced seed for the Euler-Lagrange solve: {exc}") from None
    return [s for s in dict.fromkeys(starts) if all(0.0 < v < 1.0 for v in s)]


def _solve_exact(t1: float, t2: float, starts):
    """(canonical ansatz, entropy, evaluations) of the lowest-entropy solution."""
    best, best_ent, evaluations = None, math.inf, 0
    for lam, v11, v12, v22 in starts:
        # alpha and beta from the start's mixed and bulk equations
        x = [math.log(v / (1.0 - v)) for v in (v11, v12, v22)]
        w12 = lam * v11 * v12 + (1.0 - lam) * v12 * v22
        w22 = lam * v12 * v12 + (1.0 - lam) * v22 * v22
        beta = (x[1] - x[2]) / (6.0 * (w12 - w22))
        z0 = np.array([math.log(lam / (1.0 - lam)), *x, 0.5 * x[2] - 3.0 * beta * w22, beta])
        z, evals = _el_newton(t1, t2, z0)
        evaluations += evals
        if z is None:
            continue
        x0, x11, x12, x22 = z[:4].tolist()
        if x0 > 0.0:  # relabel the blocks so that lam <= 1/2
            x0, x11, x22 = -x0, x22, x11
        lam = _logistic(x0)
        g = [_logistic(x) - t1 for x in (x11, x12, x22)]
        ent = _boxed_entropy(t1, lam, *g)
        if ent < best_ent:
            best, best_ent = PerturbationAnsatz(lam, *g), ent
    if best is None:
        raise InfeasibleError(f"no start of the Euler-Lagrange solve converged for t2={t2!r}")
    return best, best_ent, evaluations


def solve_microcanonical(t1: float, t2_target: float, mode: str = "reduced",
                         er_tol: float = _ER_TOL) -> SolveReport:
    """Minimize the entropy functional over two-step perturbations of t1.

    mode "reduced" uses the closed K1 = K2 = 0 family (targets below the
    cube only); mode "exact_constraints" enforces K1 = 0 and
    K2 + K3 = t2_target - t1^3 exactly over the full two-step class by
    Newton on the Euler-Lagrange equations, and raises InfeasibleError when
    no start converges (as at optima with a block value at 0 or 1, outside
    its logit coordinates) or the reduced seed below the line is missing.
    Reports are canonicalized to lam <= 1/2 (block relabelling is a
    symmetry). Targets within ``er_tol`` of t1^3 short-circuit to the
    unperturbed point. ``iterations`` counts the candidate measures scored
    (reduced), the Euler-Lagrange residual evaluations, complex steps
    included (exact_constraints), or 0 at a short-circuit.
    """
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    if not math.isfinite(t2_target):
        raise DomainError(f"need a finite t2 target, got {t2_target!r}")
    if not 0.0 <= er_tol < math.inf:
        raise DomainError(f"need a finite er_tol >= 0, got {er_tol!r}")
    if not 0.0 <= t2_target <= 1.0 or not _admissible(t1, t2_target):
        raise InfeasibleError(
            f"target ({t1!r}, {t2_target!r}) is outside the admissible region"
        )
    if mode not in ("reduced", "exact_constraints"):
        raise DomainError(f"unknown mode {mode!r}")

    delta = t2_target - t1 ** 3
    if abs(delta) <= er_tol:
        a = PerturbationAnsatz(0.5, 0.0, 0.0, 0.0)
        return SolveReport(
            t1=t1, t2_target=t2_target, ansatz=a,
            entropy=bernoulli_entropy(t1),
            residuals=constraint_residuals(t1, a),
            case_label="I", iterations=0, mode=mode,
        )

    if mode == "reduced":
        if delta > 0.0:
            raise InfeasibleError(
                "reduced mode only reaches targets below t1^3 "
                f"(delta={delta!r} > 0); use exact_constraints"
            )
        eps = -delta / t1 ** 3
        lam, ent, iters = _solve_reduced(t1, eps)
        ansatz = reduced_ansatz(t1, eps, lam).canonical()
    else:
        ansatz, ent, iters = _solve_exact(t1, t2_target, _exact_starts(t1, delta))
    resid = constraint_residuals(t1, ansatz)
    gap = abs(resid.k1) + abs(resid.k2 + resid.k3 - delta)
    if gap > _RESIDUAL_TOL:
        raise ConvergenceError(
            "constraint residuals above tolerance",
            diagnostics={"k1": resid.k1, "k2k3_gap": resid.k2 + resid.k3 - delta},
        )
    return SolveReport(
        t1=t1, t2_target=t2_target, ansatz=ansatz, entropy=ent,
        residuals=resid, case_label="I" if ansatz.lam >= 0.45 else "II",
        iterations=iters, mode=mode,
    )


# ---------------------------------------------------------------------------
# exclusion scan
# ---------------------------------------------------------------------------


def _exclusion_family(case: str, t1: float, eps: float) -> PerturbationAnsatz:
    k = 0.5 * t1
    if case == "1a":
        lam, g11, g22 = 0.3, -k * eps ** (1.0 / 3.0), 0.0
    elif case == "1b":
        lam = 0.5 * eps ** 0.02
        g11, g22 = -k * eps ** (1.0 / 3.0) / lam, 0.0
    elif case == "1c":
        lam = 0.6 * eps ** (1.0 / 3.0)
        g11, g22 = -0.5 * t1, 0.8 * t1 * math.sqrt(eps)
    elif case == "2":
        lam, g11, g22 = 0.3, 0.0, -k * eps ** (1.0 / 3.0)
    elif case == "3":
        lam, g11, g22 = 0.3, k * eps ** (1.0 / 3.0), -k * eps ** (1.0 / 3.0)
    elif case == "4":
        lam, g11, g22 = 0.3, -k * eps ** (1.0 / 3.0), k * eps ** (1.0 / 3.0)
    else:
        raise DomainError(f"unknown exclusion case {case!r}")
    return PerturbationAnsatz(lam, g11, g12_eliminating_k1(lam, g11, g22), g22)


EXCLUSION_CASES = ("1a", "1b", "1c", "2", "3", "4")


@dataclass(frozen=True)
class ExclusionReport:
    t1: float
    scales: tuple
    exponents: dict        # case -> fitted d log K2 / d log eps
    k2_positive: dict      # case -> bool, K2 > 0 at every scale
    reduced_attainable: bool
    reduced_entropy_gap: float  # worst |exact - case expansion| over the scales

    def rows(self) -> list:
        return [
            {
                "t1": self.t1,
                "case": c,
                "k2_exponent": self.exponents[c],
                "k2_positive": self.k2_positive[c],
            }
            for c in EXCLUSION_CASES
        ]


def exclusion_scan(t1: float, eps: float = 1e-2, n_scales: int = 5) -> ExclusionReport:
    """Fit K2-vs-eps exponents along the families that keep K2 > 0.

    ``eps`` is the largest scale probed; n_scales >= 2 decades are scanned
    down from it. A fitted exponent below 1 certifies K2 = omega(eps) for
    that family, so K2 + K3 = -t1^3 eps is unattainable along it. The
    report also confirms the K2 = 0 reduced branch is attainable and that
    its exact entropies track the case expansions; each scale's reduced
    target is solved with no ER-line tolerance, and DomainError names a
    scale s below the resolution of t1^3 (1 - s).

    Where a scale's reduced optimum falls in case II, its expansion needs
    c = lam / scale^(1/3) >= 1. At large t1 the top scale can give c < 1
    (at the default eps, t1 = 0.73 passes and t1 = 0.734 does not); that
    raises DomainError, and a smaller ``eps`` moves the scan into the
    expansion's domain.
    """
    if not 0.0 < t1 < 1.0:
        raise DomainError(f"need t1 in (0, 1), got {t1!r}")
    if not 0.0 < eps <= 1e-2:
        raise DomainError(f"need eps in (0, 1e-2], got {eps!r}")
    if not (isinstance(n_scales, int) and n_scales >= 2):
        raise DomainError(f"need an integer n_scales >= 2, got {n_scales!r}")
    scales = tuple(eps * 10.0 ** (-i) for i in range(n_scales))
    targets = [_below_line_target(t1, s) for s in scales]
    exponents, positive = {}, {}
    for case in EXCLUSION_CASES:
        k2s = []
        for s in scales:
            a = _exclusion_family(case, t1, s)
            if not a.in_unit_box(t1):
                raise EpsilonTooLargeError(f"family {case} leaves the unit box at eps={s!r}")
            r = constraint_residuals(t1, a)
            if abs(r.k1) > 1e-12:
                raise ConvergenceError("exclusion family must have K1 = 0", {"k1": r.k1})
            k2s.append(r.k2)
        exponents[case] = loglog_slope(scales, k2s)
        positive[case] = all(v > 0.0 for v in k2s)

    worst_gap = 0.0
    attainable = True
    for s, t2 in zip(scales, targets):
        try:
            rep = solve_microcanonical(t1, t2, mode="reduced", er_tol=0.0)
        except (InfeasibleError, EpsilonTooLargeError):
            attainable = False
            continue
        lam = rep.ansatz.lam
        if rep.case_label == "I":
            pred = case_entropy(t1, s, "I", lam)
        else:
            c = lam / s ** (1.0 / 3.0)
            if c < 1.0:
                raise DomainError(
                    f"exclusion_scan at t1={t1!r}: the reduced optimum at scale "
                    f"eps={s!r} has c = lam/eps^(1/3) = {c!r} < 1, outside the "
                    "case-II expansion; use a smaller eps"
                )
            pred = case_entropy(t1, s, "II", c)
        worst_gap = max(worst_gap, abs(rep.entropy - pred))
    return ExclusionReport(
        t1=t1,
        scales=scales,
        exponents=exponents,
        k2_positive=positive,
        reduced_attainable=attainable,
        reduced_entropy_gap=worst_gap,
    )
