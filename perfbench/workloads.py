"""Workload definitions: seeded task streams, warm-up tasks and the task hash.

A task is a JSON-able dict {"id", "kind", "args"}. The generator draws the
arguments from ``random.Random(seed)`` and nothing else, so one seed always
gives the same list; ``task_hash`` fingerprints it. The library only ever
sees these arguments (``worker.run_task`` maps a kind to one public call).

Each stream repeats a block of 40 tasks with fixed kind counts, shuffled
inside the block, and draws each kind's arguments from a randomly shifted
low-discrepancy sequence. Fixed proportions keep the median and the 90th
percentile inside one kind's latency band instead of on the edge between
two bands, and the even spread of arguments keeps one run's mix close to
the next run's.
"""

import bisect
import hashlib
import json
import random

from oracle import RECORDED_N8, histogram, interior_classes

BLOCK = 40
STREAM_LEN = 3000  # far more tasks than a 60 s run can complete
MCMC_STEPS = 20_000  # recorded proposals per chain; burn-in is the library default

WORKLOADS = {
    "variational": {
        "why": ("Reduced and exact_constraints microcanonical solves, curve sweeps and "
                "exclusion scans near t2 = t1^3: exercises entropy, graphon, optimize, "
                "perturb and scaling, and no ensembles code."),
        # p50 lands inside the reduced-solve band and p90 near the top of the
        # curve-sweep band. exact_constraints latencies spread over 0.2-1 s
        # (above and below the line differ), so a p90 inside that band moved
        # by 10-14% between seeds; its cost shows in tasks_per_s instead
        "block": {"reduced": 31, "curve": 6, "exact_constraints": 3},
    },
    "exact": {
        "why": ("Finite-n enumeration on interior constraint classes at n = 5..7 plus "
                "one n = 8 count: all time goes to ensembles enumeration, no "
                "variational code runs."),
        # p50 lands inside partition_exact(7), p90 inside relative_entropy_exact(7)
        "block": {"relent5": 4, "count7": 4, "relent6": 4, "partition7": 22, "relent7": 6},
    },
    "mcmc": {
        "why": ("Edge-flip Metropolis chains at n in {7, 30, 60, 100} and Robbins-Monro "
                "calibration at n = 30: all time goes to the pure-Python flip loop."),
        # p50 lands inside the n = 30 chains, p90 in the middle of the n = 100
        # chains (with five of them p90 sat next to the n = 60 band and jumped
        # between the two); one calibration per block, as its 0.5-1.7 s spread
        # would swamp the rate
        "block": {"mcmc7": 11, "mcmc30": 15, "mcmc60": 6, "mcmc100": 7, "calibrate30": 1},
    },
}

ENUM_N = {"relent5": 5, "relent6": 6, "relent7": 7, "count7": 7}
MCMC_N = {"mcmc7": 7, "mcmc30": 30, "mcmc60": 60, "mcmc100": 100}


def _kronecker_step(d: int) -> list:
    """Per-axis steps of the R_d sequence: powers of 1/phi_d, where phi_d is
    the positive root of x^(d+1) = x + 1 (the golden ratio for d = 1)."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return [phi ** -(j + 1) for j in range(d)]


class _Points:
    """Randomly shifted Kronecker points in [0, 1)^d.

    Any run of consecutive points covers the cube evenly, so the arguments
    one run happens to reach are spread like those of the next run, while
    the seed still picks the shift.
    """

    def __init__(self, rng: random.Random, d: int):
        self.step = _kronecker_step(d)
        self.shift = [rng.random() for _ in range(d)]
        self.i = 0

    def next(self) -> list:
        self.i += 1
        return [(s + self.i * a) % 1.0 for s, a in zip(self.shift, self.step)]


def _class_law(n: int) -> tuple:
    """(classes, cumulative weights) of a uniform random graph on n vertices,
    conditioned on an edge fraction in [0.25, 0.75] and an interior class:
    the criterion-7 sampling of random masks, as a table to invert."""
    m = n * (n - 1) // 2
    inside = interior_classes(n)
    cells = sorted((c, w) for c, w in histogram(n).items()
                   if 0.25 <= c[0] / m <= 0.75 and c in inside)
    total = sum(w for _, w in cells)
    cum, acc = [], 0
    for _, w in cells:
        acc += w
        cum.append(acc / total)
    return [c for c, _ in cells], cum


class _Args:
    """Per-kind argument draws for one stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.points = {}
        self.serial = {}
        self.laws = {}

    def u(self, key: str, d: int = 2) -> list:
        if key not in self.points:
            self.points[key] = _Points(self.rng, d)
        return self.points[key].next()

    def graph_class(self, kind: str, n: int) -> list:
        if n not in self.laws:
            self.laws[n] = _class_law(n)
        classes, cum = self.laws[n]
        x = self.u(kind, 1)[0]
        return list(classes[bisect.bisect_left(cum, x)])

    def next_serial(self, kind: str) -> int:
        self.serial[kind] = self.serial.get(kind, 0) + 1
        return self.serial[kind] - 1

    def make(self, kind: str) -> dict:
        rng, u = self.rng, self.u
        k = self.next_serial(kind)
        if kind == "reduced":
            a, b = u("reduced")
            t1, eps = 0.15 + 0.7 * a, 10.0 ** (-7.0 + 4.0 * b)
            return {"t1": t1, "t2": t1 ** 3 * (1.0 - eps)}
        if kind == "exact_constraints":
            side = "above" if k % 2 == 0 else "below"
            a, b = u(f"exact.{side}")
            # below the line at eps < 1e-4 one solve can take 20k evaluations
            # and 9 s, which no 30 s run absorbs steadily
            t1, eps = 0.15 + 0.7 * a, 10.0 ** (-4.0 + b)
            t2 = t1 ** 3 + 3.0 * t1 * eps if side == "above" else t1 ** 3 * (1.0 - eps)
            return {"t1": t1, "t2": t2, "side": side}
        if kind == "curve":
            # every fourth sweep slot is an exclusion scan. The ranges avoid
            # inputs the library rejects: exclusion_scan raises DomainError
            # from t1 = 0.75 up, and the above-line sweep raises
            # EpsilonTooLargeError at eps = 1e-3 for t1 within 0.01 of 1/2
            if k % 4 == 3:
                return {"scan": "exclusion", "t1": 0.2 + 0.5 * u("exclusion", 1)[0]}
            t1 = 0.15 + 0.6 * u("curve", 1)[0]
            t1 += 0.1 if t1 >= 0.45 else 0.0
            return {"scan": "curve", "t1": t1, "eps": [1e-6, 1e-5, 1e-4, 1e-3]}
        if kind in ENUM_N:
            return {"n": ENUM_N[kind], "c": self.graph_class(kind, ENUM_N[kind])}
        if kind == "partition7":
            a, b = u("partition7")
            return {"n": 7, "theta": [2.0 * a - 1.0, 2.0 * b - 1.0]}
        if kind in MCMC_N:
            a, b = u(kind)
            sign = (0.0, -1.0, 1.0)[k % 3]  # theta2 = 0, < 0, > 0 in turn
            return {"n": MCMC_N[kind], "theta": [a - 0.5, sign * (0.1 + 0.9 * b)],
                    "steps": MCMC_STEPS, "seed": rng.getrandbits(31)}
        if kind == "calibrate30":
            a, b = u("calibrate30")
            t1 = 0.35 + 0.15 * a
            return {"n": 30, "target": [t1, t1 ** 3 * (0.95 + 0.1 * b)],
                    "seed": rng.getrandbits(31)}
        raise ValueError(f"unknown task kind {kind!r}")


def generate(workload: str, seed: int, length: int = STREAM_LEN) -> list:
    """The seeded task stream for one workload."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    args = _Args(rng)
    kinds = []
    while len(kinds) < length:
        block = [k for k, c in spec["block"].items() for _ in range(c)]
        rng.shuffle(block)
        kinds.extend(block)
    tasks = [{"id": i, "kind": kind, "args": args.make(kind)}
             for i, kind in enumerate(kinds[:length])]
    if workload == "exact":
        # the capacity frontier: exactly one uncached n = 8 count, early in the run
        classes = sorted(RECORDED_N8)
        pos = rng.randrange(BLOCK)
        tasks.insert(pos, {"id": -1, "kind": "count8",
                           "args": {"n": 8, "c": list(rng.choice(classes))}})
        tasks.pop()
        for i, t in enumerate(tasks):
            t["id"] = i
    return tasks


def warmup(workload: str) -> list:
    """One task of each kind and size, with fixed arguments.

    The n = 8 count is left out: it fills no cache, so warming it would
    only double the run's longest task.
    """
    fixed = {
        "variational": [
            ("reduced", {"t1": 0.6, "t2": 0.6 ** 3 * (1.0 - 1e-5)}),
            ("exact_constraints", {"t1": 0.6, "t2": 0.6 ** 3 + 1.8e-4, "side": "above"}),
            ("exact_constraints", {"t1": 0.6, "t2": 0.6 ** 3 * (1.0 - 1e-4), "side": "below"}),
            ("curve", {"scan": "curve", "t1": 0.6, "eps": [1e-6, 1e-5, 1e-4, 1e-3]}),
            ("curve", {"scan": "exclusion", "t1": 0.6}),
        ],
        "exact": [
            ("relent5", {"n": 5, "c": [5, 1]}),
            ("relent6", {"n": 6, "c": [8, 2]}),
            ("relent7", {"n": 7, "c": [11, 3]}),
            ("count7", {"n": 7, "c": [11, 3]}),
            ("partition7", {"n": 7, "theta": [0.1, -0.1]}),
        ],
        "mcmc": [
            (kind, {"n": n, "theta": [0.2, 0.0], "steps": MCMC_STEPS, "seed": 1})
            for kind, n in MCMC_N.items()
        ] + [("calibrate30", {"n": 30, "target": [0.5, 0.125], "seed": 1})],
    }[workload]
    return [{"id": -1 - i, "kind": k, "args": a} for i, (k, a) in enumerate(fixed)]


def task_hash(tasks: list) -> str:
    blob = json.dumps(tasks, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]

