"""Span tracing of ergraphon from outside the library, and per-layer metrics.

``Tracer.install`` wraps every public function of the layer modules and
re-binds the wrapper wherever another ergraphon module (or the package)
holds the original, so nested calls such as ``scaling.solve_microcanonical``
or ``ensembles.calibrate_exact`` inside ``relative_entropy_exact`` become
child spans. ``StepGraphon.__post_init__`` is wrapped to count and time
graphon construction.

A reduced solve makes thousands of calls, so spans are merged by call
path: repeated calls to one function under the same parent span of the
same task share one record that keeps the first start, the last end, the
call count and the summed busy time. Self time is busy time minus the busy
time of the record's children. Records stay in memory and are written as
JSON lines when the traced pass ends.
"""

import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("entropy", "graphon", "optimize", "perturb", "scaling", "ensembles")

# name, start, end, parent, task, count, busy, counters
NAME, START, END, PARENT, TASK, COUNT, BUSY, COUNTERS = range(8)


def _solve_span(name, args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "reduced")
    return f"{name}/{mode}"


def _n_of(args, kwargs):
    return kwargs["n"] if "n" in kwargs else args[0]


def _count_span(name, args, kwargs):
    return f"{name}/n{_n_of(args, kwargs)}"


def _solve_counts(c, args, kwargs, out):
    c["evals"] = c.get("evals", 0) + out.iterations


def _count_counts(c, args, kwargs, out):
    n = _n_of(args, kwargs)
    m = n * (n - 1) // 2
    c["masks"] = c.get("masks", 0) + (1 << m)


def _mcmc_counts(c, args, kwargs, out):
    steps = out.steps + out.burnin
    c["steps"] = c.get("steps", 0) + steps
    c["accepted"] = c.get("accepted", 0) + round(out.accept_rate * steps)


def _curve_counts(c, args, kwargs, out):
    c["rows"] = c.get("rows", 0) + len(out)


def _golden_counts(c, args, kwargs, out):
    c["iters"] = c.get("iters", 0) + out[2]


# span-name refinements and counters for the calls the per-layer metrics need
SPAN_NAME = {
    "perturb.solve_microcanonical": _solve_span,
    "ensembles.count_constrained": _count_span,
}
COUNTERS_OF = {
    "perturb.solve_microcanonical": _solve_counts,
    "ensembles.count_constrained": _count_counts,
    "ensembles.mcmc_sample": _mcmc_counts,
    "scaling.curve_sweep": _curve_counts,
    "optimize.golden_section_min": _golden_counts,
}


class Tracer:
    def __init__(self):
        self.records = []
        self._index = {}
        self._current = -1
        self._patches = []
        self.t0 = perf_counter()

    def _record(self, name, parent, task, t0, t1):
        rid = len(self.records)
        self.records.append([name, t0, t1, parent, task, 0, 0.0, {}])
        return rid

    @contextmanager
    def task(self, task_id, kind):
        """One root span per benchmark task."""
        t0 = perf_counter()
        rid = self._record(f"bench.task/{kind}", -1, task_id, t0, t0)
        self._current = rid
        try:
            yield
        finally:
            t1 = perf_counter()
            rec = self.records[rid]
            rec[END], rec[COUNT], rec[BUSY] = t1, 1, t1 - t0
            self._current = -1

    def wrap(self, name, fn):
        records, index = self.records, self._index
        refine, count = SPAN_NAME.get(name), COUNTERS_OF.get(name)

        def traced(*args, **kwargs):
            parent = self._current
            span = refine(name, args, kwargs) if refine else name
            rid = index.get((parent, span))
            if rid is None:
                task = records[parent][TASK] if parent >= 0 else None
                rid = self._record(span, parent, task, None, None)
                index[(parent, span)] = rid
            self._current = rid
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._current = parent
                rec = records[rid]
                if rec[START] is None:
                    rec[START] = t0
                rec[END] = t1
                rec[COUNT] += 1
                rec[BUSY] += t1 - t0
            if count:
                count(records[rid][COUNTERS], args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layer modules' public functions wherever they are bound."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"ergraphon.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for mname, mod in list(sys.modules.items()):
            if mname != "ergraphon" and not mname.startswith("ergraphon."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        step = sys.modules["ergraphon.graphon"].StepGraphon
        self._patch(step, "__post_init__", self.wrap("graphon.StepGraphon", step.__post_init__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def rows(self) -> list:
        """Records as dicts with times in ms from the tracer's start."""
        out = []
        selfs = self_times(self.records)
        for rid, rec in enumerate(self.records):
            row = {
                "id": rid, "name": rec[NAME], "parent": rec[PARENT], "task": rec[TASK],
                "start_ms": 1e3 * (rec[START] - self.t0), "end_ms": 1e3 * (rec[END] - self.t0),
                "count": rec[COUNT], "busy_ms": 1e3 * rec[BUSY], "self_ms": 1e3 * selfs[rid],
            }
            row.update(rec[COUNTERS])
            out.append(row)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")


def self_times(records) -> list:
    """Busy time of each record minus the busy time of its direct children."""
    child_busy = [0.0] * len(records)
    for rec in records:
        if rec[PARENT] >= 0:
            child_busy[rec[PARENT]] += rec[BUSY]
    return [rec[BUSY] - child_busy[i] for i, rec in enumerate(records)]


# (metric, unit, span-name predicate, what to sum). "self" sums self time
# in ms, "count" sums calls, any other key sums that counter.
def _exact(*names):
    return lambda s: s in names


def _prefix(p):
    return lambda s: s.startswith(p)


_FUNCTIONALS = _exact("graphon.edge_density", "graphon.triangle_density",
                      "graphon.entropy_functional", "graphon.density_pair")
_COUNT = _prefix("ensembles.count_constrained/")

SUMS = (
    ("graphon.step_graphon.count", "count", _exact("graphon.StepGraphon"), "count"),
    ("graphon.step_graphon.self_ms", "ms", _exact("graphon.StepGraphon"), "self"),
    ("graphon.functional.calls", "count", _FUNCTIONALS, "count"),
    ("graphon.functional.self_ms", "ms", _FUNCTIONALS, "self"),
    ("graphon.self_ms", "ms", _prefix("graphon."), "self"),
    ("perturb.reduced.calls", "count", _exact("perturb.solve_microcanonical/reduced"), "count"),
    ("perturb.reduced.self_ms", "ms", _exact("perturb.solve_microcanonical/reduced"), "self"),
    ("perturb.reduced.evals", "count", _exact("perturb.solve_microcanonical/reduced"), "evals"),
    ("perturb.exact.calls", "count",
     _exact("perturb.solve_microcanonical/exact_constraints"), "count"),
    ("perturb.exact.self_ms", "ms",
     _exact("perturb.solve_microcanonical/exact_constraints"), "self"),
    ("perturb.exact.evals", "count",
     _exact("perturb.solve_microcanonical/exact_constraints"), "evals"),
    ("perturb.exclusion.self_ms", "ms", _exact("perturb.exclusion_scan"), "self"),
    ("perturb.self_ms", "ms", _prefix("perturb."), "self"),
    ("optimize.golden.calls", "count", _exact("optimize.golden_section_min"), "count"),
    ("optimize.golden.iters", "count", _exact("optimize.golden_section_min"), "iters"),
    ("optimize.self_ms", "ms", _prefix("optimize."), "self"),
    ("scaling.curve.calls", "count", _exact("scaling.curve_sweep"), "count"),
    ("scaling.curve.self_ms", "ms", _exact("scaling.curve_sweep"), "self"),
    ("scaling.curve.rows", "count", _exact("scaling.curve_sweep"), "rows"),
    ("scaling.sre.calls", "count", _exact("scaling.specific_relative_entropy"), "count"),
    ("scaling.self_ms", "ms", _prefix("scaling."), "self"),
    ("entropy.calls", "count", _prefix("entropy."), "count"),
    ("entropy.self_ms", "ms", _prefix("entropy."), "self"),
    ("ensembles.count.calls", "count", _COUNT, "count"),
    ("ensembles.count.self_ms", "ms", _COUNT, "self"),
    ("ensembles.count_n8.self_ms", "ms", _exact("ensembles.count_constrained/n8"), "self"),
    # 2^C(n,2) per call, computed from the argument, not counted by the library
    ("ensembles.count.masks", "count", _COUNT, "masks"),
    ("ensembles.relent.calls", "count", _exact("ensembles.relative_entropy_exact"), "count"),
    ("ensembles.relent.self_ms", "ms", _exact("ensembles.relative_entropy_exact"), "self"),
    ("ensembles.calibrate.calls", "count", _exact("ensembles.calibrate_exact"), "count"),
    ("ensembles.calibrate.self_ms", "ms", _exact("ensembles.calibrate_exact"), "self"),
    ("ensembles.partition.calls", "count", _exact("ensembles.partition_exact"), "count"),
    ("ensembles.partition.self_ms", "ms", _exact("ensembles.partition_exact"), "self"),
    ("ensembles.mcmc.steps", "count", _exact("ensembles.mcmc_sample"), "steps"),
    ("ensembles.mcmc.self_ms", "ms", _exact("ensembles.mcmc_sample"), "self"),
    ("ensembles.mcmc_calibrate.calls", "count", _exact("ensembles.mcmc_calibrate"), "count"),
    ("ensembles.mcmc_calibrate.self_ms", "ms", _exact("ensembles.mcmc_calibrate"), "self"),
    ("ensembles.self_ms", "ms", _prefix("ensembles."), "self"),
)


def layer_metrics(rows) -> dict:
    """Per-layer metric values from trace rows (as written by ``Tracer.rows``)."""
    out = {}
    for metric, unit, match, key in SUMS:
        total = 0.0 if unit == "ms" else 0
        for row in rows:
            if match(row["name"]):
                total += row["self_ms"] if key == "self" else row.get(key, 0)
        out[metric] = (total, unit)
    mcmc = [r for r in rows if r["name"] == "ensembles.mcmc_sample"]
    steps = sum(r["steps"] for r in mcmc)
    busy_s = sum(r["busy_ms"] for r in mcmc) / 1e3
    out["ensembles.mcmc.steps_per_s"] = (steps / busy_s if busy_s else 0.0, "1/s")
    out["ensembles.mcmc.accept_rate"] = (
        sum(r["accepted"] for r in mcmc) / steps if steps else 0.0, "1")
    return out
