"""One workload in one fresh process: import, warm up, then the timed loop.

Started by run.py, never imported by it. Prints ``ready`` once ergraphon is
imported and the warm-up tasks have run, so the parent can time set-up
from process start. Unless ``--setup-only`` is given it then runs tasks in
a closed loop (one client, each task starts when the previous one ends)
until ``--seconds`` have passed and at least ``--min-tasks`` are done, and
writes latencies, outputs and peak RSS to ``--result``. With ``--trace``
it replays the same tasks with every public library function wrapped and
writes the spans there as JSON lines.
"""

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_task(eg, task) -> dict:
    """Call the one public function a task stands for; return its output."""
    kind, a = task["kind"], task["args"]
    if kind in ("reduced", "exact_constraints"):
        mode = "reduced" if kind == "reduced" else "exact_constraints"
        rep = eg.solve_microcanonical(a["t1"], a["t2"], mode=mode)
        x = rep.ansatz
        return {"lam": x.lam, "g11": x.g11, "g12": x.g12, "g22": x.g22,
                "entropy": rep.entropy, "iterations": rep.iterations}
    if kind == "curve":
        if a["scan"] == "exclusion":
            rep = eg.exclusion_scan(a["t1"])
            return {"attainable": rep.reduced_attainable, "exponents": rep.exponents,
                    "positive": rep.k2_positive}
        return {"rows": eg.curve_sweep([a["t1"]], a["eps"], "both")}
    if kind.startswith("relent"):
        sol = eg.relative_entropy_exact(a["n"], tuple(a["c"]))
        return {"omega": sol.omega, "s_n": sol.s_n, "theta": list(sol.theta),
                "psi_n": sol.psi_n, "mean_t": list(sol.mean_t)}
    if kind.startswith("count"):
        return {"omega": eg.count_constrained(a["n"], tuple(a["c"]))}
    if kind == "partition7":
        psi, means = eg.partition_exact(a["n"], tuple(a["theta"]))
        return {"psi_n": psi, "mean_t": list(means)}
    if kind.startswith("mcmc"):
        s = eg.mcmc_sample(a["n"], tuple(a["theta"]), a["steps"], seed=a["seed"])
        return {"mean_t1": s.mean_t1, "se_t1": s.se_t1, "mean_t3": s.mean_t3,
                "se_t3": s.se_t3, "mean_edge_fraction": s.mean_edge_fraction,
                "se_edge_fraction": s.se_edge_fraction, "accept_rate": s.accept_rate,
                "steps": s.steps}
    if kind == "calibrate30":
        return {"theta": list(eg.mcmc_calibrate(a["n"], tuple(a["target"]), seed=a["seed"]))}
    raise ValueError(f"unknown task kind {kind!r}")


def attempt(eg, task) -> dict:
    """Run one task; a raised error is recorded as the task's outcome."""
    t0 = perf_counter()
    try:
        out, err = run_task(eg, task), None
    except Exception:  # noqa: BLE001 -- every library error counts as a failed task
        out, err = None, traceback.format_exc(limit=3)
    return {"id": task["id"], "kind": task["kind"], "ms": 1e3 * (perf_counter() - t0),
            "out": out, "error": err}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--tasks", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-tasks", type=int, default=0)
    p.add_argument("--result")
    p.add_argument("--trace")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    with open(args.tasks) as fh:
        spec = json.load(fh)
    import ergraphon as eg

    for task in spec["warmup"]:
        run_task(eg, task)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tasks, results = spec["tasks"], []
    t0 = perf_counter()
    for task in tasks:
        if perf_counter() - t0 >= args.seconds and len(results) >= args.min_tasks:
            break
        results.append(attempt(eg, task))
    wall = perf_counter() - t0
    report = {"wall_s": wall, "results": results}

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        traced = []
        t0 = perf_counter()
        try:
            for task in tasks[:len(results)]:
                with tracer.task(task["id"], task["kind"]):
                    traced.append(attempt(eg, task))
        finally:
            tracer.uninstall()
        report["traced_wall_s"] = perf_counter() - t0
        report["traced_results"] = traced
        tracer.write(args.trace)

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
