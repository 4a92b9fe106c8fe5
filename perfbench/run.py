"""The ergraphon benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {variational,exact,mcmc} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
Workloads and their rationale are defined in workloads.py.

``--trace 0`` measures the end-to-end metrics. Set-up is timed from the
start of a fresh interpreter until it has imported ergraphon and run one
warm-up task of each kind and size; it is taken in three processes and the
median is reported. The last of the three then runs the timed closed loop
for ``--seconds`` (and at least 100 tasks, so that ten lie beyond p90).

``--trace 1`` measures the per-layer metrics. After the same untraced loop
it replays the same tasks with every public library function wrapped
(spans.py); the ratio of the two passes' task rates is the tracing
overhead. It then runs the README's command-line examples twice each
(cli_probe.py) and times ``import ergraphon`` with ``-X importtime``.

Every output is checked (checks.py); a task that raises or fails its check
counts in ``failed``. The last line of stdout is the result object.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import cli_probe
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
MIN_TASKS = 100

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    [(name, unit) for name, unit, _, _ in spans.SUMS]
    + [("ensembles.mcmc.steps_per_s", "1/s"), ("ensembles.mcmc.accept_rate", "1"),
       ("trace.tasks_per_s", "1/s"), ("trace.untraced_tasks_per_s", "1/s"),
       ("trace.overhead_pct", "%"),
       ("cli.import_ms", "ms"), ("cli.scipy_import_ms", "ms")]
    + [(f"cli.{sub}.wall_ms", "ms") for sub in cli_probe.SUBCOMMANDS]
    + [("cli.failed", "count")]
)


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    """Environment for every child: the checkout's sources, pools capped at nproc."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def spawn_worker(env, tasks_file, timeout, *extra) -> float:
    """Run worker.py to completion; return seconds from spawn to ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--tasks", str(tasks_file), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise WorkerError(f"worker {' '.join(extra)} exited {code} before finishing")
    return ready


def percentile(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def stamp() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ergraphon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def check_all(eg, tasks_by_id, results) -> list:
    """Failure reasons, one per failed task."""
    failures = []
    for r in results:
        reason = r["error"] or checks.check(eg, tasks_by_id[r["id"]], r["out"])
        if reason:
            failures.append(f"task {r['id']} ({r['kind']}): {reason.strip()}")
    return failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ergraphon" / "__init__.py").is_file():
        print(f"perfbench: no ergraphon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tasks = workloads.generate(args.workload, args.seed)
    tasks_by_id = {t["id"]: t for t in tasks}
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    tasks_file, result_file = run_dir / "tasks.json", run_dir / "result.json"
    tasks_file.write_text(json.dumps({"warmup": workloads.warmup(args.workload),
                                      "tasks": tasks}))
    env = child_env()
    timeout = 2 * args.seconds + 60
    loop = ["--seconds", str(args.seconds), "--min-tasks", str(MIN_TASKS),
            "--result", str(result_file)]
    trace_file = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
    try:
        if args.trace:
            spawn_worker(env, tasks_file, timeout, *loop, "--trace", str(trace_file))
        else:
            setups = [spawn_worker(env, tasks_file, timeout, "--setup-only")
                      for _ in range(SETUP_SAMPLES - 1)]
            setups.append(spawn_worker(env, tasks_file, timeout, *loop))
        report = json.loads(result_file.read_text())
        results = report["results"]
        eg = None
        if args.workload == "variational":  # its checks re-measure with the library
            sys.path.insert(0, str(ROOT / "src"))
            import ergraphon as eg
        failures = check_all(eg, tasks_by_id, results)
        attempted = len(results)
        if args.trace:
            traced = report["traced_results"]
            failures += check_all(eg, tasks_by_id, traced)
            attempted += len(traced)
            with open(trace_file) as fh:
                rows = [json.loads(line) for line in fh]
            layer = spans.layer_metrics(rows)
            untraced_rate = len(results) / report["wall_s"]
            traced_rate = len(traced) / report["traced_wall_s"]
            layer["trace.tasks_per_s"] = (traced_rate, "1/s")
            layer["trace.untraced_tasks_per_s"] = (untraced_rate, "1/s")
            layer["trace.overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1.0), "%")
            cli_metrics, cli_attempted, cli_failures = cli_probe.probe(env, run_dir / "cli")
            layer.update(cli_metrics)
            attempted += cli_attempted
            failures += cli_failures
            metrics = {name: layer[name] for name, _ in PER_LAYER}
        else:
            lat = [r["ms"] for r in results]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "tasks_per_s": (len(results) / report["wall_s"], "1/s"),
                "task_p50_ms": (statistics.median(lat), "ms"),
                "task_p90_ms": (percentile(lat, 90), "ms"),
                "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            }
    except (WorkerError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    by_kind = {}
    for r in results:
        by_kind.setdefault(r["kind"], []).append(r["ms"])
    kinds = {k: {"tasks": len(v), "median_ms": round(statistics.median(v), 3)}
             for k, v in by_kind.items()}
    for reason in failures[:10]:
        print(f"FAIL {reason}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "task_hash": workloads.task_hash(tasks), "tasks": len(results), "kinds": kinds,
        "failed_frac": len(failures) / attempted, "stamp": stamp(),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
