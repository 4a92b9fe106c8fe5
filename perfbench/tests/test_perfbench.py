"""Tests of the benchmark's own code: generator, span arithmetic, oracle,
checks and the metric names it prints."""

import json
import math
from pathlib import Path

import pytest

import checks
import cli_probe
import oracle
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    a = workloads.generate(workload, 7, length=200)
    b = workloads.generate(workload, 7, length=200)
    c = workloads.generate(workload, 8, length=200)
    assert a == b
    assert workloads.task_hash(a) == workloads.task_hash(b)
    assert workloads.task_hash(a) != workloads.task_hash(c)
    assert [t["id"] for t in a] == list(range(200))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_blocks_keep_their_mix(workload):
    spec = workloads.WORKLOADS[workload]
    assert sum(spec["block"].values()) == workloads.BLOCK
    tasks = workloads.generate(workload, 3, length=10 * workloads.BLOCK)
    kinds = [t["kind"] for t in tasks if t["kind"] != "count8"]
    for kind, per_block in spec["block"].items():
        assert abs(kinds.count(kind) - 10 * per_block) <= 1


def test_exact_stream_draws():
    tasks = workloads.generate("exact", 5, length=400)
    assert [t["kind"] for t in tasks].count("count8") == 1
    assert next(i for i, t in enumerate(tasks) if t["kind"] == "count8") < workloads.BLOCK
    for t in tasks:
        if t["kind"] in workloads.ENUM_N:
            n, c = t["args"]["n"], tuple(t["args"]["c"])
            assert 0.25 <= c[0] / (n * (n - 1) // 2) <= 0.75
            assert c in oracle.interior_classes(n)


def test_mcmc_theta_box_covers_all_signs():
    tasks = workloads.generate("mcmc", 5, length=200)
    th2 = [t["args"]["theta"][1] for t in tasks if t["kind"] in workloads.MCMC_N]
    assert any(x < 0 for x in th2) and any(x == 0 for x in th2) and any(x > 0 for x in th2)


def _rec(name, parent, busy, task=0, **counters):
    return [name, 0.0, busy, parent, task, 1, busy, counters]


def test_self_time_subtracts_direct_children_only():
    records = [
        _rec("bench.task/x", -1, 10.0),
        _rec("perturb.solve_microcanonical/reduced", 0, 8.0, evals=5),
        _rec("graphon.StepGraphon", 1, 3.0),
        _rec("graphon.entropy_functional", 1, 2.5),
        _rec("entropy.bernoulli_entropy", 3, 0.5),
    ]
    assert spans.self_times(records) == pytest.approx([2.0, 2.5, 3.0, 2.0, 0.5])


def test_layer_metrics_from_rows():
    records = [
        _rec("bench.task/x", -1, 0.010),
        _rec("perturb.solve_microcanonical/reduced", 0, 0.008, evals=5),
        _rec("graphon.StepGraphon", 1, 0.003),
        _rec("ensembles.count_constrained/n8", 0, 0.001, masks=1 << 28),
    ]
    tracer = spans.Tracer()
    tracer.t0 = 0.0
    tracer.records = records
    m = spans.layer_metrics(tracer.rows())
    assert m["perturb.reduced.self_ms"][0] == pytest.approx(5.0)
    assert m["perturb.reduced.evals"][0] == 5
    assert m["graphon.step_graphon.count"][0] == 1
    assert m["ensembles.count_n8.self_ms"][0] == pytest.approx(1.0)
    assert m["ensembles.count.masks"][0] == 1 << 28
    assert m["ensembles.relent.calls"][0] == 0


def test_tracer_nests_rebound_calls_and_uninstalls():
    import ergraphon as eg
    from ergraphon import scaling

    original = scaling.solve_microcanonical
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.task(0, "probe"):
            eg.specific_relative_entropy(0.6, 1e-4, "below")
    finally:
        tracer.uninstall()
    assert scaling.solve_microcanonical is original
    rows = tracer.rows()
    by_name = {r["name"]: r for r in rows}
    sre = by_name["scaling.specific_relative_entropy"]
    solve = by_name["perturb.solve_microcanonical/reduced"]
    assert solve["parent"] == sre["id"] and solve["task"] == 0
    assert sum(r["count"] for r in rows if r["name"] == "graphon.StepGraphon") > 1000
    assert solve["self_ms"] <= solve["busy_ms"]


def test_printed_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        k: v["why"] for k, v in workloads.WORKLOADS.items()}
    # a traced run assembles its metrics from these three sources
    produced = set(spans.layer_metrics([])) | {
        "trace.tasks_per_s", "trace.untraced_tasks_per_s", "trace.overhead_pct",
        "cli.import_ms", "cli.scipy_import_ms", "cli.failed"} | {
        f"cli.{s}.wall_ms" for s in cli_probe.SUBCOMMANDS}
    assert produced == {name for name, _ in run.PER_LAYER}


def test_oracle_histogram_and_canonical_means():
    import ergraphon as eg

    for n in (4, 5, 6):
        hist = oracle.histogram(n)
        assert sum(hist.values()) == 2 ** (n * (n - 1) // 2)
    assert oracle.omega(4, 3, 0) == 16
    assert oracle.omega(3, 3, 1) == 1
    psi, means = oracle.canonical(6, (0.3, -0.7))
    psi_lib, means_lib = eg.partition_exact(6, (0.3, -0.7))
    assert psi == pytest.approx(psi_lib, rel=1e-12)
    assert means == pytest.approx(means_lib, rel=1e-12)
    assert (0, 0) not in oracle.interior_classes(5)


def test_logistic_se_matches_independent_limit():
    # for steps much longer than the correlation time, var -> p(1-p)/N * (1+lam)/(1-lam) / T
    n, th1, steps = 30, 0.4, 10 ** 8
    p, se = oracle.logistic_edge_se(n, th1, steps)
    assert p == pytest.approx(math.exp(0.8) / (1 + math.exp(0.8)))
    npairs = n * (n - 1) // 2
    lam = 1 - (1 + math.exp(-0.8)) / npairs
    assert se == pytest.approx(math.sqrt(p * (1 - p) / npairs * (1 + lam) / (1 - lam) / steps),
                               rel=1e-4)


def test_checks_flag_wrong_outputs():
    count = {"kind": "count7", "args": {"n": 7, "c": [11, 3]}}
    right = oracle.omega(7, 11, 3)
    assert checks.check(None, count, {"omega": right}) is None
    assert checks.check(None, count, {"omega": right + 1})
    n8 = {"kind": "count8", "args": {"n": 8, "c": [14, 8]}}
    assert checks.check(None, n8, {"omega": 4825800}) is None
    chain = {"kind": "mcmc100", "args": {"n": 100, "theta": [0.5, 0.0], "steps": 20000}}
    p, se = oracle.logistic_edge_se(100, 0.5, 20000)
    out = {"mean_t1": 0.7, "se_t1": 1e-3, "mean_t3": 0.3, "se_t3": 1e-3,
           "accept_rate": 0.4, "mean_edge_fraction": p + 2 * se}
    assert checks.check(None, chain, out) is None
    out["mean_edge_fraction"] = p + 10 * se
    assert checks.check(None, chain, out)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        900 |     scipy.optimize",
        "import time:        50 |         50 |     ergraphon.errors",
        "import time:       100 |       1200 |   ergraphon.perturb",
        "import time:        80 |       1500 | ergraphon",
    ])
    assert cli_probe.parse_importtime(text) == pytest.approx((1.5, 1.2))
