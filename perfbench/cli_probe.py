"""Command-line probe: README examples run twice, and import time.

Each example runs in a fresh interpreter, import included, once in each of
two scratch directories. A nonzero exit, or stdout or output-file bytes
that differ between the two runs, is a failure: identical configurations
must give byte-identical output.
"""

import re
import subprocess
import sys
import time
from pathlib import Path

# the command-line examples of the README, by subcommand
EXAMPLES = (
    ("entropy", ["--u", "0.5"]),
    ("entropy", ["--fmin", "--t1", "0.7"]),
    ("curve", ["--t1", "0.5,0.6,0.7,0.8", "--eps", "1e-6,1e-5,1e-4,1e-3", "--side", "below",
               "--out", "below.csv"]),
    ("solve", ["--t1", "0.3", "--t2", "0.026973"]),
    ("exact", ["--n", "4", "--edges", "3", "--triangles", "0"]),
    ("exact", ["--n", "6", "--edges", "7", "--triangles", "2", "--full"]),
    ("mcmc", ["--n", "100", "--theta1", "0.5", "--theta2", "0", "--steps", "1e6",
              "--seed", "1"]),
)
SUBCOMMANDS = ("entropy", "curve", "solve", "exact", "mcmc")


def _snapshot(cwd: Path, stdout: bytes) -> dict:
    files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir()) if p.is_file()}
    return {"stdout": stdout, "files": files}


def run_examples(env: dict, workdir: Path) -> tuple:
    """({subcommand: mean wall ms over both runs}, attempted, [failure reasons])."""
    wall = {s: 0.0 for s in SUBCOMMANDS}
    failures = []
    for k, (sub, argv) in enumerate(EXAMPLES):
        seen = []
        for rep in (1, 2):
            cwd = workdir / f"ex{k}-run{rep}"
            cwd.mkdir(parents=True)
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "ergraphon.cli", sub, *argv],
                                  cwd=cwd, env=env, capture_output=True, timeout=150)
            wall[sub] += 1e3 * (time.perf_counter() - t0) / 2.0
            if proc.returncode != 0:
                failures.append(f"{sub} {' '.join(argv)}: exit {proc.returncode}: "
                                f"{proc.stderr.decode(errors='replace')[-200:]}")
            seen.append(_snapshot(cwd, proc.stdout))
        if seen[0] != seen[1]:
            failures.append(f"{sub} {' '.join(argv)}: output bytes differ between runs")
    return wall, len(EXAMPLES), failures


_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(text: str) -> tuple:
    """(ergraphon cumulative ms, scipy ms) from ``python -X importtime`` output.

    The scipy figure sums the cumulative time of every scipy module that is
    not itself imported from inside another scipy module.
    """
    total = scipy = 0.0
    entries = []
    for line in text.splitlines():
        m = _LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) / 1e3))
    # importtime prints children before their parent, deeper indented
    for i, (depth, name, cum) in enumerate(entries):
        if name == "ergraphon":
            total = cum
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), None)
        if parent is None or parent.split(".")[0] != "scipy":
            scipy += cum
    return total, scipy


def import_times(env: dict) -> tuple:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ergraphon"],
                          env=env, capture_output=True, timeout=120, check=True)
    return parse_importtime(proc.stderr.decode())


def probe(env: dict, workdir: Path) -> tuple:
    """(metrics {name: (value, unit)}, attempted, failures)."""
    wall, attempted, failures = run_examples(env, workdir)
    import_ms, scipy_ms = import_times(env)
    metrics = {"cli.import_ms": (import_ms, "ms"), "cli.scipy_import_ms": (scipy_ms, "ms")}
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_ms"] = (wall[sub], "ms")
    metrics["cli.failed"] = (len(failures), "count")
    return metrics, attempted, failures

