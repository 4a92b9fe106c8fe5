"""Which starts of the exact_constraints Euler-Lagrange solve converge and win.

Runs every start that ``perturb._exact_starts`` yields on its own, over a
grid of targets on both sides of the Erdos-Renyi line:

    t1 in {0.02, 0.04, ..., 0.98} u {0.025, 0.075, ..., 0.925}
          u {0.49, 0.499, 0.501, 0.51},
    eps in {1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2},
    t2 = t1^3 + 3 t1 eps (above) or t1^3 (1 - eps) (below).

For each kind of start and side it prints the starts tried, those that
converged, their wins (converged within 1e-13 of the lowest entropy any
start reached at that target), their sole wins (the only start within
1e-13) and their residual evaluations. Targets within the ER-line tolerance
or outside the admissible region are skipped; a target with no start (a
missing reduced seed) counts as infeasible. Not collected by pytest; run by
hand from the repository root (about two minutes):

    PYTHONPATH=src python tests/exact_starts_sweep.py [--json FILE]

``--json FILE`` also writes one record per target (t1, side, eps, the
lowest entropy or null when no start converged, residual evaluations), so
that two checkouts can be compared target by target.
"""

import json
import sys
from collections import defaultdict

from ergraphon import perturb
from ergraphon.errors import InfeasibleError
from ergraphon.graphon import _admissible, _corner_value

T1S = sorted({k / 50 for k in range(1, 50)} | {k / 40 for k in range(1, 38, 2)}
             | {0.49, 0.499, 0.501, 0.51})
EPSS = (1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
WIN_TOL = 1e-13
COLUMNS = ("tried", "converged", "wins", "sole wins", "evaluations")


def kind(t1: float, delta: float, start) -> str:
    """Name the rule of ``_exact_starts`` that made ``start``."""
    lam, v11, v12, _ = start
    if v12 == t1:
        return "split" if lam == 0.49 else "dense"
    if v11 == _corner_value(t1):
        h = -1.0 / (1.0 - 2.0 * t1)
        if lam == min(delta / (3.0 * t1) * h * h, 0.45):
            return "vanishing, closed form"
        return f"vanishing, lam = {lam:g}"
    return "reduced"


def run_start(t1: float, t2: float, start):
    """(entropy or None, residual evaluations) of one start on its own."""
    spent = []
    newton = perturb._el_newton

    def counted(*args):
        z, evals = newton(*args)
        spent.append(evals)
        return z, evals

    perturb._el_newton = counted
    try:
        _, ent, _ = perturb._solve_exact(t1, t2, [start])
    except InfeasibleError:
        ent = None
    finally:
        perturb._el_newton = newton
    return ent, sum(spent)


def sweep():
    table = defaultdict(lambda: dict.fromkeys(COLUMNS, 0))
    records = []
    for side in ("above", "below"):
        for t1 in T1S:
            for eps in EPSS:
                t2 = t1 ** 3 + 3 * t1 * eps if side == "above" else t1 ** 3 * (1 - eps)
                delta = t2 - t1 ** 3
                if abs(delta) <= perturb._ER_TOL or not _admissible(t1, t2):
                    continue
                try:
                    starts = perturb._exact_starts(t1, delta)
                except InfeasibleError:
                    starts = []
                runs = [(kind(t1, delta, s), *run_start(t1, t2, s)) for s in starts]
                found = [ent for _, ent, _ in runs if ent is not None]
                best = min(found) if found else None
                winners = [k for k, ent, _ in runs if ent is not None and ent <= best + WIN_TOL]
                for k, ent, evals in runs:
                    row = table[side, k]
                    row["tried"] += 1
                    row["converged"] += ent is not None
                    row["wins"] += k in winners
                    row["sole wins"] += winners == [k]
                    row["evaluations"] += evals
                records.append({"t1": t1, "side": side, "eps": eps, "entropy": best,
                                "evaluations": sum(e for _, _, e in runs)})
    return table, records


def main(argv) -> int:
    table, records = sweep()
    print("| side | start | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 2) + "|")
    for (side, k), row in sorted(table.items()):
        print(f"| {side} | {k} | " + " | ".join(str(row[c]) for c in COLUMNS) + " |")
    for side in ("above", "below"):
        recs = [r for r in records if r["side"] == side]
        print(f"{side}: {len(recs)} targets, "
              f"{sum(r['entropy'] is None for r in recs)} with no converged start, "
              f"{sum(r['evaluations'] for r in recs)} residual evaluations")
    if argv[:1] == ["--json"]:
        with open(argv[1], "w") as fh:
            json.dump(records, fh, indent=0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
