"""Every float the variational layer returns, as ``float.hex``, for diffing.

Prints one line per result over a fixed set of calls:

* ``solve_microcanonical`` in mode "reduced" at t2 = t1^3 (1 - eps), and in
  mode "exact_constraints" at that target and at t2 = t1^3 + 3 t1 eps, for
  t1 in T1S and eps in EPSS (a raised error is recorded by class and message);
* the rows of ``curve_sweep([0.3, 0.6, 0.7], CURVE_EPS, "both")``;
* ``exclusion_scan`` at t1 = 0.3, 0.6 and 0.7.

Two checkouts that print the same bytes return the same bits on these
calls. Not collected by pytest; run by hand from the repository root
(about half a minute):

    PYTHONPATH=src python tests/variational_bits.py [--json FILE]

``--json FILE`` also writes the records as a JSON list, so that two
checkouts can be compared record by record.
"""

import json
import sys

from ergraphon import ErgraphonError, curve_sweep, exclusion_scan, solve_microcanonical

T1S = (0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49, 0.5, 0.51, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95)
EPSS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 3e-2)
CURVE_T1S = (0.3, 0.6, 0.7)
CURVE_EPS = (1e-5, 1e-4, 1e-3)
EXCLUSION_T1S = (0.3, 0.6, 0.7)


def bits(x):
    """``x`` with every float replaced by its ``float.hex``, recursively."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    return x


def outcome(call, *args, **kwargs):
    """The result of ``call`` through ``bits``, or the error it raised."""
    try:
        return bits(call(*args, **kwargs))
    except ErgraphonError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def solve_row(t1, t2, mode):
    return solve_microcanonical(t1, t2, mode=mode).to_row()


def exclusion_record(t1):
    rep = exclusion_scan(t1)
    return {"scales": rep.scales, "exponents": rep.exponents, "k2_positive": rep.k2_positive,
            "reduced_attainable": rep.reduced_attainable,
            "reduced_entropy_gap": rep.reduced_entropy_gap}


def records():
    out = []
    for t1 in T1S:
        for eps in EPSS:
            below, above = t1 ** 3 * (1.0 - eps), t1 ** 3 + 3.0 * t1 * eps
            for side, t2, mode in (("below", below, "reduced"),
                                   ("below", below, "exact_constraints"),
                                   ("above", above, "exact_constraints")):
                out.append({"call": "solve", "t1": t1, "eps": eps, "side": side, "mode": mode,
                            "result": outcome(solve_row, t1, t2, mode)})
    out.append({"call": "curve_sweep", "t1": CURVE_T1S, "eps": CURVE_EPS, "side": "both",
                "result": outcome(curve_sweep, CURVE_T1S, CURVE_EPS, "both")})
    for t1 in EXCLUSION_T1S:
        out.append({"call": "exclusion_scan", "t1": t1,
                    "result": outcome(exclusion_record, t1)})
    return out


def main(argv) -> int:
    recs = records()
    for r in recs:
        print(json.dumps(r, sort_keys=True))
    if argv[:1] == ["--json"]:
        with open(argv[1], "w") as fh:
            json.dump(recs, fh, indent=0, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
