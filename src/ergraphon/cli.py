"""Command-line front end: entropy values, curve sweeps, solves, exact
ensembles, and the Metropolis sampler, emitted as plot-ready CSV or JSON.

Exit codes are part of the contract:

    0  success
    2  domain error (bad argument ranges)
    3  output I/O failure
    4  infeasible constraint target
    5  enumeration capacity exceeded
    6  iterative non-convergence
    7  input I/O failure (an input file cannot be read)

Output rules: every CSV gets a header row and one trailing comment line with
the package version, a hash of the run configuration, and the tolerances in
play; floats are printed with 17 significant digits; JSON mirrors the CSV
records field-for-field as an array of objects. Identical configurations
(seeds included -- there is no wall-clock seeding anywhere) produce
byte-identical files.
"""

import argparse
import hashlib
import json
import sys

from . import __version__
from .entropy import (
    bernoulli_entropy,
    bernoulli_entropy_deriv,
    bregman_quotient,
    bregman_quotient_min,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    ErgraphonError,
    InfeasibleError,
)
from .ensembles import (
    _NEWTON_TOL,
    MCMC_CAPACITY,
    MCMC_PROPOSAL_CAPACITY,
    count_constrained,
    mcmc_sample,
    relative_entropy_exact,
)
from .perturb import _ER_TOL, _RESIDUAL_TOL, solve_microcanonical
from .scaling import CURVE_FIELDS, curve_sweep

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_CAPACITY = 5
EXIT_NONCONVERGENCE = 6
EXIT_INPUT_IO = 7

# the first class an error is an instance of picks its exit code
_EXIT_CODES = (
    (CapacityError, EXIT_CAPACITY),
    (InfeasibleError, EXIT_INFEASIBLE),
    (ConvergenceError, EXIT_NONCONVERGENCE),
    (ErgraphonError, EXIT_DOMAIN),
    (OSError, EXIT_IO),
)

EPS_MAX = 0.1


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _config_hash(args: argparse.Namespace) -> str:
    # the hash identifies the computation, not the destination
    skip = ("func", "out")
    payload = json.dumps(
        {k: v for k, v in sorted(vars(args).items()) if k not in skip},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _emit(rows, fields, args, tolerances="") -> None:
    """Write records as CSV (with meta trailer) or a JSON array."""
    fmt = getattr(args, "format", "csv")
    if fmt == "json":
        text = json.dumps([{k: r[k] for k in fields} for r in rows], indent=None) + "\n"
    else:
        lines = [",".join(fields)]
        for r in rows:
            lines.append(",".join(_fmt(r[k]) for k in fields))
        lines.append(
            f"# version={__version__} config={_config_hash(args)} tolerances={tolerances}"
        )
        text = "\n".join(lines) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    """Write text to ``--out`` when given, else to stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float_list(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip()]


_CONFIG_KEYS = ("t1", "eps", "side")


def _config_numbers(cfg: dict, key: str) -> list:
    """``cfg[key]`` (default empty) as floats; DomainError unless a JSON array of numbers."""
    values = cfg.get(key, [])
    if not (isinstance(values, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in values)):
        raise DomainError(f"config key {key!r} must be a JSON array of numbers, got {values!r}")
    return [float(x) for x in values]


def _check_eps_grid(grid) -> None:
    for e in grid:
        if not 0.0 < e <= EPS_MAX:
            raise DomainError(f"eps values must lie in (0, {EPS_MAX}], got {e!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_entropy(args) -> int:
    rows = []
    if args.u is not None:
        if args.k:
            rows.append({
                "quantity": f"I^({args.k})", "arg": args.u,
                "value": bernoulli_entropy_deriv(args.u, args.k),
            })
        else:
            rows.append({"quantity": "I", "arg": args.u,
                         "value": bernoulli_entropy(args.u)})
    if args.t1 is not None:
        if args.fmin:
            res = bregman_quotient_min(args.t1)
            rows.append({"quantity": "quotient_min_x", "arg": args.t1, "value": res.x})
            rows.append({"quantity": "quotient_min_value", "arg": args.t1, "value": res.value})
        elif args.x is not None:
            rows.append({"quantity": "quotient", "arg": args.t1,
                         "value": bregman_quotient(args.t1, args.x)})
    if not rows:
        raise DomainError("nothing requested: pass --u, or --t1 with --x/--fmin")
    _emit(rows, ("quantity", "arg", "value"), args)
    return EXIT_OK


def cmd_curve(args) -> int:
    if args.config:
        try:
            with open(args.config, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            # exit 3 is reserved for output I/O
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_IO
    try:
        if args.config:
            cfg = json.loads(raw)
            if not isinstance(cfg, dict):
                raise DomainError(f"{args.config} must hold a JSON object")
            unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
            if unknown:
                raise DomainError(f"{args.config}: unknown keys {unknown}; "
                                  f"the keys are {', '.join(_CONFIG_KEYS)}")
            t1_list = _config_numbers(cfg, "t1")
            eps_grid = _config_numbers(cfg, "eps")
            side = cfg.get("side", args.side)
            # the trailer hashes the values the file holds, not its path
            args.config = {"t1": t1_list, "eps": eps_grid, "side": side}
        else:
            t1_list = _float_list(args.t1)
            eps_grid = _float_list(args.eps)
            side = args.side
    except (ValueError, OverflowError) as exc:
        # malformed JSON, a --t1/--eps entry that is not a number, or an int beyond float range
        raise DomainError(f"bad curve input: {exc}") from None
    _check_eps_grid(eps_grid)
    rows = curve_sweep(t1_list, eps_grid, side)
    _emit(rows, CURVE_FIELDS, args, tolerances=f"residual={_RESIDUAL_TOL:g}")
    return EXIT_OK


def cmd_solve(args) -> int:
    report = solve_microcanonical(args.t1, args.t2, mode=args.mode, er_tol=args.er_tol)
    if args.format == "text":
        _write(report.to_text(), args)
    else:
        _emit([report.to_row()], report.ROW_FIELDS, args,
              tolerances=f"residual={_RESIDUAL_TOL:g} er_tol={args.er_tol:g}")
    return EXIT_OK


def cmd_exact(args) -> int:
    if args.full:
        sol = relative_entropy_exact(args.n, (args.edges, args.triangles))
        rows = [{
            "n": args.n, "edges": args.edges, "triangles": args.triangles,
            "omega": sol.omega, "theta1": sol.theta.theta1, "theta2": sol.theta.theta2,
            "psi_n": sol.psi_n, "mean_t1": sol.mean_t[0], "mean_t3": sol.mean_t[1],
            "s_n": sol.s_n,
        }]
        fields = ("n", "edges", "triangles", "omega", "theta1", "theta2",
                  "psi_n", "mean_t1", "mean_t3", "s_n")
    else:
        omega = count_constrained(args.n, (args.edges, args.triangles))
        rows = [{"n": args.n, "edges": args.edges, "triangles": args.triangles,
                 "omega": omega}]
        fields = ("n", "edges", "triangles", "omega")
    _emit(rows, fields, args, tolerances=f"newton={_NEWTON_TOL:g}")
    return EXIT_OK


def cmd_mcmc(args) -> int:
    summary = mcmc_sample(args.n, (args.theta1, args.theta2), args.steps,
                          seed=args.seed, burnin=args.burnin)
    _emit([summary.to_row()], summary.ROW_FIELDS, args, tolerances="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergraphon",
        description="Edge/triangle constrained-graphon calculations near the line t2 = t1^3",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("entropy", help="entropy values, derivatives, quotient minima")
    p.add_argument("--u", type=float)
    p.add_argument("--k", type=int, default=0, help="derivative order (with --u)")
    p.add_argument("--t1", type=float)
    p.add_argument("--x", type=float, help="quotient argument (with --t1)")
    p.add_argument("--fmin", action="store_true", help="quotient minimizer (with --t1)")
    add_io(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("curve", help="scaling-law sweep: closed form vs numeric")
    p.add_argument("--t1", default="0.5,0.6,0.7,0.8", help="comma-separated list")
    p.add_argument("--eps", default="1e-6,1e-5,1e-4,1e-3", help="comma-separated grid")
    p.add_argument("--side", choices=("below", "above", "both"), default="below")
    p.add_argument("--config", help="JSON file with keys t1, eps, side (batch sweeps)")
    add_io(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("solve", help="two-step microcanonical solve")
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--mode", choices=("reduced", "exact_constraints"), default="reduced")
    p.add_argument("--er-tol", type=float, default=_ER_TOL, dest="er_tol",
                   help="treat |t2 - t1^3| below this as the unperturbed point")
    p.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="exact enumeration: counts and relative entropy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--triangles", type=int, required=True)
    p.add_argument("--full", action="store_true",
                   help="calibrate and report psi, theta, S_n (n <= 7)")
    add_io(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("mcmc", help="edge-flip Metropolis sampling")
    p.add_argument("--n", type=int, required=True,
                   help=f"vertices, 3 <= n <= {MCMC_CAPACITY} (a larger n exits 5)")
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument("--theta2", type=float, required=True)
    p.add_argument("--steps", required=True,
                   help="recorded proposals (1e6 style accepted); burnin + steps <= "
                        f"{MCMC_PROPOSAL_CAPACITY} (more exits 5)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burnin", type=int, default=None,
                   help="proposals before recording (default 10 n^2)")
    add_io(p)
    p.set_defaults(func=cmd_mcmc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ErgraphonError, OSError) as exc:
        diag = f" diagnostics={exc.diagnostics}" if isinstance(exc, ConvergenceError) else ""
        print(f"error: {exc}{diag}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
