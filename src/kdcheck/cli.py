"""Command line interface.

Subcommands emit JSON reports (stable key order, fractions as "num/den"
strings) or CSV tables.  Identical arguments and seeds produce
byte-identical output.

Exit codes: 0 success, 2 invalid input, a file that cannot be read or
written, or two numerical routes that disagree, 3 asserted bound violated
or a verification check failed, 4 verification budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import warnings
from contextlib import AbstractContextManager, redirect_stdout, suppress
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import (MAX_SYMBOLS, Alphabet, FiniteDistribution, format_rational,
                   parse_rational, rows_from_json)
from . import entropy as ent
from . import hashing
from . import markov
from . import quantum
from . import semigroup as sg
from . import treeproc
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BOUND = 3
EXIT_BUDGET = 4
CSV_BLOCK_ROWS = 2**16


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def jsonable(obj):
    """Recursively convert report values into JSON-safe primitives."""
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    return obj


def emit(report: dict, anchor: str, check: Optional[str] = None) -> None:
    payload = {"schema": 1, "paper_anchor": anchor}
    if check is not None:
        payload["check"] = check
    payload.update(report)
    print(json.dumps(jsonable(payload), indent=2, sort_keys=True))


def _print_csv(header: str, columns: Sequence[np.ndarray],
               time_factor: Optional[int] = None) -> None:
    """Print a header and the float columns side by side, each value as ``%.17g``.

    Rows are stacked and written in blocks of ``CSV_BLOCK_ROWS``, each
    formatted by one ``%`` over the flattened block, so no whole-table copy
    or text of a level-16 path is held at once; ``time_factor`` prepends
    the grid time ``j / time_factor`` of each row ``j``, block by block.
    """
    row = ",".join(["%.17g"] * (len(columns) + (time_factor is not None))) + "\n"
    out = sys.stdout
    out.write(header + "\n")
    for b in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        cells = [c[b:b + CSV_BLOCK_ROWS] for c in columns]
        if time_factor is not None:
            cells.insert(0, np.arange(b, b + len(cells[0])) / time_factor)
        block = np.column_stack(cells)
        out.write((row * len(block)) % tuple(block.ravel().tolist()))


def _parse_numbers(text: str, floats: bool = True):
    """A comma list, each token read by ``core.parse_rational``."""
    return tuple(parse_rational(t, floats) for t in text.split(","))


def _alphabet(size: int, power: int, most: int, what: str) -> Alphabet:
    """``Alphabet(size, power)``, refused from bit lengths, before ``size**power``
    is formed, when a power above 1 makes more than ``most`` symbols."""
    alphabet = Alphabet(size, power)
    if power > 1 and power * (size.bit_length() - 1) >= most.bit_length():
        raise ValueError("--alphabet-power %d: an alphabet of %d**%d symbols exceeds %s"
                         % (power, size, power, what))
    return alphabet


def _distribution(args) -> FiniteDistribution:
    if args.weights is not None:
        weights = _parse_numbers(args.weights)
        size = args.alphabet_size or len(weights)
        alphabet = _alphabet(size, args.alphabet_power, len(weights),
                             "the %d weights given" % len(weights))
        return FiniteDistribution(alphabet, weights)
    if args.random is None:
        raise ValueError("provide --weights or --random")
    alphabet = _alphabet(args.random, args.alphabet_power, MAX_SYMBOLS,
                         "MAX_SYMBOLS = %d" % MAX_SYMBOLS)
    rng = np.random.default_rng(args.seed)
    return FiniteDistribution.random_rational(alphabet, rng)


def _float_list(text: str):
    return tuple(float(t) for t in text.split(","))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_entropy(args) -> int:
    if args.gaussian is not None:
        mean, var = _float_list(args.gaussian)
        source = ent.ContinuousDensity.gaussian(mean, var)
        rep = ent.differential_entropy(source)
        rep["kind"] = "differential"
        rep["log_base"] = "e"
        title = "differential entropy by quadrature"
    else:
        source = _distribution(args)
        if args.other is not None:
            g = FiniteDistribution(source.alphabet, _parse_numbers(args.other))
            rep = ent.divergence_report(source, g, args.order, base=args.base)
            emit(rep, "divergence of two distributions at one order")
            return EXIT_OK
        rep = ent.entropy_report(source, args.order, base=args.base)
        title = "entropy of one distribution at one order"
    if args.aep_samples:
        rep["aep_estimate"] = ent.aep_estimate(source, args.aep_samples,
                                               seed=args.seed)
        rep["aep_samples"] = args.aep_samples
    emit(rep, title)
    return EXIT_OK


def cmd_lhl(args) -> int:
    family = hashing.build_family(args.family, args.q, args.m, args.k)
    if args.uniform:
        f = FiniteDistribution.uniform(Alphabet(args.q, args.m))
    elif args.weights is not None:
        f = FiniteDistribution(Alphabet(args.q, args.m),
                               _parse_numbers(args.weights, floats=False))
    else:
        rng = np.random.default_rng(args.seed)
        f = FiniteDistribution.random_rational(Alphabet(args.q, args.m), rng)
    h_plus = None if args.h_plus is None else parse_rational(args.h_plus, floats=True)
    rep = dict(hashing.lhl_report(f, family, h_plus=h_plus))
    rep["value"] = rep["distance"]
    emit(rep, "distance of a hashed key from uniform-independent",
         check="lhl-classical")
    if args.assert_bounds and not (rep["satisfied"]
                                   and rep["collision_satisfied"]):
        return EXIT_BOUND
    return EXIT_OK


def cmd_quantum_lhl(args) -> int:
    family = hashing.build_family(args.family, args.q, args.m, args.k)
    if args.ensemble is not None:
        with open(args.ensemble, "r", encoding="utf-8") as fh:
            ens = quantum.ensemble_from_json(json.load(fh))
    else:
        quantum.check_block_count(family, args.dim_q)
        rng = np.random.default_rng(args.seed)
        ens = verify_mod.random_diagonal_ensemble(rng, args.q ** args.m,
                                                  args.dim_q)
    rep = dict(quantum.tripartite_report(ens, family))
    rep["value"] = rep["distance"]
    emit(rep, "hashed key distance with a commuting side register",
         check="lhl-side-register")
    if args.assert_bounds and not rep["satisfied"]:
        return EXIT_BOUND
    return EXIT_OK


def cmd_phi(args) -> int:
    rep = dict(quantum.phi_report(args.n))
    rep["value"] = rep["phi"]
    rep["bound"] = rep["expected_phi"]
    emit(rep, "measurement success for a basis-plus-mixed ensemble",
         check="pgm-success-table")
    if args.assert_bounds and not rep["matches_closed_form"]:
        return EXIT_BOUND
    return EXIT_OK


def cmd_markov(args) -> int:
    if args.matrix is not None:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            rows = rows_from_json(json.load(fh))
    elif args.rows is not None:
        rows = [_parse_numbers(row, floats=False) for row in args.rows.split(";")]
    else:
        raise ValueError("provide --matrix FILE or --rows")
    chain = markov.TransitionMatrix.build(rows)
    rep = markov.markov_report(chain, args.state, series_terms=args.terms)
    emit(rep, "first-return generating function of one state")
    return EXIT_OK


def _fn_gauss(x):
    return np.exp(-0.5 * (x ** 2).sum(axis=1)) / (2.0 * math.pi) ** (x.shape[1] / 2.0)


def _fn_wave(x):
    # Where the Gaussian factor is 0 so is the function, even where x**2 or
    # 2x overflows and cos(2x) is not finite.
    with np.errstate(over="ignore"):
        gauss = np.exp(-0.25 * (x ** 2).sum(axis=1))
    out = np.zeros_like(gauss)
    live = gauss != 0
    out[live] = gauss[live] * np.cos(2.0 * x[live, 0])
    return out


def _fn_bump(x):
    return 1.0 / (1.0 + (x ** 2).sum(axis=1))


_FUNCTIONS = {"gauss": _fn_gauss, "wave": _fn_wave, "bump": _fn_bump}


def _cov_spec(args) -> sg.CovSpec:
    variances = _float_list(args.variances)
    corrs = _float_list(args.correlations) if args.correlations else ()
    return sg.CovSpec(len(variances), variances, corrs)


def _parse_points(text: str, dim: int):
    pts = [[float(t) for t in row.split(",")] for row in text.split(";")]
    for row in pts:
        if len(row) != dim:
            raise ValueError("point has %d coordinates, expected %d"
                             % (len(row), dim))
    return pts


def cmd_semigroup(args) -> int:
    spec = _cov_spec(args)
    f = _FUNCTIONS[args.function]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.compose is not None:
            s, t = _float_list(args.compose)
            pts = _parse_points(args.points, spec.dim)
            rep = dict(sg.check_semigroup(f, s, t, spec, pts, method=args.method,
                                          seed=args.seed, nodes=args.nodes,
                                          samples=args.samples, tol=args.tol))
            failed = not rep.pop("passed")
            anchor = "composition of two Gaussian averaging steps"
        elif args.contract:
            window = (tuple(-abs(w) for w in _float_list(args.window)),
                      tuple(abs(w) for w in _float_list(args.window)))
            rep = sg.check_contraction(f, args.time, spec, window, nodes=args.nodes)
            failed = not (rep["sup_contracts"] and rep["l1_contracts"])
            anchor = "sup and L1 contraction of one averaging step"
        else:
            pts = _parse_points(args.points, spec.dim)
            values = sg.apply(f, args.time, spec, pts, method=args.method,
                              seed=args.seed, nodes=args.nodes,
                              samples=args.samples)
            rep = None
    notes = [str(w.message) for w in caught]
    for note in notes:
        print("warning: %s" % note, file=sys.stderr)
    if rep is not None:
        rep["warnings"] = notes
        emit(rep, anchor, check="gaussian-semigroup")
        return EXIT_BOUND if args.assert_bounds and failed else EXIT_OK
    header = ",".join("x%d" % (i + 1) for i in range(spec.dim)) + ",value"
    _print_csv(header, [*np.array(pts, dtype=float).T, values])
    return EXIT_OK


def cmd_treesim(args) -> int:
    # Checked before the level; a bad --reps is named by treeproc.
    if not args.stats and args.reps >= 1 and not 0 <= args.rep < args.reps:
        raise ValueError("rep index out of range")
    eta = args.eta
    if args.keep_eta is not None:
        # Levels nest, so the kept slice of a level-eta run is the level-keep
        # run itself: validate both levels, then simulate the kept one only.
        treeproc.grid_factor(eta)
        treeproc._check_args(args.dim, args.reps, args.mode)
        treeproc.grid_factor(args.keep_eta)
        if args.keep_eta > eta:
            raise ValueError("keep_eta cannot exceed the simulated level")
        eta = args.keep_eta
    if args.stats:  # simulate_ensemble's and increment_stats' refusals, before simulating
        treeproc.grid_factor(eta)
        treeproc._check_args(args.dim, args.reps, args.mode)
        treeproc._check_cells("returned level", args.reps, eta, args.dim)
        treeproc._check_stats(args.mode, args.reps)
        ens = treeproc.simulate_ensemble(args.dim, eta, args.reps,
                                         seed=args.seed, mode=args.mode)
        rep = treeproc.increment_stats(ens)
        w1 = ens.values[:, -1, :]
        rep["variance_at_one"] = [float(v) for v in w1.var(axis=0, ddof=1)]
        rep["mode"] = ens.mode
        emit(rep, "increment statistics of bridge-refined paths")
        return EXIT_OK
    ens = treeproc.simulate(args.dim, eta, seed=args.seed, mode=args.mode,
                            reps=args.reps, rep=args.rep)
    header = "time," + ",".join("w%d" % (i + 1) for i in range(ens.dim))
    _print_csv(header, ens.path().T, time_factor=ens.factor)
    return EXIT_OK


def cmd_verify_all(args) -> int:
    report = verify_mod.run_all(filter_substr=args.filter, budget=args.budget)
    if args.json:
        if not args.timings:
            report = {**report, "results": [
                {k: v for k, v in res.items() if k != "elapsed_seconds"}
                for res in report["results"]]}
            del report["total_seconds"]
        print(json.dumps(jsonable(report), indent=2, sort_keys=True))
    else:
        for res in report["results"]:
            if res.get("skipped"):
                status, note = "SKIP", " " + res["reason"]
            else:
                status = "PASS" if res["passed"] else "FAIL"
                note = " %7.2fs" % res["elapsed_seconds"] if args.timings else ""
            print("%-4s %-26s%s  %s" % (status, res["name"], note,
                                        res["paper_anchor"]))
        if args.timings:
            print("total %.2fs of %.0fs budget" % (report["total_seconds"],
                                                   report["budget_seconds"]))
    if report["budget_exceeded"]:
        return EXIT_BUDGET
    if not report["all_passed"]:
        return EXIT_BOUND
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdcheck",
        description="key-distillation and diffusion checks")
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--output", default=None,
                        help="write the report to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[parent], **kw))

    p = sub.add_parser("entropy", help="entropy and divergence reports")
    p.add_argument("--weights", help="comma list of rational weights")
    p.add_argument("--other", help="second distribution for divergence")
    p.add_argument("--random", type=int, help="random distribution size")
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--alphabet-power", type=int, default=1)
    p.add_argument("--order", type=float, default=1.0)
    p.add_argument("--base", type=float, default=None)
    p.add_argument("--gaussian", help="mean,var for differential entropy")
    p.add_argument("--aep-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_entropy)

    p = sub.add_parser("lhl", help="hashed-key uniformity report")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", default="linear",
                   choices=["linear", "toeplitz"])
    p.add_argument("--weights", help="comma list, length q^m")
    p.add_argument("--uniform", action="store_true",
                   help="use the uniform input distribution")
    p.add_argument("--h-plus", default=None,
                   help="manual lower bound on the entropy exponent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assert-bounds", action="store_true")
    p.set_defaults(handler=cmd_lhl)

    p = sub.add_parser("quantum-lhl",
                       help="hashed-key report with a side register")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", default="linear",
                   choices=["linear", "toeplitz"])
    p.add_argument("--ensemble", help="JSON file with prior and states")
    p.add_argument("--dim-q", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assert-bounds", action="store_true")
    p.set_defaults(handler=cmd_quantum_lhl)

    p = sub.add_parser("phi", help="basis-plus-mixed measurement table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--assert-bounds", action="store_true")
    p.set_defaults(handler=cmd_phi)

    p = sub.add_parser("markov", help="first-return generating function")
    p.add_argument("--matrix", default=None,
                   help="JSON file with {\"rows\": [[\"num/den\", ...], ...]}")
    p.add_argument("--rows", default=None,
                   help="semicolon-separated rows of comma rationals")
    p.add_argument("--state", type=int, default=0)
    p.add_argument("--terms", type=int, default=8)
    p.set_defaults(handler=cmd_markov)

    p = sub.add_parser("semigroup", help="Gaussian averaging of a function")
    p.add_argument("--variances", required=True)
    p.add_argument("--correlations", default="")
    p.add_argument("--function", default="gauss",
                   choices=sorted(_FUNCTIONS))
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--points", default="0")
    p.add_argument("--method", default="quadrature",
                   choices=["quadrature", "mc"])
    p.add_argument("--nodes", type=int, default=None,
                   help="Gauss-Hermite nodes per dimension (2 to %d); fixes "
                        "the rule, whose node-halving error estimate is still "
                        "reported. By default the rule starts at %d and doubles "
                        "until the estimate is below %g"
                        % (sg.MAX_HERMITE_NODES, sg.HERMITE_NODES, sg.ESTIMATE_TOL))
    p.add_argument("--samples", type=int, default=sg.DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compose", default=None,
                   help="s,t: check the two-step composition")
    p.add_argument("--contract", action="store_true",
                   help="check sup and L1 contraction on a window")
    p.add_argument("--window", default="6",
                   help="half-width per coordinate for --contract")
    p.add_argument("--tol", type=float, default=1e-6, help="bound on the quadrature "
                   "--compose deviation (Monte Carlo: %g standard errors)" % sg.MC_SE_BOUND)
    p.add_argument("--assert-bounds", action="store_true")
    p.set_defaults(handler=cmd_semigroup)

    p = sub.add_parser("treesim", help="bridge-refined path simulation")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--eta", type=int, default=8)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="standard",
                   choices=["standard", "paper-literal"])
    p.add_argument("--keep-eta", type=int, default=None)
    p.add_argument("--rep", type=int, default=0,
                   help="which repetition to print as CSV")
    p.add_argument("--stats", action="store_true",
                   help="print increment statistics instead of a path")
    p.set_defaults(handler=cmd_treesim)

    p = sub.add_parser("verify-all", help="run the acceptance checks")
    p.add_argument("--filter", default=None)
    p.add_argument("--budget", type=float, default=300.0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true",
                   help="report the seconds each check took and their total; "
                        "without it the output is deterministic")
    p.set_defaults(handler=cmd_verify_all)

    return parser


class _ReportFile(AbstractContextManager):
    """``--output`` sink that opens its path at the first write.

    Handlers read their inputs before they print, so the path may name an
    input, and a run that fails before it reports leaves the path as it
    was.  A later failure removes the partial report if the path itself is
    a regular file (not a device, FIFO or symlink).
    """

    def __init__(self, path: str):
        self.path, self.fh = path, None

    def write(self, text: str) -> int:
        if self.fh is None:
            self.fh = open(self.path, "w", encoding="utf-8")
        return self.fh.write(text)

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is None:
            self.write("")  # a report with no text still leaves its file
            self.fh.close()
        elif self.fh is not None:
            with suppress(OSError):  # never hide the error that ended the run
                self.fh.close()
                if stat.S_ISREG(os.lstat(self.path).st_mode):
                    os.remove(self.path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.output:
            return args.handler(args)
        with _ReportFile(args.output) as sink, redirect_stdout(sink):
            return args.handler(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
