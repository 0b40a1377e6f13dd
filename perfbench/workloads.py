"""The benchmark's three workloads, each a fixed list of operations.

An operation has a timed ``run`` and an untimed ``check``.  ``check``
returns one verdict per operation label: the list of problems found, empty
when the output is correct.  Every input comes from the workload seed; the
program receives only those generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from kdcheck import cli, hashing, quantum, verify
from kdcheck.core import Alphabet, FiniteDistribution, StateDensity

import oracles

Verdicts = Dict[str, List[str]]

# Stated tolerances.  Float outputs with a closed form are held to the CLI's
# own default tolerance; seeded statistics to six standard errors, which a
# correct program exceeds with probability below 1e-4 per run.
CLOSED_FORM_TOL = 1e-6
SIGMAS = 6.0
AEP_TOL = 0.02

# Operations that fail at the commit defining the benchmark.  They stay in
# the workload and in ``failed``; ``correct`` is false only for a failure
# outside this list.
KNOWN_DEFECTS = {
    "semigroup-gauss-rho0.999":
        "apply returns 0.1566 where the closed form N(0, I+tSigma) gives 0.0919",
    "quantum-lhl-missing-ensemble":
        "FileNotFoundError escapes main (exit 1 with a traceback), expected 2",
    "markov-missing-matrix":
        "FileNotFoundError escapes main (exit 1 with a traceback), expected 2",
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, "PassLog"], Verdicts]


@dataclass
class PassLog:
    """Outputs, verdicts and oracle observations of one pass."""

    results: Dict[str, Any] = field(default_factory=dict)
    verdicts: Verdicts = field(default_factory=dict)
    observations: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def observe_max(self, key: str, value: float) -> None:
        self.observations[key] = max(self.observations.get(key, 0.0), value)

    def count(self, key: str) -> None:
        self.observations[key] = self.observations.get(key, 0) + 1


def problems(*pairs: Tuple[bool, str]) -> List[str]:
    """The messages whose condition is false."""
    return [msg for ok, msg in pairs if not ok]


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def verify_all_ops(seed: int, workdir: Path) -> List[Op]:
    # The acceptance checks pin their own seeds, so the workload seed does
    # not change their inputs.
    def run():
        # Every real ``kdcheck verify-all`` starts with an empty sweep cache.
        verify._classical_sweep.cache_clear()
        return verify.run_all()

    def check(report, log):
        out = {}
        names = [c.name for c in verify.CHECKS]
        by_name = {r["name"]: r for r in report["results"]}
        for name in names:
            res = by_name.get(name, {})
            out[name] = problems(
                (bool(res.get("passed")), "check did not pass: %r"
                 % res.get("details", {}).get("error", "verdict false")),
                (not res.get("skipped"), "check skipped"))
            if "elapsed_seconds" in res:
                log.observations["verify.%s.wall_s" % name] = res["elapsed_seconds"]
        out["verify-all-order"] = problems(
            ([r["name"] for r in report["results"]] == names,
             "results are not in registry order"),
            (not report["budget_exceeded"], "budget exceeded"))
        return out

    return [Op("verify-all", run, check)]


# ---------------------------------------------------------------------------
# hash-scale
# ---------------------------------------------------------------------------

def _universal_on_pairs(family, pairs) -> List[str]:
    """Exact universality ``Pr_g[g(x) = g(y)] <= q^-k`` on sampled pairs."""
    size, n_out = family.group_size, family.q**family.k
    bad = [(x, y) for x, y in pairs
           if Fraction(sum(t[x] == t[y] for t in family.maps), size)
           > Fraction(1, n_out)]
    return ["not universal on pair %r" % (p,) for p in bad[:3]]


def _build_check(q, m, k, pairs):
    def check(family, log):
        n_in, n_out = q**m, q**k
        return {"build-toeplitz-%d-%d-%d" % (q, m, k): problems(
            (family.group_size == q**(m + k - 1),
             "group size %d, expected %d" % (family.group_size, q**(m + k - 1))),
            (all(len(t) == n_in for t in family.maps), "table length"),
            (all(0 <= v < n_out for t in family.maps for v in t),
             "key out of range"),
        ) + _universal_on_pairs(family, pairs)}
    return check


_LHL_FLAGS = ("satisfied", "collision_satisfied", "chain_cauchy_schwarz",
              "chain_tail", "precondition_met", "exact_comparison")


def _lhl_check(name):
    def check(rep, log):
        return {name: problems(*[(rep[f] is True, "%s is not true" % f)
                                 for f in _LHL_FLAGS],
                               (isinstance(rep["distance"], Fraction),
                                "distance is not exact"))}
    return check


def hash_scale_ops(seed: int, workdir: Path) -> List[Op]:
    rng = np.random.default_rng(seed)
    big = (2, 8, 3)        # |G| = 1024 members, 262,144 table cells
    small = (3, 5, 2)      # |G| = 729 members
    n_big = big[0]**big[1]
    prior = oracles.rational_weights(rng, n_big)
    f_big = FiniteDistribution(Alphabet(big[0], big[1]), prior)
    ens3 = quantum.Ensemble(f_big, [StateDensity.from_diag(s) for s in
                                    oracles.diagonal_states(rng, n_big, 3)])
    ens1 = quantum.Ensemble(f_big, [StateDensity.from_diag((Fraction(1),))] * n_big)
    f_small = FiniteDistribution(Alphabet(small[0], small[1]),
                                 oracles.rational_weights(rng, small[0]**small[1]))

    def pairs(q, m):
        xs = rng.choice(q**m, size=(16, 2), replace=True)
        return [(int(a), int(b)) for a, b in xs if a != b]

    pairs_big, pairs_small = pairs(*big[:2]), pairs(*small[:2])
    state: Dict[str, Any] = {}

    def build(shape, key):
        def run():
            state[key] = hashing.build_family("toeplitz", *shape)
            return state[key]
        return run

    def trivial_check(dist_q, log):
        classical = log.results["lhl-report-2-8-3"]
        ref = classical["distance"] if isinstance(classical, dict) else None
        return {"trivial-side-register": problems(
            (dist_q == ref, "trivial side register gives %s, classical %s"
             % (dist_q, ref)))}

    def tripartite_check(rep, log):
        return {"tripartite-report-dim3": problems(
            *[(rep[f] is True, "%s is not true" % f)
              for f in ("satisfied", "precondition_met", "exact_comparison")])}

    return [
        Op("build-toeplitz-2-8-3", build(big, "big"), _build_check(*big, pairs_big)),
        Op("lhl-report-2-8-3", lambda: hashing.lhl_report(f_big, state["big"]),
           _lhl_check("lhl-report-2-8-3")),
        Op("tripartite-report-dim3",
           lambda: quantum.tripartite_report(ens3, state["big"]), tripartite_check),
        Op("trivial-side-register",
           lambda: quantum.tripartite_distance(
               quantum.hashed_joint_blocks(ens1, state["big"])), trivial_check),
        Op("build-toeplitz-3-5-2", build(small, "small"),
           _build_check(*small, pairs_small)),
        Op("lhl-report-3-5-2", lambda: hashing.lhl_report(f_small, state["small"]),
           _lhl_check("lhl-report-3-5-2")),
    ]


# ---------------------------------------------------------------------------
# cli-desk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliResult:
    code: Any
    output: str
    raised: Optional[str] = None


def run_cli(argv: Sequence[str], output: Path) -> CliResult:
    """``kdcheck.cli.main`` in process, with the exit code a shell would see.

    Standard error is swallowed so that the benchmark's own output stays
    parseable.
    """
    if output.exists():
        output.unlink()
    raised = None
    with redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv) + ["--output", str(output)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught exception exits the CLI with 1
            code, raised = 1, "%s: %s" % (type(exc).__name__, exc)
    text = output.read_text(encoding="utf-8") if output.exists() else ""
    return CliResult(code, text, raised)


def _cli_check(name, expect_code, judge=None):
    def check(res, log):
        found = []
        if res.code != expect_code:
            log.count("cli.exit_code_mismatch")
            found.append("exit code %r%s, expected %d" % (
                res.code, " (%s)" % res.raised if res.raised else "", expect_code))
        elif judge is not None:
            try:
                found += judge(res.output, log)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                found.append("unreadable output: %s: %s" % (type(exc).__name__, exc))
        return {name: found}
    return check


def _csv(text: str) -> Tuple[str, np.ndarray]:
    lines = text.splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0], np.array(rows)


def _judge_grid_csv(dim: int, eta_factor: int, brownian: bool):
    def judge(text, log):
        header, rows = _csv(text)
        times = np.arange(eta_factor + 1) / eta_factor
        found = problems(
            (header == "time," + ",".join("w%d" % (i + 1) for i in range(dim)),
             "header %r" % header),
            (rows.shape == (eta_factor + 1, dim + 1), "shape %r" % (rows.shape,)))
        if found:
            return found
        found += problems(
            (bool(np.array_equal(rows[:, 0], times)), "grid times are not j/f(eta)"),
            (bool(np.all(rows[0, 1:] == 0.0)), "path does not start at 0"),
            (bool(np.all(np.isfinite(rows))), "non-finite value"))
        if brownian:
            # Quadratic variation of a Brownian path on [0, 1] is 1.
            qv = (np.diff(rows[:, 1:], axis=0) ** 2).sum(axis=0)
            tol = SIGMAS * math.sqrt(2.0 / eta_factor)
            found += problems((bool(np.all(np.abs(qv - 1.0) <= tol)),
                               "quadratic variation %r outside 1 +- %.3g"
                               % (qv.tolist(), tol)))
        return found
    return judge


def _judge_tree_stats(reps: int, n_inc: int):
    def judge(text, log):
        rep = json.loads(text)
        dt = 1.0 / n_inc
        var_tol = SIGMAS * math.sqrt(2.0 / (reps - 1))
        return problems(
            ((rep["eta"], rep["reps"], rep["n_increments"], rep["mode"])
             == (8, reps, n_inc, "standard"), "sizes or mode differ"),
            (rep["expected_var"] == dt, "expected_var %r" % rep["expected_var"]),
            (rep["max_abs_mean"] <= SIGMAS * math.sqrt(dt / reps),
             "increment mean %r" % rep["max_abs_mean"]),
            (dt * (1 - var_tol) <= rep["var_min"] and rep["var_max"] <= dt * (1 + var_tol),
             "increment variance [%r, %r]" % (rep["var_min"], rep["var_max"])),
            (abs(rep["variance_at_one"][0] - 1.0) <= var_tol,
             "variance at one %r" % rep["variance_at_one"]),
            (rep["max_abs_corr"] <= SIGMAS / math.sqrt(reps),
             "increment correlation %r" % rep["max_abs_corr"]))
    return judge


def _judge_semigroup(points: np.ndarray, expected: Sequence[float],
                     relative: bool):
    def judge(text, log):
        header, rows = _csv(text)
        found = problems((header == "x1,x2,value", "header %r" % header),
                         (rows.shape == (len(points), 3), "shape %r" % (rows.shape,)))
        if found:
            return found
        err = np.abs(rows[:, 2] - expected)
        if relative:
            err = err / np.abs(expected)
            log.observe_max("semigroup.closed_form_rel_err", float(err.max()))
        return problems(
            (bool(np.array_equal(rows[:, :2], points)), "query points not echoed"),
            (float(err.max()) <= CLOSED_FORM_TOL,
             "%s error %.3g vs closed form exceeds %g"
             % ("relative" if relative else "absolute", err.max(), CLOSED_FORM_TOL)))
    return judge


def _judge_markov(rows, terms: int):
    def judge(text, log):
        rep = json.loads(text)
        series = [Fraction(v) for v in rep["theta_series"]]
        return problems(
            (series == oracles.first_return_probabilities(rows, 0, terms),
             "first-return series differs from the taboo recursion"),
            (rep["theta_at_1"] == "1/1", "Theta(1) = %r" % rep["theta_at_1"]),
            (rep["irreducible"] is True and rep["period"] == 1,
             "positive chain not irreducible and aperiodic"),
            (rep["radius"] == "inf" or rep["radius"] > 1.0,
             "pole radius %r" % rep["radius"]))
    return judge


def _judge_hashed(expect_distance: Fraction, expect_collision, flags):
    def judge(text, log):
        rep = json.loads(text)
        found = problems(*[(rep[f] is True, "%s is not true" % f) for f in flags],
                         (Fraction(rep["distance"]) == expect_distance,
                          "distance %s, reference %s" % (rep["distance"], expect_distance)))
        if expect_collision is not None:
            found += problems((Fraction(rep["collision_probability"]) == expect_collision,
                               "collision probability differs from reference"))
        return found
    return judge


def _judge_entropy(weights, samples: int):
    def judge(text, log):
        rep = json.loads(text)
        h = oracles.shannon(weights, len(weights))
        h_nats = oracles.shannon(weights, math.e)
        return problems(
            (rep["method"] == "closed-form:shannon", "method %r" % rep["method"]),
            (abs(rep["value"] - h) <= 1e-12, "entropy %r, reference %r" % (rep["value"], h)),
            (rep["aep_samples"] == samples, "sample count"),
            (abs(rep["aep_estimate"] - h_nats) <= AEP_TOL,
             "AEP estimate %r vs %r nats" % (rep["aep_estimate"], h_nats)))
    return judge


def _judge_phi(expected: str):
    def judge(text, log):
        rep = json.loads(text)
        return problems((rep["phi"] == expected, "phi %r, expected %s" % (rep["phi"], expected)),
                        (rep["matches_closed_form"] is True, "closed form flag false"))
    return judge


def _fmt_points(points: np.ndarray) -> str:
    return ";".join(",".join("%.17g" % v for v in row) for row in points)


def cli_desk_ops(seed: int, workdir: Path) -> List[Op]:
    rng = np.random.default_rng(seed)
    s_stats, s_csv, s_lit, s_lhl, s_qlhl, s_ent = (
        int(v) for v in rng.integers(0, 2**31, size=6))
    f12 = math.factorial(6) * 2**6                  # grid steps at eta = 12
    n_inc8 = math.factorial(4) * 2**4               # increments at eta = 8
    wave_pts = rng.standard_normal((200, 2))
    wave_ref = [oracles.wave_average(p, oracles.sigma_2d((1, 1), 0.4)) for p in wave_pts]
    origin = np.zeros((1, 2))
    chain = []
    for _ in range(6):
        raw = [int(v) for v in rng.integers(1, 10, size=6)]
        chain.append([Fraction(v, sum(raw)) for v in raw])
    rows_arg = ";".join(",".join("%d/%d" % (v.numerator, v.denominator) for v in row)
                        for row in chain)
    lhl_w = oracles.cli_random_weights(s_lhl, 2**6)
    lhl_d, lhl_c = oracles.hashed_distance(lhl_w, [(Fraction(1),)] * 2**6,
                                           "toeplitz", 2, 6, 2)
    prior, states = oracles.cli_random_ensemble(s_qlhl, 2**4, 3)
    q_d, _ = oracles.hashed_distance(prior, states, "linear", 2, 4, 2)
    missing = workdir / "missing.json"

    def sg_argv(function, rho, points):
        return ["semigroup", "--function", function, "--variances", "1,1",
                "--correlations", repr(rho), "--points=" + _fmt_points(points)]

    calls = [
        ("treesim-stats", ["treesim", "--eta", "12", "--reps", "256", "--keep-eta", "8",
                           "--stats", "--seed", str(s_stats)], 0,
         _judge_tree_stats(256, n_inc8)),
        ("treesim-csv-2d", ["treesim", "--dim", "2", "--eta", "12", "--rep", "0",
                            "--seed", str(s_csv)], 0, _judge_grid_csv(2, f12, True)),
        ("treesim-paper-literal", ["treesim", "--eta", "12", "--reps", "64", "--mode",
                                   "paper-literal", "--seed", str(s_lit)], 0,
         _judge_grid_csv(1, f12, False)),
        ("semigroup-wave", sg_argv("wave", 0.4, wave_pts), 0,
         _judge_semigroup(wave_pts, wave_ref, relative=False)),
        ("semigroup-gauss-rho0.4", sg_argv("gauss", 0.4, origin), 0,
         _judge_semigroup(origin, [oracles.gauss_average(
             (0, 0), oracles.sigma_2d((1, 1), 0.4))], relative=True)),
        ("semigroup-gauss-rho0.999", sg_argv("gauss", 0.999, origin), 0,
         _judge_semigroup(origin, [oracles.gauss_average(
             (0, 0), oracles.sigma_2d((1, 1), 0.999))], relative=True)),
        ("markov-rows", ["markov", "--rows", rows_arg, "--terms", "12"], 0,
         _judge_markov(chain, 12)),
        ("lhl-toeplitz", ["lhl", "--family", "toeplitz", "--q", "2", "--m", "6", "--k", "2",
                          "--assert-bounds", "--seed", str(s_lhl)], 0,
         _judge_hashed(lhl_d, lhl_c, _LHL_FLAGS)),
        ("quantum-lhl", ["quantum-lhl", "--q", "2", "--m", "4", "--k", "2", "--dim-q", "3",
                         "--assert-bounds", "--seed", str(s_qlhl)], 0,
         _judge_hashed(q_d, None, ("satisfied", "precondition_met", "exact_comparison"))),
        ("entropy-aep", ["entropy", "--random", "8", "--aep-samples", "100000",
                         "--seed", str(s_ent)], 0,
         _judge_entropy(oracles.cli_random_weights(s_ent, 8), 100000)),
        ("phi", ["phi", "--n", "6", "--assert-bounds"], 0, _judge_phi("37/49")),
        ("quantum-lhl-missing-ensemble", ["quantum-lhl", "--q", "2", "--m", "2", "--k", "1",
                                          "--ensemble", str(missing)], 2, None),
        ("markov-missing-matrix", ["markov", "--matrix", str(missing)], 2, None),
    ]
    ops = []
    for name, argv, code, judge in calls:
        out = workdir / ("%s.out" % name)
        ops.append(Op(name, lambda argv=argv, out=out: run_cli(argv, out),
                      _cli_check(name, code, judge)))
    return ops


def run_pass(ops: Sequence[Op], untimed=contextlib.nullcontext) -> PassLog:
    """Run every operation once, timing ``run`` and judging outside the clock.

    ``untimed`` is entered around each check, so a tracer can ignore the
    program calls an oracle makes.
    """
    log = PassLog()
    for op in ops:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = op.run()
        except Exception as exc:  # a crashed operation is a failed operation
            out = exc
        log.wall_s += time.perf_counter() - wall0
        log.cpu_s += time.process_time() - cpu0
        log.results[op.name] = out
        with untimed():
            if isinstance(out, Exception):
                log.verdicts[op.name] = ["raised %s: %s" % (type(out).__name__, out)]
            else:
                log.verdicts.update(op.check(out, log))
    return log


WORKLOADS = {
    "verify-all": verify_all_ops,
    "hash-scale": hash_scale_ops,
    "cli-desk": cli_desk_ops,
}
