"""Input refusals, one table per module: each entry is a call and the whole
message of the ``ValueError`` (or the named error) it must raise."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

from kdcheck import cli, entropy, hashing, markov, quadrature, quantum, semigroup, treeproc
from kdcheck.cli import main
from kdcheck.core import (
    Alphabet,
    FiniteDistribution,
    StateDensity,
    distribution_from_json,
    parse_rational,
    state_from_json,
)

F2 = FiniteDistribution(Alphabet(2), (Fraction(1, 2), Fraction(1, 2)))
F4 = FiniteDistribution.uniform(Alphabet(2, 2))
SWAP = markov.TransitionMatrix.build([[0, 1], [1, 0]])
SPEC1 = semigroup.CovSpec(1, (1.0,))
SPEC2 = semigroup.CovSpec(2, (1.0, 1.0), (0.3,))


def gauss(x):
    return np.exp(-0.5 * np.asarray(x) ** 2)


def check_table(call, message, error=ValueError):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()


def ids(table):
    """The first 40 characters of each message, unless the case names itself."""
    return [getattr(case, "id", None) or case[1][:40] for case in table]


CORE = [
    (lambda: parse_rational("1/0"), "cannot parse '1/0' as a rational"),
    (lambda: parse_rational("a/b"), "cannot parse 'a/b' as a rational"),
    (lambda: parse_rational(0.5),
     "exact rational expected; got float 0.5 (write it as 'num/den')"),
    (lambda: parse_rational(None), "cannot parse None as a rational"),
    (lambda: FiniteDistribution(Alphabet(2), (Fraction(1),)),
     "expected 2 weights for this alphabet, got 1"),
    (lambda: FiniteDistribution(Alphabet(2), (Fraction(3, 2), Fraction(-1, 2))),
     "weights must be nonnegative"),
    (lambda: FiniteDistribution(Alphabet(2), (1.5, -0.5)), "weights must be nonnegative"),
    # Cases whose message changed keep the names they had: the rule they state holds.
    pytest.param(lambda: FiniteDistribution(Alphabet(2), (float("inf"), 1.0)),
                 "weight [0] is inf, not finite", id="weights must be finite0"),
    pytest.param(lambda: FiniteDistribution(Alphabet(2), (-float("inf"), 1.0)),
                 "weight [0] is -inf, not finite", id="weights must be finite1"),
    pytest.param(lambda: distribution_from_json(
        {"alphabet": {"size": 2}, "weights": [float("nan"), 1.0]}),
        "top level: weight [0] is nan, not finite", id="weights must be finite2"),
    (lambda: StateDensity.from_diag(()), "state must have dimension >= 1"),
    (lambda: StateDensity.from_diag((Fraction(3, 2), Fraction(-1, 2))),
     "diagonal entries must be nonnegative"),
    (lambda: StateDensity.from_diag((Fraction(3, 4), Fraction(3, 4))), "trace 3/2 exceeds 1"),
    (lambda: StateDensity.from_diag((1.5, -0.5)),
     "diagonal entry below -1e-10: not positive semidefinite"),
    (lambda: StateDensity.from_diag((0.75, 0.75)), "trace 1.5 exceeds 1 beyond tolerance"),
    (lambda: StateDensity.from_diag((float("nan"), 0.5)), "diagonal entry [0] is nan, not finite"),
    (lambda: StateDensity.from_diag((Fraction(1, 2), -float("inf"))),
     "diagonal entry [1] is -inf, not finite"),
    (lambda: StateDensity.from_matrix(np.zeros((2, 3))), "state matrix must be square"),
    pytest.param(lambda: StateDensity.from_matrix(np.zeros((0, 0))),
                 "state must have dimension >= 1", id="empty state matrix"),
    (lambda: StateDensity.from_matrix([[0.5, float("nan")], [float("nan"), 0.5]]),
     "state matrix entry [0, 1] is (nan+0j), not finite"),
    (lambda: StateDensity.from_matrix([[0.5, 0.0], [0.0, float("inf")]]),
     "state matrix entry [1, 1] is (inf+0j), not finite"),
    (lambda: StateDensity.from_matrix([[0.5, 0.5], [0.0, 0.5]]),
     "state matrix is not Hermitian within 1e-10"),
    (lambda: StateDensity.from_matrix([[1.0, 0.0], [0.0, -1.0]]),
     "state matrix has eigenvalue -1 below -1e-10: not positive semidefinite"),
    (lambda: StateDensity.from_matrix([[1.0, 0.0], [0.0, 1.0]]),
     "trace 2 exceeds 1 beyond tolerance"),
    pytest.param(lambda: distribution_from_json({"weights": ["1"]}),
                 "top level: expected an object with key 'alphabet', got {'weights': ['1']}",
                 id="distribution JSON needs 'alphabet' and '"),
    pytest.param(lambda: state_from_json({"dim": 2}),
                 "top level: expected an object with 'diag' or 'matrix', got {'dim': 2}",
                 id="state JSON needs either 'diag' or 'matri"),
]


@pytest.mark.parametrize("call,message", CORE, ids=ids(CORE))
def test_core_refusals(call, message):
    check_table(call, message)


ENTROPY = [
    (lambda: entropy.renyi_entropy(F2, 2.0, base=1), "logarithm base must exceed 1"),
    (lambda: entropy.renyi_divergence(F2, F4, 2.0), "divergence needs a common alphabet"),
    (lambda: entropy.ContinuousDensity(gauss, 1.0, 1.0), "window must have positive volume"),
    (lambda: entropy.ContinuousDensity(lambda x: x - 0.5, 0.0, 2.0),
     "density is negative on the window"),
    (lambda: entropy.ContinuousDensity.gaussian(0.0, 0.0), "variance must be positive"),
    (lambda: entropy.aep_estimate(F2, 0), "sample size must be positive"),
    (lambda: entropy.aep_estimate([0.5, 0.5], 10),
     "expected a FiniteDistribution or ContinuousDensity"),
]


@pytest.mark.parametrize("call,message", ENTROPY, ids=ids(ENTROPY))
def test_entropy_refusals(call, message):
    check_table(call, message)


HASHING = [
    (lambda: hashing.HashFamily(2, 2, 1, "linear", np.zeros((0, 4), dtype=np.uint8)),
     "family must be nonempty"),
    (lambda: hashing.build_family("linear", 2, 5, 5),
     "all-linear family of size 33554432 exceeds cap"),
    (lambda: hashing.JointKeyState(2, 1, np.array([[-1], [2]], dtype=object), 1),
     "joint weights must be nonnegative"),
    (lambda: hashing.JointKeyState(2, 1, np.array([[1], [1]], dtype=object), 3),
     "joint weights must sum to exactly 1"),
    (lambda: hashing.JointKeyState(2, 1, np.array([[1, 0], [1, 0]], dtype=object), 2),
     "member marginal must be exactly uniform"),
    (lambda: hashing.joint_state(F2, hashing.build_family("linear", 2, 2, 1)),
     "distribution does not match the family input alphabet"),
    # Counts are integers only: Python floats, np.float64 and Fractions are refused.
    (lambda: hashing.JointKeyState(2, 1, ((0.5,), (0.5,)), 1),
     "count [0, 0] is float64 0.5, not an integer"),
    (lambda: hashing.JointKeyState(2, 1, np.array([[1], [np.float64(0.0)]], dtype=object), 1),
     "count [1, 0] is float64 0.0, not an integer"),
    (lambda: hashing.JointKeyState(2, 1, np.array([[2**70], [0.5]], dtype=object), 2**70),
     "count [1, 0] is float 0.5, not an integer"),
    (lambda: hashing.JointKeyState(2, 1, ((Fraction(1, 2),), (Fraction(1, 2),)), 1),
     "count [0, 0] is Fraction 1/2, not an integer"),
]


@pytest.mark.parametrize("call,message", HASHING, ids=ids(HASHING))
def test_hashing_refusals(call, message):
    check_table(call, message)


def rational(num, den):
    return markov.RationalFunction(markov.Poly(num), markov.Poly(den))


MARKOV = [
    (lambda: rational([1], []), "rational function with zero denominator", ZeroDivisionError),
    (lambda: rational([1], [0, 1]).series(3), "series expansion needs den(0) != 0", ValueError),
    (lambda: rational([1], [1, -1]).eval(1), "pole at r=1", ValueError),
    (lambda: markov.TransitionMatrix(()), "transition matrix must be nonempty", ValueError),
    (lambda: markov.TransitionMatrix.build([[1, 0]]), "transition matrix must be square",
     ValueError),
    (lambda: markov.n_step(SWAP, -1), "step count must be nonnegative", ValueError),
    (lambda: markov.first_return(SWAP, 2, 3), "state index out of range", ValueError),
    (lambda: markov.first_return(SWAP, 0, 0), "n_max must be >= 1", ValueError),
]


@pytest.mark.parametrize("call,message,error", MARKOV, ids=[m[:40] for _, m, _ in MARKOV])
def test_markov_refusals(call, message, error):
    check_table(call, message, error)


QUADRATURE = [
    (lambda: quadrature.gauss_legendre_1d(1.0, 1.0, 5), "empty interval [1, 1]"),
    (lambda: quadrature.gauss_legendre_1d(0.0, 1.0, 0), "node count must be positive"),
    (lambda: quadrature.tensor_rule((0.0, 0.0), (1.0,), 5),
     "lows and highs must have equal length"),
    (lambda: quadrature.tensor_rule((0.0,) * 3, (1.0,) * 3, 200),
     "quadrature grid 216^3 exceeds the node cap; lower the node count"),
]


@pytest.mark.parametrize("call,message", QUADRATURE, ids=ids(QUADRATURE))
def test_quadrature_refusals(call, message):
    check_table(call, message)


def qubit_ensemble(n_symbols):
    prior = FiniteDistribution.uniform(Alphabet(n_symbols))
    return quantum.Ensemble(prior, [StateDensity.from_diag((Fraction(1), Fraction(0)))]
                            * n_symbols)


QUANTUM = [
    (lambda: quantum.Ensemble(F2, [StateDensity.from_diag((Fraction(1),))]),
     "need one state per symbol: 1 states for 2 symbols"),
    (lambda: quantum.hashed_joint_blocks(qubit_ensemble(2),
                                         hashing.build_family("linear", 2, 2, 1)),
     "ensemble alphabet does not match the family input"),
    (lambda: quantum.basis_plus_mixed_ensemble(1), "dimension must be >= 2"),
    pytest.param(lambda: quantum.ensemble_from_json({"states": []}),
                 "top level: expected an object with key 'prior', got {'states': []}",
                 id="ensemble JSON needs 'prior' and 'states'"),
    (lambda: quantum.CqKeyState(2, 1, (((0.75,),), ((0.25,),)), 1),
     "count [0, 0, 0] is float64 0.75, not an integer"),
    (lambda: quantum.CqKeyState(2, 1, np.array([[[3]], [[np.float64(1.0)]]], dtype=object), 4),
     "count [1, 0, 0] is float64 1.0, not an integer"),
    (lambda: quantum.CqKeyState(2, 1, np.array([[[3]], [[0.25]]], dtype=object), 4),
     "count [1, 0, 0] is float 0.25, not an integer"),
    (lambda: quantum.CqKeyState(2, 1, (((Fraction(3, 4),),), ((Fraction(1, 4),),)), 1),
     "count [0, 0, 0] is Fraction 3/4, not an integer"),
]


@pytest.mark.parametrize("call,message", QUANTUM, ids=ids(QUANTUM))
def test_quantum_refusals(call, message):
    check_table(call, message)


SEMIGROUP = [
    (lambda: semigroup.CovSpec(5, (1.0,) * 5), "dimension must lie in 1..4"),
    (lambda: semigroup.CovSpec(2, (1.0,), (0.0,)), "need one variance per coordinate"),
    (lambda: semigroup.kernel_pdf(SPEC1, 0.0), "kernel time must be positive"),
    (lambda: semigroup.apply(gauss, 1.0, SPEC2, [[0.0, 0.0, 0.0]]),
     "query points must have 2 coordinates"),
    (lambda: semigroup.apply(gauss, 1.0, SPEC1, [0.0], method="simpson"),
     "method must be 'quadrature' or 'mc'"),
    (lambda: semigroup.check_semigroup(gauss, 0.0, 0.5, SPEC1, [0.0]),
     "both times must be positive"),
    (lambda: semigroup.check_semigroup(gauss, 0.5, 0.5, SPEC1, [0.0], method="simpson"),
     "method must be 'quadrature' or 'mc'"),
]


@pytest.mark.parametrize("call,message", SEMIGROUP, ids=ids(SEMIGROUP))
def test_semigroup_refusals(call, message):
    check_table(call, message)


TREEPROC = [
    (lambda: treeproc.simulate_ensemble(1, 2, 4, mode="exact"),
     "mode must be 'standard' or 'paper-literal'"),
    (lambda: treeproc.increment_stats(treeproc.simulate(1, 2)),
     "increment statistics need at least 2 replications"),
    (lambda: treeproc.refinement_delta(1, []), "need at least one level"),
    (lambda: treeproc.refinement_delta(1, [0, 2]), "refinement levels start at 2"),
]


@pytest.mark.parametrize("call,message", TREEPROC, ids=ids(TREEPROC))
def test_treeproc_refusals(call, message):
    check_table(call, message)


CLI = [
    (["entropy", "--order", "2"], "provide --weights or --random"),
    pytest.param(["entropy", "--weights", "1e999,1.0"], "weight [0] is inf, not finite",
                 id="weights must be finite"),
    (["semigroup", "--variances", "1,1", "--correlations", "0.2", "--points=0;1"],
     "point has 1 coordinates, expected 2"),
    (["semigroup", "--variances", "1", "--points=0", "--nodes", "100000"],
     "100000 Gauss-Hermite nodes per dimension exceed the cap of 1024"),
    (["quantum-lhl", "--q", "2", "--m", "8", "--k", "3", "--family", "toeplitz",
      "--dim-q", "200"],
     "side-register pushforward of 29491200 limb sums (q**k |G| dim times 18 limbs) "
     "exceeds cap 16777216"),
]


@pytest.mark.parametrize("argv,message", CLI, ids=ids(CLI))
def test_cli_refusals(capsys, argv, message):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: %s\n" % message


def test_nan_prior_is_refused_by_name(tmp_path, capsys):
    # NaN passes every comparison-based check, so it is refused before them.
    path = tmp_path / "nan-prior.json"
    path.write_text(json.dumps({
        "prior": {"alphabet": {"size": 2}, "weights": [float("nan"), 1.0]},
        "states": [{"diag": [1.0, 0.0]}, {"diag": [0.0, 1.0]}]}))
    assert main(["quantum-lhl", "--q", "2", "--m", "1", "--k", "1", "--ensemble", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: prior: weight [0] is nan, not finite\n"


@pytest.mark.parametrize("state,message", [
    ({"diag": [float("nan"), 0.5]}, "states[0]: diagonal entry [0] is nan, not finite"),
    ({"matrix": [[0.5, float("nan")], [float("nan"), 0.5]]},
     "states[0]: state matrix entry [0, 1] is (nan+0j), not finite"),
], ids=["diagonal", "off-diagonal"])
def test_nan_state_is_refused_by_name(tmp_path, capsys, state, message):
    # NaN passes the sign, Hermitian and trace checks, so it is refused before them.
    path = tmp_path / "nan-state.json"
    path.write_text(json.dumps({
        "prior": {"alphabet": {"size": 2}, "weights": ["1/2", "1/2"]},
        "states": [state, {"diag": [0.0, 1.0]}]}))
    assert main(["quantum-lhl", "--q", "2", "--m", "1", "--k", "1", "--ensemble", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: %s\n" % message


@pytest.mark.parametrize("diag,message", [
    ([], "states[0]: state must have dimension >= 1"),
    (["3/2", "-1/2"], "states[0]: diagonal entries must be nonnegative"),
    ([2, -1], "states[0]: diagonal entries must be nonnegative"),
    (["6/8", "6/8"], "states[0]: trace 3/2 exceeds 1"),
    ([float("nan"), 0.5], "states[0]: diagonal entry [0] is nan, not finite"),
], ids=["empty", "negative", "negative-int", "over-trace", "nan"])
def test_refused_diagonal_exits_2_by_name(tmp_path, capsys, diag, message):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({
        "prior": {"alphabet": {"size": 2}, "weights": ["1/2", "1/2"]},
        "states": [{"diag": diag}, {"diag": [0, 1]}]}))
    assert main(["quantum-lhl", "--q", "2", "--m", "1", "--k", "1", "--ensemble", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: %s\n" % message


P2 = {"alphabet": {"size": 2}, "weights": ["1/2", "1/2"]}
ZERO_ONE = {"diag": [0, 1]}


def ensemble(first_state, prior=P2):
    return {"prior": prior, "states": [first_state, ZERO_ONE]}


def with_size(size):
    return ensemble({"diag": [1, 0]}, {"alphabet": {"size": size}, "weights": ["1/2", "1/2"]})


# Each malformed file exits 2 with one line that names the JSON path of what it refuses.
MALFORMED_ENSEMBLES = [
    (ensemble({"matrix": [[1, 0]]}),
     "states[0].matrix[0]: expected a list of 1 entries, one per row, got [1, 0]"),
    (ensemble({"matrix": [[[1]]]}),
     "states[0].matrix[0][0]: expected a number or [re, im], got [1]"),
    (ensemble({"diag": [None, 1]}), "states[0].diag[0]: cannot parse None as a rational"),
    (ensemble({"diag": [[1], 0]}), "states[0].diag[0]: cannot parse [1] as a rational"),
    (ensemble(1), "states[0]: expected an object with 'diag' or 'matrix', got 1"),
    ([P2, []], "top level: expected an object with key 'states', got "
               "[{'alphabet': {'size': 2}, 'weights': ['1/2', '1/2']}, []]"),
    (ensemble({"diag": ["1/0", 1]}), "states[0].diag[0]: cannot parse '1/0' as a rational"),
    (ensemble({"diag": [1, 0]}, {"alphabet": {"size": 2}, "weights": ["1/0", 1]}),
     "prior.weights[0]: cannot parse '1/0' as a rational"),
    (ensemble({"matrix": []}), "states[0].matrix: expected a list of rows, got []"),
    (with_size(2.5), "prior.alphabet.size: expected an integer, got 2.5"),
    (with_size("2"), "prior.alphabet.size: expected an integer, got '2'"),
    (ensemble({"matrix": [[True, 0], [0, 0]]}),
     "states[0].matrix[0][0]: cannot parse True as a rational"),
    (ensemble({"matrix": [["1+0j", 0], [0, 0]]}),
     "states[0].matrix[0][0]: cannot parse '1+0j' as a rational"),
    (ensemble({"diag": ["0.5", "0.5"]}),
     "states[0].diag[0]: exact rational expected; got '0.5' (write it as 'num/den')"),
    (ensemble({"diag": [1, 0]}, {"alphabet": {"size": 2, "power": 10**20},
                                 "weights": ["1/2", "1/2"]}),
     "prior.alphabet.power: expected at most 2 for 2 weights, got 100000000000000000000"),
    (ensemble({"matrix": [[10**400, 0], [0, 0]]}),
     "states[0]: integer division result too large for a float"),
]
MALFORMED_IDS = ["ragged-row", "one-element-cell", "null-in-diag", "list-in-diag", "bare-int-state",
                 "top-level-list", "one-over-zero-in-state", "one-over-zero-in-prior",
                 "empty-matrix", "fractional-size", "string-size", "boolean-cell",
                 "complex-string-cell", "decimal-string", "huge-power", "huge-cell"]


@pytest.mark.parametrize("data,message", MALFORMED_ENSEMBLES, ids=MALFORMED_IDS)
def test_malformed_ensemble_names_its_path(tmp_path, capsys, data, message):
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(data))
    assert main(["quantum-lhl", "--q", "2", "--m", "1", "--k", "1", "--ensemble", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: %s\n" % message


@pytest.mark.parametrize("rows,message", [
    ([[True, 0], [0, 1]], "rows[0][0]: cannot parse True as a rational"),
    ([[0.5, 0.5], [1, 0]],
     "rows[0][0]: exact rational expected; got float 0.5 (write it as 'num/den')"),
    ([["1"], ["0", "1"]], "rows[0]: expected a list of 2 entries, one per row, got ['1']"),
    ([], "rows: expected a list of rows, got []"),
], ids=["boolean", "float", "ragged", "empty"])
def test_malformed_chain_names_its_path(tmp_path, capsys, rows, message):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"rows": rows}))
    assert main(["markov", "--matrix", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: %s\n" % message


# The number grammar: these inputs read as they did before the readers were merged.
def test_prior_reads_exact_strings_and_integers_and_float_literals():
    def weights(raw):
        f = distribution_from_json({"alphabet": {"size": 2}, "weights": raw})
        return (f.denominator, f.numerators.tolist()) if f.exact else f.as_floats().tolist()
    assert weights(["3/4", "1/4"]) == (4, [3, 1])
    assert weights([1, 0]) == (1, [1, 0])
    assert weights([0.25, 0.75]) == [0.25, 0.75]
    assert weights(["3/4", 0.25]) == [0.75, 0.25]
    # 3 is exact, so the sum is checked exactly, not within the float tolerance.
    check_table(lambda: weights([3, 0]), "top level: rational weights must sum to exactly 1")


def test_command_line_float_tokens_are_floats_where_the_float_backend_is(capsys):
    assert cli._parse_numbers("0.5,5e-1,1E0") == (0.5, 0.5, 1.0)
    assert cli._parse_numbers("1/2,1") == (Fraction(1, 2), Fraction(1))
    assert parse_rational("0.25", floats=True) == 0.25
    assert main(["lhl", "--q", "2", "--m", "1", "--k", "1", "--weights", "0.5,0.5"]) == 2
    assert capsys.readouterr().err == \
        "error: exact rational expected; got '0.5' (write it as 'num/den')\n"
    assert main(["markov", "--rows", "0.5,0.5;1,0"]) == 2
    assert capsys.readouterr().err == \
        "error: exact rational expected; got '0.5' (write it as 'num/den')\n"


def test_readme_ensemble_with_its_ignored_dim_key_is_read(tmp_path, capsys):
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({
        "prior": {"alphabet": {"size": 4}, "weights": ["1/4", "1/4", "1/4", "1/4"]},
        "states": [{"dim": 2, "diag": ["3/4", "1/4"]}, {"dim": 2, "diag": ["1/4", "3/4"]},
                   {"dim": 2, "diag": ["1/2", "1/2"]}, {"dim": 2, "diag": ["1", "0"]}]}))
    assert main(["quantum-lhl", "--q", "2", "--m", "2", "--k", "1", "--ensemble", str(path),
                 "--assert-bounds"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and '"exact_comparison": true' in out.out


@pytest.mark.parametrize("den,numerators,message", [
    (2, [3, -1], "diagonal entries must be nonnegative"),
    (8, [6, 6], "trace 3/2 exceeds 1"),
], ids=["negative", "over-trace"])
def test_integer_diagonal_refusals(den, numerators, message):
    # The integer generators' constructor checks what from_diag checks.
    check_table(lambda: StateDensity._from_integers(den, numerators), message)


# With N = 2**1100 the weight 1/N is positive but rounds to 0.0 as a float.
# Routes that take its log or divide by it refuse it by symbol, before any
# sum; the others (entropy at orders 0, 1/2, 2 and inf) still print a value.
N = 2**1100
TINY = "1/%d,%d/%d" % (N, N - 1, N)


def underflow(law, route, use):
    return ("symbol 0 of %s has a positive weight that rounds to 0.0 as a float; "
            "the %s %s" % (law, route, use))


UNDERFLOW = [
    (["--order", "1"], underflow("f", "Shannon entropy", "takes its log")),
    (["--other", TINY, "--order", "2"],
     underflow("f_plus", "order-2 divergence", "divides by it")),
    (["--other", TINY, "--order", "0.7"],
     underflow("f", "order-0.7 divergence", "takes its log")),
    (["--other", TINY, "--order", "3"], underflow("f", "order-3 divergence", "takes its log")),
    (["--other", TINY, "--order", "inf"],
     underflow("f_plus", "max-ratio divergence", "divides by it")),
    (["--other", "1/2,1/2", "--order", "1"], underflow("f", "KL divergence", "takes its log")),
    (["--other", "1/2,1/2", "--order", "0.7"],
     underflow("f", "order-0.7 divergence", "takes its log")),
    (["--other", "1/2,1/2", "--order", "3"],
     underflow("f", "order-3 divergence", "takes its log")),
]


def underflow_id(argv):
    other = "" if argv[0] != "--other" else "other=%s-" % ("same" if argv[1] == TINY else argv[1])
    return other + "order=" + argv[-1]


@pytest.mark.parametrize("argv,message", UNDERFLOW, ids=[underflow_id(a) for a, _ in UNDERFLOW])
def test_underflowing_weight_is_refused_by_symbol(capsys, argv, message):
    assert main(["entropy", "--weights", TINY] + argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: %s\n" % message


def test_underflowing_weight_is_refused_as_a_reference(capsys):
    # As f_plus, the weight is divided by on the KL route.
    assert main(["entropy", "--weights", "1/2,1/2", "--other", TINY, "--order", "1"]) == 2
    assert capsys.readouterr().err == "error: %s\n" % underflow(
        "f_plus", "KL divergence", "divides by it")


@pytest.mark.parametrize("order", ["1", "2", "3", "inf"])
def test_support_outside_the_reference_is_infinite_before_any_refusal(capsys, order):
    # supp f is not inside supp f_plus, so the divergence is inf whatever the
    # float readout of 1/N; the KL route read log(0.0) first and failed before.
    assert main(["entropy", "--weights", TINY, "--other", "1,0", "--order", order]) == 0
    out = capsys.readouterr()
    assert out.err == "" and '"value": "inf"' in out.out


@pytest.mark.parametrize("order,value", [("0", 1.0), ("0.5", 0.0), ("2", 0.0), ("inf", 0.0)])
def test_underflowing_weight_keeps_the_routes_that_need_no_log_of_it(capsys, order, value):
    assert main(["entropy", "--weights", TINY, "--order", order]) == 0
    assert capsys.readouterr().err == ""
    f = FiniteDistribution(Alphabet(2), (Fraction(1, N), Fraction(N - 1, N)))
    assert entropy.renyi_entropy(f, float(order)) == value


# With N = 2**1074 the weight 1/N reads as the least subnormal float, and with
# N = 10**300 as a normal one.  Against a weight of 1/2 in f, a ratio, a term
# or the sum of some divergence routes passes the float range, though the
# divergence is finite (about 536 bits at order 1 for N = 2**1074); those
# routes refuse it by symbol before printing.
NS = {"2**1074": 2**1074, "10**300": 10**300}


def reciprocal(n):
    return "1/%d,%d/%d" % (NS[n], NS[n] - 1, NS[n])


def overflow(route):
    return "symbol 0 of f_plus lies so far below f that the %s overflows a float" % route


OVERFLOW = [
    ("2**1074", "1", overflow("KL divergence")),
    ("2**1074", "inf", overflow("max-ratio divergence")),
    ("2**1074", "2", overflow("order-2 divergence")),
    ("2**1074", "3", overflow("order-3 divergence")),
    ("2**1074", "10", overflow("order-10 divergence")),
    ("10**300", "3", overflow("order-3 divergence")),
    ("10**300", "10", overflow("order-10 divergence")),
]


@pytest.mark.parametrize("n,order,message", OVERFLOW,
                         ids=["N=%s-order=%s" % case[:2] for case in OVERFLOW])
def test_overflowing_ratio_is_refused_by_symbol(capsys, n, order, message):
    other = reciprocal(n)
    assert main(["entropy", "--weights", "1/2,1/2", "--other", other, "--order", order]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: %s\n" % message


# The routes whose sums stay in range print what they printed before.
IN_RANGE = [
    ("2**1074", "0.5", "0.9999999999999999"), ("2**1074", "1.5", "1071.0"),
    ("10**300", "0.5", "0.9999999999999999"), ("10**300", "1", "497.2892142331044"),
    ("10**300", "1.5", "993.5784284662088"), ("10**300", "2", "994.5784284662087"),
    ("10**300", "inf", "995.5784284662088"),
]


@pytest.mark.parametrize("n,order,value", IN_RANGE,
                         ids=["N=%s-order=%s" % case[:2] for case in IN_RANGE])
def test_ratio_in_range_keeps_its_value(capsys, n, order, value):
    other = reciprocal(n)
    assert main(["entropy", "--weights", "1/2,1/2", "--other", other, "--order", order]) == 0
    out = capsys.readouterr()
    assert out.err == "" and '\n  "value": %s\n' % value in out.out
