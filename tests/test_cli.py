import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import kdcheck
from kdcheck import markov
from kdcheck.cli import main
from kdcheck.core import MAX_MC_SAMPLES
from kdcheck.markov import MAX_POWER_BITS
from kdcheck.quantum import MAX_PHI_DIM


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_phi_reports_exact_value(capsys):
    rep = run_json(capsys, "phi", "--n", "2")
    assert rep["phi"] == "5/9"
    assert rep["schema"] == 1
    assert rep["check"] == "pgm-success-table"
    assert rep["paper_anchor"]


def test_entropy_order_two(capsys):
    rep = run_json(capsys, "entropy", "--weights", "1/2,1/4,1/8,1/8",
                   "--order", "2")
    assert rep["method"] == "closed-form:power-sum"
    assert abs(rep["value"] - 0.7702841906813515) < 1e-12


def test_entropy_divergence(capsys):
    rep = run_json(capsys, "entropy", "--weights", "3/4,1/4",
                   "--other", "1/2,1/2", "--order", "2")
    assert abs(rep["value"] - 0.32192809488736235) < 1e-12


def test_entropy_differential_gaussian(capsys):
    rep = run_json(capsys, "entropy", "--gaussian", "0,1")
    assert abs(rep["value"] - 1.4189385332046727) < 1e-4


def test_lhl_uniform_satisfied(capsys):
    rep = run_json(capsys, "lhl", "--q", "2", "--m", "3", "--k", "1",
                   "--family", "linear", "--uniform")
    assert rep["satisfied"] is True
    assert rep["distance"] == "1/16"
    assert rep["value"] == "1/16"
    assert rep["check"] == "lhl-classical"


def test_lhl_assert_bounds_ok(capsys):
    code, _, _ = run_cli(capsys, "lhl", "--q", "2", "--m", "2", "--k", "1",
                         "--uniform", "--assert-bounds")
    assert code == 0


def test_markov_matrix_file(capsys, tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"rows": [["0", "1"], ["1", "0"]]}))
    rep = run_json(capsys, "markov", "--matrix", str(path), "--state", "0")
    assert rep["Theta_gf"] == "r^2"
    assert rep["P_gf"] == "(1)/(1-r^2)"


def test_markov_rows_inline(capsys):
    rep = run_json(capsys, "markov", "--rows", "1/2,1/2;1/2,1/2")
    assert rep["Theta_gf"] == "(r/2)/(1-r/2)"
    assert rep["theta_at_1"] == "1/1"


def test_markov_requires_input(capsys):
    code, _, err = run_cli(capsys, "markov", "--state", "0")
    assert code == 2
    assert "rows" in err


MALFORMED_CHAINS = {
    '{"rows": 5}': "rows: expected a list of rows, got 5",
    '{"rows": [5]}': "rows[0]: expected a list of 1 entries, one per row, got 5",
    '{"rows": "01"}': "rows: expected a list of rows, got '01'",
    '[["1"]]': "top level: expected an object with key 'rows', got [['1']]",
}


@pytest.mark.parametrize("data", [{"rows": 5}, {"rows": [5]}, {"rows": "01"}, [["1"]]])
def test_markov_malformed_matrix_exits_two(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "markov", "--matrix", str(path))
    assert code == 2 and out == ""
    assert err == "error: %s\n" % MALFORMED_CHAINS[json.dumps(data)]


def test_markov_refuses_oversized_powers_before_building_them():
    # 2000 terms of a chain over D = 1994 need 22000-bit powers.  Without
    # the up-front cap this call runs for minutes, so it gets its own
    # process with a timeout.
    src = str(Path(kdcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from kdcheck.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "markov", "--rows", "1/997,996/997;1/2,1/2", "--terms", "2000"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "%d bits" % MAX_POWER_BITS in proc.stderr


def test_markov_refuses_oversized_elimination_before_it_runs(capsys, monkeypatch):
    def fail(rows):
        raise AssertionError("eliminated a refused chain")
    monkeypatch.setattr(markov, "_det_adjugate", fail)
    # Row i holds 19 entries 1/(20+i): a 20-state chain over lcm(20..39).
    rows = ";".join(",".join(["1/%d" % d] * 19 + ["%d/%d" % (d - 19, d)])
                    for d in range(20, 40))
    code, out, err = run_cli(capsys, "markov", "--rows", rows)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "%d" % markov.MAX_ELIMINATION_COST in err


def generic_chain_file(path, n, bits):
    """A ``--matrix`` file: ``n`` states with distinct odd numerators over
    ``D = 2**(bits - 1)``, so that no entry reduces."""
    d = 2**(bits - 1)
    rows = []
    for i in range(n):
        row = [d // (i + j + 2) | 1 for j in range(n - 1)]
        rows.append(["%d/%d" % (v, d) for v in row + [d - sum(row)]])
    path.write_text(json.dumps({"rows": rows}))
    return str(path)


def test_markov_refuses_a_report_past_the_digit_limit(capsys, monkeypatch, tmp_path):
    # A 3-state chain over an 8192-bit D: its P_gf and Theta_gf coefficients
    # have about 2 * 8192 bits, past CPython's 4300-digit limit on printing
    # an int, so the report is refused by name before any of it is printed.
    path = generic_chain_file(tmp_path / "big.json", 3, 8192)

    def fail(self):
        raise AssertionError("formatted a refused report")
    monkeypatch.setattr(markov.RationalFunction, "display", fail)
    code, out, err = run_cli(capsys, "markov", "--matrix", path, "--terms", "1")
    assert code == 2 and out == ""
    assert err == ("error: the report of a 3-state chain with a 8192-bit common "
                   "denominator prints a 16382-bit integer, over the cap of %d decimal "
                   "digits\n" % markov.MAX_PRINTED_DIGITS)


def test_markov_digit_cap_boundary(capsys, tmp_path):
    # The largest generic 3-state chain whose report prints, and one bit more.
    path = generic_chain_file(tmp_path / "under.json", 3, 7143)
    rep = run_json(capsys, "markov", "--matrix", path, "--terms", "1")
    digits = [len(t) for t in re.findall(r"\d+", rep["P_gf"] + rep["Theta_gf"])]
    assert 4290 < max(digits) <= 4300
    path = generic_chain_file(tmp_path / "over.json", 3, 7144)
    code, out, err = run_cli(capsys, "markov", "--matrix", path, "--terms", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: the report of a 3-state chain with a 7144-bit ")
    assert "prints a 14286-bit integer" in err


def test_markov_admits_twelve_terms_of_a_six_state_chain(capsys):
    # Row sums 54, 53, 49, 47, 43, 41 (entries 1..9) give a 34-bit common
    # denominator, about the largest a six-state chain of that shape has.
    raw = ([9, 9, 9, 9, 9, 9], [9, 9, 9, 9, 9, 8], [9, 9, 9, 9, 9, 4],
           [9, 9, 9, 9, 9, 2], [9, 9, 9, 9, 6, 1], [9, 9, 9, 9, 4, 1])
    rows = ";".join(",".join("%d/%d" % (v, sum(row)) for v in row) for row in raw)
    rep = run_json(capsys, "markov", "--rows", rows, "--terms", "12")
    assert len(rep["theta_series"]) == 12


def test_quantum_lhl_random(capsys):
    rep = run_json(capsys, "quantum-lhl", "--q", "2", "--m", "2", "--k", "1",
                   "--dim-q", "2", "--seed", "3")
    assert rep["satisfied"] is True
    assert rep["exact_comparison"] is True


def test_semigroup_apply_csv(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--variances", "1.0",
                           "--function", "gauss", "--time", "1.0",
                           "--points", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,value"
    x, val = lines[1].split(",")
    # averaging the standard normal pdf at 0 gives the N(0,2) pdf at 0
    assert abs(float(val) - 0.28209479177387814) < 1e-8


def test_semigroup_compose_assert(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--variances", "0.8",
                           "--function", "gauss", "--compose", "0.3,0.5",
                           "--points", "0;1", "--assert-bounds")
    assert code == 0
    rep = json.loads(out)
    assert rep["max_abs_deviation"] < 1e-6
    assert rep["check"] == "gaussian-semigroup"


def test_treesim_csv_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "treesim", "--dim", "2", "--eta", "4",
                            "--seed", "1")
    code2, out2, _ = run_cli(capsys, "treesim", "--dim", "2", "--eta", "4",
                             "--seed", "1")
    assert code == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "time,w1,w2"
    assert len(out1.splitlines()) == 10


def test_treesim_stats(capsys):
    rep = run_json(capsys, "treesim", "--dim", "1", "--eta", "6",
                   "--reps", "500", "--seed", "0", "--stats")
    assert rep["corr_violations"] == 0
    assert len(rep["variance_at_one"]) == 1


def test_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "entropy", "--weights", "1/2,1/3")
    assert code == 2
    assert "error" in err


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "phi", "--n", "3", "--output", str(path))
    assert code == 0 and out == ""
    rep = json.loads(path.read_text())
    assert rep["phi"] == "10/16" or rep["phi"] == "5/8"


CSV_ARGV = [
    ("treesim", "--dim", "2", "--eta", "4", "--seed", "1"),
    ("semigroup", "--variances", "1,2", "--correlations", "0.3",
     "--points", ";".join("%d,0.5" % i for i in range(10))),
]


@pytest.mark.parametrize("argv", CSV_ARGV + [("phi", "--n", "3")],
                         ids=["treesim", "semigroup", "phi"])
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    path = tmp_path / "report"
    code, printed, _ = run_cli(capsys, *argv)
    code2, out, _ = run_cli(capsys, *argv, "--output", str(path))
    assert code == code2 == 0 and out == ""
    assert path.read_bytes() == printed.encode()


@pytest.mark.parametrize("argv", [
    ("treesim", "--eta", "16", "--reps", "256"),
    ("semigroup", "--variances", "1", "--nodes", "1"),
], ids=["path-cap", "nodes"])
@pytest.mark.parametrize("existing", [False, True])
def test_failed_run_leaves_output_path_as_it_was(capsys, tmp_path, argv, existing):
    path = tmp_path / "report"
    if existing:
        path.write_text("an earlier report\n")
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")
    if existing:
        assert path.read_text() == "an earlier report\n"
    else:
        assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("markov", "--matrix", "{path}", "--state", "0", "--output", "{path}"),
    ("quantum-lhl", "--q", "2", "--m", "2", "--k", "1",
     "--ensemble", "{path}", "--output", "{path}"),
], ids=["markov", "quantum-lhl"])
def test_output_may_name_the_input(capsys, tmp_path, argv):
    path = tmp_path / "data.json"
    inputs = {
        "markov": {"rows": [["0", "1"], ["1", "0"]]},
        "quantum-lhl": {
            "prior": {"alphabet": {"size": 2, "power": 2},
                      "weights": ["1/2", "1/4", "1/8", "1/8"]},
            "states": [{"dim": 2, "diag": d} for d in
                       (["3/4", "1/4"], ["1/4", "3/4"], ["1", "0"], ["0", "1"])]},
    }
    path.write_text(json.dumps(inputs[argv[0]]))
    argv = [a.format(path=path) for a in argv]
    code, printed, err = run_cli(capsys, *argv[:-2])
    assert code == 0, err
    path.write_text(json.dumps(inputs[argv[0]]))
    assert run_cli(capsys, *argv) == (0, "", "")
    assert path.read_text() == printed


def _fail_after_writing(args):
    print("partial report")
    raise ValueError("late failure")


@pytest.mark.parametrize("target", ["file", "symlink", "fifo"])
def test_late_failure_removes_only_a_regular_output(capsys, monkeypatch,
                                                     tmp_path, target):
    import os
    import threading

    from kdcheck import cli

    monkeypatch.setattr(cli, "cmd_phi", _fail_after_writing)
    path = tmp_path / "report"
    drained = []
    if target == "symlink":
        (tmp_path / "real").write_text("")
        path.symlink_to(tmp_path / "real")
    elif target == "fifo":
        os.mkfifo(path)
        reader = threading.Thread(target=lambda: drained.append(path.read_text()),
                                  daemon=True)
        reader.start()
    code, out, err = run_cli(capsys, "phi", "--n", "2", "--output", str(path))
    # The error that ended the run is the one reported.
    assert (code, out, err) == (2, "", "error: late failure\n")
    if target == "file":
        assert not path.exists()
    else:
        assert os.path.lexists(path)
    if target == "fifo":
        reader.join(10)
        assert drained == ["partial report\n"]


def _per_row_csv(header, columns, time_factor=None):
    """The CSV writer that formatted one row per ``%``: the byte reference.

    A time column is built whole, as ``np.arange(n) / time_factor``.
    """
    from kdcheck import cli

    if time_factor is not None:
        columns = [np.arange(len(columns[0])) / time_factor, *columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    out = sys.stdout
    out.write(header + "\n")
    for b in range(0, len(columns[0]), cli.CSV_BLOCK_ROWS):
        block = np.column_stack([c[b:b + cli.CSV_BLOCK_ROWS] for c in columns])
        out.write("".join([row % tuple(r) for r in block.tolist()]))


@pytest.mark.parametrize("argv", CSV_ARGV, ids=["treesim", "semigroup"])
def test_csv_blocks_do_not_change_bytes(capsys, monkeypatch, argv):
    from kdcheck import cli

    with monkeypatch.context() as m:
        m.setattr(cli, "_print_csv", _per_row_csv)
        whole = run_cli(capsys, *argv)
    assert whole[1].count("\n") > 7
    for block in (cli.CSV_BLOCK_ROWS, 7, 1):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        assert run_cli(capsys, *argv) == whole


def test_treesim_csv_builds_no_time_column(capsys, monkeypatch):
    # A PathEnsemble holds no times; the CSV writer makes each block's own,
    # so no time array is longer than a block.
    from kdcheck import cli, treeproc

    assert not hasattr(treeproc.PathEnsemble, "times")
    sizes, arange = [], np.arange

    def spy(*args, **kwargs):
        out = arange(*args, **kwargs)
        sizes.append(out.size)
        return out
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 64)
    monkeypatch.setattr(np, "arange", spy)
    code, out, _ = run_cli(capsys, "treesim", "--eta", "8", "--seed", "2")
    assert code == 0 and out.count("\n") == treeproc.grid_factor(8) + 2
    assert out.splitlines()[-1].startswith("1,")
    assert sizes and max(sizes) <= 64


# Signed zero, the smallest subnormal, values whose %.17g takes exponent
# form or needs all 17 digits, the largest float, NaN and both infinities.
SPECIAL = [-0.0, 5e-324, 1e-5, 1e16, 1e17, 1.7976931348623157e308, math.nan,
           math.inf, -math.inf, 0.1, 1 / 3, -2.5e-300, 123456789012345678.0]


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("columns", [
    [SPECIAL, SPECIAL[::-1], [-v for v in SPECIAL]],
    [SPECIAL],
    [[-0.0], [math.nan], [1e17]],
], ids=["three-columns", "one-column", "one-row"])
def test_print_csv_matches_per_row_writer(capsys, monkeypatch, block, columns):
    from kdcheck import cli

    columns = [np.array(c, dtype=float) for c in columns]
    if block is not None:
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
    _per_row_csv("a,b", columns)
    want = capsys.readouterr().out
    cli._print_csv("a,b", columns)
    assert capsys.readouterr().out == want and "e+17" in want


def test_mc_compose_judged_in_standard_errors(capsys, monkeypatch):
    argv = ("semigroup", "--variances", "1", "--compose", "0.3,0.5",
            "--method", "mc", "--samples", "20000", "--points", "0",
            "--assert-bounds")
    code, out, _ = run_cli(capsys, *argv)
    rep = json.loads(out)
    assert code == 0 and rep["value"] == rep["max_deviation_in_se"] < 3
    assert rep["bound"] == 3 and rep["max_abs_deviation"] > 1e-6

    from kdcheck import semigroup
    # The CLI reads the verdict that check_semigroup gives.
    inner = semigroup.check_semigroup
    monkeypatch.setattr(semigroup, "check_semigroup", lambda *a, **k: {
        **inner(*a, **k), "value": 3.0, "passed": False})
    code, out, _ = run_cli(capsys, *argv)
    rep = json.loads(out)
    assert code == 3 and rep["value"] == rep["bound"] == 3 and "passed" not in rep


def test_float_diagonal_ensemble_prints_as_its_dense_matrix(capsys, tmp_path):
    diags = [[0.75, 0.25], [0.25, 0.75], [0.5, 0.5], [1.0, 0.0]]
    prior = {"alphabet": {"size": 4}, "weights": ["1/4"] * 4}
    runs = []
    for form, states in (("diag", [{"diag": d} for d in diags]),
                         ("matrix", [{"matrix": np.diag(d).tolist()} for d in diags])):
        path = tmp_path / ("%s.json" % form)
        path.write_text(json.dumps({"prior": prior, "states": states}))
        runs.append(run_cli(capsys, "quantum-lhl", "--q", "2", "--m", "2", "--k", "1",
                            "--ensemble", str(path)))
    assert runs[0][0] == 0 and runs[0] == runs[1]


def test_verify_filter_lhl(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--filter", "lhl")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 3
    assert all(l.startswith("PASS") for l in lines)
    assert all("lhl-" in l for l in lines)


def test_verify_json_timings_are_opt_in(capsys):
    argv = ("verify-all", "--filter", "lhl-collision", "--json")
    first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
    assert first[0] == 0 and first == second
    rep = json.loads(first[1])
    assert "total_seconds" not in rep
    assert [sorted(r) for r in rep["results"]] == [[
        "details", "name", "paper_anchor", "passed", "schema"]]
    timed = run_json(capsys, *argv, "--timings")
    assert [sorted(r) for r in timed["results"]] == [[
        "details", "elapsed_seconds", "name", "paper_anchor", "passed", "schema"]]
    assert timed["total_seconds"] == timed["results"][0]["elapsed_seconds"] >= 0


def test_verify_text_timings_are_opt_in(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--filter", "lhl-collision")
    assert code == 0
    assert out.split() == ["PASS", "lhl-collision", "hashed-key", "collision",
                           "probability", "bound"]
    code, out, _ = run_cli(capsys, "verify-all", "--filter", "lhl-collision",
                           "--timings")
    assert code == 0
    assert out.splitlines()[-1].startswith("total ")
    assert out.split()[2].endswith("s")


def test_verify_budget_exceeded(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--budget", "0.000001")
    assert code == 4
    assert "SKIP" in out


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_verify_budget_refused_before_any_check(capsys, monkeypatch, budget):
    from kdcheck import verify

    def refuse(check):
        raise AssertionError("ran %s under a refused budget" % check.name)
    monkeypatch.setattr(verify, "run_check", refuse)
    code, out, err = run_cli(capsys, "verify-all", "--filter", "pgm-success",
                             "--json", "--budget", budget)
    assert (code, out) == (2, "")
    assert err == "error: budget must be a nonnegative number of seconds, got %r\n" % float(budget)


def test_verify_json_shape(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--filter", "pgm-success",
                           "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"] is True
    assert rep["results"][0]["name"] == "pgm-success-table"
    assert rep["results"][0]["paper_anchor"]


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["table", "json"])
def test_verify_empty_filter_exits_two(capsys, json_flag):
    code, out, err = run_cli(capsys, "verify-all", "--filter", "nosuchcheck", *json_flag)
    assert code == 2 and out == ""
    assert err == "error: filter 'nosuchcheck' selects no check\n"


@pytest.mark.parametrize("argv", [
    ("quantum-lhl", "--q", "2", "--m", "2", "--k", "1", "--ensemble", "{missing}"),
    ("markov", "--matrix", "{missing}"),
    ("phi", "--n", "2", "--output", "{missing}/report.json"),
])
def test_file_errors_exit_two(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing")
    code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["quadrature", "mc"])
def test_cross_route_disagreement_exits_two(capsys, monkeypatch, method):
    from kdcheck import semigroup

    def disagree(spec):
        raise ArithmeticError("determinant routes disagree")

    monkeypatch.setattr(semigroup, "build_sigma", disagree)
    code, out, err = run_cli(capsys, "semigroup", "--variances", "1.0",
                             "--function", "gauss", "--points", "0",
                             "--method", method)
    assert code == 2 and out == ""
    assert err == "error: determinant routes disagree\n"


@pytest.mark.parametrize("nodes", ["0", "1", "3000"])
@pytest.mark.parametrize("mode", [(), ("--compose", "0.3,0.5"), ("--contract",)],
                         ids=["apply", "compose", "contract"])
def test_bad_node_count_exits_two(capsys, monkeypatch, nodes, mode):
    from kdcheck import semigroup

    def unexpected(n):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(semigroup, "_hermite_1d", unexpected)
    code, out, err = run_cli(capsys, "semigroup", "--variances", "1,1",
                             "--correlations", "0.3", "--points", "0,0",
                             "--nodes", nodes, *mode)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_semigroup_reports_rule_and_warning(capsys):
    rep = run_json(capsys, "semigroup", "--variances", "1,1", "--correlations",
                   "0.4", "--function", "wave", "--compose", "0.3,0.5",
                   "--points", "0,0;1,-1")
    assert rep["rule"] == "gauss-hermite-whitened"
    assert rep["nodes_per_dim"] == 40 and rep["error_estimate"] < 1e-6
    assert rep["warnings"] == []
    code, out, err = run_cli(capsys, "semigroup", "--variances", "1,1",
                             "--correlations", "0.4", "--function", "bump",
                             "--points", "0,0")
    assert code == 0 and out.startswith("x1,x2,value\n")
    assert err.startswith("warning: ") and "--nodes" in err


@pytest.mark.parametrize("command", ["lhl", "quantum-lhl"])
def test_table_cell_cap_exits_two(capsys, command):
    # 2**20 Toeplitz members of 2**20 cells each: refused before any table is built.
    code, out, err = run_cli(capsys, command, "--q", "2", "--m", "20", "--k", "1",
                             "--family", "toeplitz")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cells exceeds cap" in err


def test_treesim_path_cap_exits_two(capsys, monkeypatch):
    # 256 paths at eta=16 would need about 21 GB: refused before any level is drawn.
    from kdcheck import treeproc

    def refuse(*args, **kwargs):
        raise AssertionError("simulated past the cap")
    monkeypatch.setattr(treeproc, "_simulate_chunk", refuse)
    code, out, err = run_cli(capsys, "treesim", "--eta", "16", "--reps", "256")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "path cells exceeds cap" in err


@pytest.mark.parametrize("extra", [
    ["--dim", "2", "--seed", "1"],
    ["--reps", "300", "--rep", "299", "--mode", "paper-literal"],
    ["--reps", "300", "--seed", "2", "--stats"],
])
def test_treesim_keep_eta_prints_the_kept_level(capsys, extra):
    kept = run_cli(capsys, "treesim", "--eta", "10", "--keep-eta", "4", *extra)
    direct = run_cli(capsys, "treesim", "--eta", "4", *extra)
    assert kept[0] == 0 and kept == direct


@pytest.mark.parametrize("eta,keep", [("16", "8"), ("14", "2"), ("12", "8")])
def test_treesim_keep_eta_admitted_past_working_cap(capsys, monkeypatch, eta, keep):
    # A level-eta chunk of 256 paths may exceed the cap; only the kept level
    # is simulated, so the call is admitted and never refines past it.
    from kdcheck import treeproc

    levels = []
    refine = treeproc._refine

    def spy(vals, eta_prev, eta_new, rng, mode, reps, keep):
        levels.append(eta_new)
        return refine(vals, eta_prev, eta_new, rng, mode, reps, keep)
    monkeypatch.setattr(treeproc, "_refine", spy)
    rep = run_json(capsys, "treesim", "--eta", eta, "--reps", "256",
                   "--keep-eta", keep, "--stats")
    assert rep["eta"] == int(keep)
    assert max(levels) == int(keep)


@pytest.mark.parametrize("stats,chunks,rows", [
    ([], 1, {1}), (["--stats"], 3, {256, 88})], ids=["csv", "stats"])
def test_treesim_csv_fills_only_the_printed_path(capsys, monkeypatch, stats,
                                                 chunks, rows):
    # CSV output simulates the chunk that holds --rep and fills that path
    # alone; --stats still fills every repetition.
    from kdcheck import treeproc

    calls, refined = [], set()
    simulate_chunk, refine = treeproc._simulate_chunk, treeproc._refine

    def chunk_spy(*args, **kwargs):
        calls.append(args)
        return simulate_chunk(*args, **kwargs)

    def refine_spy(vals, *args):
        refined.add(len(vals))
        return refine(vals, *args)
    monkeypatch.setattr(treeproc, "_simulate_chunk", chunk_spy)
    monkeypatch.setattr(treeproc, "_refine", refine_spy)
    code, out, _ = run_cli(capsys, "treesim", "--eta", "4", "--reps", "600",
                           "--rep", "599", *stats)
    assert code == 0 and out
    assert len(calls) == chunks and refined == rows


# sha256 of CSV output as printed from the whole ensemble by the per-row
# writer; identical arguments must keep printing these bytes.  The
# semigroup digest also rests on numpy's exp and cos.
PINNED_CSV = [
    (["treesim", "--eta", "10", "--reps", "300", "--rep", "299", "--mode",
      "paper-literal", "--seed", "4"],
     "30ca14959f9e2ada7c74bd4ce9c9b06ad354a1a8e21928a6d60b76d63ce1de22"),
    (["treesim", "--dim", "2", "--eta", "8", "--seed", "1"],
     "ae90c7686ed4be1d5a02cf508f3018e7ff888c4be450fc1e44bfd6d9d611614c"),
    (["treesim", "--eta", "10", "--keep-eta", "4", "--reps", "300", "--rep", "7"],
     "3ff901328cfe45739a68a62a23e9e07dea6162854cad122c03d43c9e053dd84b"),
    (["semigroup", "--function", "wave", "--variances", "1,2", "--correlations",
      "0.3", "--points=" + ";".join("%d,%g" % (i - 5, 0.25 * i) for i in range(12))],
     "7f694fc8b041eff8fcbe50bd49840d86e063d6a3ef33a2109f2e81cd8874604f"),
]


@pytest.mark.parametrize("argv,digest", PINNED_CSV,
                         ids=["treesim-chunk-edge", "treesim-2d", "treesim-keep-eta",
                              "semigroup-wave"])
def test_csv_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of JSON reports whose producers lost their one-value parameters
# (the density's node count and tolerance, differential_entropy's report
# flag, the display variable); the reports must keep these bytes.
@pytest.mark.parametrize("argv,digest", [
    (["entropy", "--gaussian", "5,4", "--aep-samples", "5000", "--seed", "3"],
     "0655ca125e9ca61c539d8b123543f8ab6d8bfc5faadc01147b5fa4b7cc655af1"),
    (["markov", "--rows", "1/2,1/2;1/3,2/3", "--terms", "12"],
     "cef8e1b693a4b4b9fef46407b4483eed20711d33f8c6c3e218cd9e09b45159e8"),
], ids=["entropy-gaussian", "markov-rows"])
def test_json_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


MC_ARGV = ["semigroup", "--variances", "1,0.8,1.2", "--correlations", "0.2,-0.1,0.3",
           "--function", "gauss", "--points=0,0,0;0.5,-0.5,0.2", "--method", "mc",
           "--samples", "70000"]


# Digests of whole-draw Monte Carlo; 70 000 samples span two CHUNK_ROWS blocks.
@pytest.mark.parametrize("argv,digest", [
    (MC_ARGV, "2f13c65af95c00f5c797043f6bb86d0f3e86ac9965643811436d26d3e9bcde6f"),
    (MC_ARGV + ["--compose", "0.3,0.6"],
     "7efde0187d5a4b6cc96bbd7e56f7de19c1147cb3dfbdfecff344b7d7590450ce"),
], ids=["apply", "compose"])
def test_mc_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,message", [
    (["--eta", "5"], "level must be even and lie in 0..16, got 5"),
    (["--eta", "18", "--keep-eta", "4"], "level must be even and lie in 0..16, got 18"),
    (["--eta", "8", "--keep-eta", "3"], "level must be even and lie in 0..16, got 3"),
    (["--eta", "8", "--keep-eta", "10"], "keep_eta cannot exceed the simulated level"),
    (["--reps", "0", "--keep-eta", "10"], "replication count must be >= 1"),
])
def test_treesim_level_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, "treesim", *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("rep", ["3", "-1"])
def test_treesim_rep_checked_before_simulating(capsys, monkeypatch, rep):
    from kdcheck import treeproc

    def refuse(*args, **kwargs):
        raise AssertionError("simulated with a bad --rep")
    monkeypatch.setattr(treeproc, "_simulate_chunk", refuse)
    code, out, err = run_cli(capsys, "treesim", "--reps", "3", "--rep", rep)
    assert code == 2 and out == ""
    assert err == "error: rep index out of range\n"


@pytest.mark.parametrize("argv,message", [
    (["--mode", "paper-literal", "--eta", "4"],
     "increment statistics attach to standard mode only"),
    (["--reps", "1"], "increment statistics need at least 2 replications"),
])
def test_treesim_stats_checked_before_simulating(capsys, monkeypatch, argv, message):
    from kdcheck import treeproc

    def refuse(*args, **kwargs):
        raise AssertionError("simulated a refused --stats run")
    monkeypatch.setattr(treeproc, "_simulate_chunk", refuse)
    code, out, err = run_cli(capsys, "treesim", "--stats", *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


SG_MC = ["semigroup", "--variances", "1", "--method", "mc", "--points", "0"]
AEP = ["entropy", "--weights", "1/2,1/4,1/4", "--aep-samples"]
MC_CAP = "%d Monte Carlo samples exceed MAX_MC_SAMPLES = %d"
DRAWN = "drew samples"


@pytest.mark.parametrize("argv,message", [
    (SG_MC + ["--samples", "1", "--compose", "0.3,0.5", "--assert-bounds"],
     "a Monte Carlo standard error needs samples >= 2, got 1"),
    (SG_MC + ["--samples", "0"], "Monte Carlo needs samples >= 1, got 0"),
    (SG_MC + ["--samples", str(MAX_MC_SAMPLES)], DRAWN),
    (SG_MC + ["--samples", str(MAX_MC_SAMPLES), "--compose", "0.3,0.5"], DRAWN),
    (AEP + [str(MAX_MC_SAMPLES)], DRAWN),
    (SG_MC + ["--samples", str(MAX_MC_SAMPLES + 1)],
     MC_CAP % (MAX_MC_SAMPLES + 1, MAX_MC_SAMPLES)),
    (SG_MC + ["--samples", str(MAX_MC_SAMPLES + 1), "--compose", "0.3,0.5"],
     MC_CAP % (MAX_MC_SAMPLES + 1, MAX_MC_SAMPLES)),
    (SG_MC + ["--samples", "1000000000000"], MC_CAP % (10**12, MAX_MC_SAMPLES)),
    (AEP + [str(MAX_MC_SAMPLES + 1)], MC_CAP % (MAX_MC_SAMPLES + 1, MAX_MC_SAMPLES)),
    (["entropy", "--gaussian", "0,1", "--aep-samples", str(MAX_MC_SAMPLES + 1)],
     MC_CAP % (MAX_MC_SAMPLES + 1, MAX_MC_SAMPLES)),
])
def test_mc_sample_count_checked_before_drawing(capsys, monkeypatch, argv, message):
    # Every generator is refused: a count past the checks reaches it and
    # exits 2 with DRAWN, so the largest admitted count costs no draw.
    import numpy as np

    def refuse(*args, **kwargs):
        raise ValueError(DRAWN)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_random_distribution_symbol_cap_exits_two(capsys):
    # 2**40 symbols would need 8 TiB of weights: refused before any is drawn.
    code, out, err = run_cli(capsys, "entropy", "--random", "2", "--alphabet-power", "40")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds MAX_SYMBOLS" in err


@pytest.mark.parametrize("argv,limit", [
    (["--weights", "1/2,1/2"], "the 2 weights given"),
    (["--random", "2"], "MAX_SYMBOLS = 1048576"),
])
def test_alphabet_power_refused_from_bit_lengths(capsys, argv, limit):
    # 2**1000000000 is never formed: the refusal takes well under a second.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "entropy", *argv, "--alphabet-power", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: --alphabet-power 1000000000: an alphabet of 2**1000000000 "
                   "symbols exceeds %s\n" % limit)


def test_phi_dimension_cap(capsys):
    rep = run_json(capsys, "phi", "--n", str(MAX_PHI_DIM), "--assert-bounds")
    assert rep["n"] == MAX_PHI_DIM and rep["matches_closed_form"] is True
    code, out, err = run_cli(capsys, "phi", "--n", str(MAX_PHI_DIM + 1))
    assert (code, out, err) == (2, "", "error: dimension %d exceeds MAX_PHI_DIM = %d\n"
                                % (MAX_PHI_DIM + 1, MAX_PHI_DIM))


SG1 = ["semigroup", "--variances", "1", "--points=1"]


@pytest.mark.parametrize("argv,message", [
    (["semigroup", "--variances", "inf", "--points=1"], "variances must be finite"),
    (["semigroup", "--variances", "nan", "--points=1"], "variances must be finite"),
    (SG1 + ["--time", "inf"], "time must be finite"),
    (SG1 + ["--time", "nan"], "time must be finite"),
    (SG1 + ["--contract", "--time", "-1"], "time must be nonnegative"),
    (SG1 + ["--contract", "--time", "inf"], "time must be finite"),
    (SG1 + ["--compose", "0.5,inf", "--assert-bounds"], "both times must be finite"),
    (SG1 + ["--compose", "nan,0.5"], "both times must be finite"),
    (["entropy", "--gaussian", "0,inf"], "variance must be finite, got inf"),
    (["entropy", "--gaussian", "nan,1"], "mean must be finite, got nan"),
    (["entropy", "--gaussian", "inf,1"], "mean must be finite, got inf"),
    (["entropy", "--gaussian", "0,nan"], "variance must be finite, got nan"),
    # Each case keeps the name it had when the message read "... must be finite, got ...".
    pytest.param(["semigroup", "--variances", "1", "--points=nan", "--compose", "0.5,0.5",
                  "--assert-bounds"], "query point [0, 0] is nan, not finite",
                 id="argv12-query points must be finite, got nan"),
    pytest.param(["semigroup", "--variances", "1", "--points=0;inf", "--compose", "0.5,0.5",
                  "--method", "mc"], "query point [1, 0] is inf, not finite",
                 id="argv13-query points must be finite, got inf"),
    pytest.param(["semigroup", "--variances", "1", "--points=nan"],
                 "query point [0, 0] is nan, not finite",
                 id="argv14-query points must be finite, got nan"),
    pytest.param(["semigroup", "--variances", "1", "--points=nan", "--method", "mc"],
                 "query point [0, 0] is nan, not finite",
                 id="argv15-query points must be finite, got nan"),
    pytest.param(["semigroup", "--variances", "1,1", "--correlations", "0.3",
                  "--points=0,0;1,-inf", "--time", "0"],
                 "query point [1, 1] is -inf, not finite",
                 id="argv16-query points must be finite, got -inf"),
    pytest.param(["semigroup", "--variances", "1", "--contract", "--window", "inf"],
                 "window bound [0] is -inf, not finite",
                 id="argv17-window must be finite, got -inf"),
    pytest.param(["semigroup", "--variances", "1", "--contract", "--window", "nan"],
                 "window bound [0] is nan, not finite",
                 id="argv18-window must be finite, got nan"),
    pytest.param(["semigroup", "--variances", "1", "--contract", "--window", "1e308"],
                 "bound or width of the window widened by 8 kernel standard deviations "
                 "[2] is inf, not finite",
                 id="argv19-the bounds and width of the window widened by 8 kernel "
                    "standard deviations must be finite, got inf"),
])
def test_non_finite_gaussian_parameters_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tol_exits_two(capsys, tol):
    code, out, err = run_cli(capsys, "semigroup", "--variances", "1", "--compose", "0.5,0.5",
                             "--points=0", "--tol", tol, "--assert-bounds")
    assert (code, out) == (2, "")
    assert err == "error: tol must be finite and nonnegative, got %r\n" % float(tol)


@pytest.mark.parametrize("extra", [[], ["--compose", "0.5,0.5"], ["--method", "mc"]])
def test_wave_at_a_huge_point_is_zero(capsys, extra):
    # exp(-x^2/4) is 0 there, so the closed form is 0 to double precision,
    # though x^2 and 2x overflow and cos(2x) is not finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "semigroup", "--variances", "1", "--function", "wave",
                                 "--points=1e308;-1e308;1e200", *extra)
    assert code == 0 and err == ""
    assert "nan" not in out


# ---------------------------------------------------------------------------
# Edge-value sweep: no traceback, no unnamed refusal, no NaN in a report
# ---------------------------------------------------------------------------

EDGE_VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "1e-320", "-0", "0",
               "-1", "1/0", "0/0", "", "2", "3/2", "0.5", "1e9"]

# One argv per subcommand and mode.  Each "--name=value" item is an option
# that the sweep sets to every edge value in turn; the "=" form hands values
# such as "-inf" to the option, not to argparse.  verify-all sweeps --budget
# only, and may also exit 4 (budget exceeded).
EDGE_BASES = {
    "entropy-order": ["entropy", "--weights=1/2,1/4,1/4", "--order=2", "--base=3"],
    "entropy-divergence": ["entropy", "--weights=3/4,1/4", "--other=1/2,1/2",
                           "--order=0.5", "--base=2"],
    "entropy-random-aep": ["entropy", "--random=6", "--alphabet-power=1",
                           "--aep-samples=1000", "--order=1", "--seed=3"],
    "entropy-gaussian": ["entropy", "--gaussian=0,1", "--aep-samples=500", "--seed=1"],
    "lhl": ["lhl", "--q=2", "--m=2", "--k=1", "--family=toeplitz",
            "--weights=1/2,1/4,1/8,1/8", "--h-plus=1/2", "--assert-bounds"],
    "quantum-lhl": ["quantum-lhl", "--q=2", "--m=2", "--k=1", "--family=linear",
                    "--dim-q=2", "--seed=3"],
    "phi": ["phi", "--n=3", "--assert-bounds"],
    "markov": ["markov", "--rows=1/2,1/2;1/3,2/3", "--state=1", "--terms=4"],
    "semigroup-apply": ["semigroup", "--variances=1,0.5", "--correlations=0.3",
                        "--function=wave", "--time=0.5", "--points=0.5,-1;1,2",
                        "--nodes=8"],
    "semigroup-compose": ["semigroup", "--variances=0.8", "--function=gauss",
                          "--method=mc", "--compose=0.3,0.5", "--points=-1;0.5",
                          "--samples=500", "--seed=2", "--tol=1e-6"],
    "semigroup-contract": ["semigroup", "--variances=1", "--function=bump", "--contract",
                           "--window=3", "--time=0.4", "--nodes=10"],
    "treesim-path": ["treesim", "--dim=2", "--eta=4", "--reps=3", "--rep=1",
                     "--mode=paper-literal", "--keep-eta=2", "--seed=1"],
    "treesim-stats": ["treesim", "--dim=1", "--eta=4", "--reps=20", "--stats",
                      "--mode=standard", "--seed=0"],
    "verify-all": ["verify-all", "--filter", "pgm-success-table", "--json", "--budget=300"],
}


def run_main(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", sorted(EDGE_BASES))
def test_edge_values_exit_cleanly_without_nan(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)  # a value read as a file name names no file
    base = EDGE_BASES[name]
    assert run_main(capsys, base)[0] in (0, 3)
    for i, item in enumerate(base):
        if "=" not in item:
            continue
        option = item.split("=", 1)[0]
        for value in EDGE_VALUES:
            argv = base[:i] + ["%s=%s" % (option, value)] + base[i + 1:]
            code, out, err = run_main(capsys, argv)
            assert code in (0, 2, 3) or (name, code) == ("verify-all", 4), (argv, code, err)
            if code == 2:
                lines = err.splitlines()
                assert lines and [n for n, line in enumerate(lines)
                                  if "error:" in line] == [len(lines) - 1], (argv, err)
            if code == 0:
                assert not re.search(r"\bnan\b", out, re.I), (argv, out)
