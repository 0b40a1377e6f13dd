"""Self-tests for the benchmark harness: metric names, tracing, oracles."""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_declared_lists_match_the_harness():
    end_to_end, per_layer = declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert all(NAME.fullmatch(n) for n in list(end_to_end) + list(per_layer))


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_are_declared(trace, capsys):
    result = run.run_workload("cli-desk", seed=3, seconds=0.01, trace=trace)
    end_to_end, per_layer = declared()
    expected = per_layer if trace else end_to_end
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == expected[name]
    assert result["correct"] and result["attempted"] >= 13
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("  environment: ")


def _bindings():
    out = {}
    for key, module in sys.modules.items():
        if key == "kdcheck" or key.startswith("kdcheck."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(key, attr)] = value
    return out


def test_wrappers_restore_the_original_functions():
    import kdcheck
    from kdcheck import entropy, quadrature, quantum, semigroup, verify
    before = _bindings()
    checks = verify.CHECKS
    original = quadrature.tensor_rule
    with tracer.Tracer():
        # Every namespace that imported the function sees the wrapper.
        for ns in (quadrature, semigroup, entropy):
            assert ns.tensor_rule is not original
            assert ns.tensor_rule.__traced__ is original
        assert quantum.lhl_bound is kdcheck.hashing.lhl_bound
        assert hasattr(quantum.lhl_bound, "__traced__")
        assert kdcheck.apply.__traced__ is semigroup.apply.__traced__
        assert all(hasattr(c.fn, "__traced__") for c in verify.CHECKS)
    assert verify.CHECKS is checks
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_never_exceeds_span_duration():
    S = tracer.Span
    spans = [S(0, None, "a", 0.0, 10.0), S(1, 0, "b", 1.0, 4.0),
             S(2, 0, "c", 3.0, 6.0), S(3, 2, "d", 3.5, 5.0),
             S(4, None, "e", 20.0, 21.0)]
    own = tracer.self_times(spans)
    assert own == pytest.approx([5.0, 3.0, 1.5, 1.5, 1.0])
    # Real spans from a traced call.
    from kdcheck import hashing
    from kdcheck.core import Alphabet, FiniteDistribution
    family = hashing.build_family("linear", 2, 2, 1)
    with tracer.Tracer() as tr:
        hashing.lhl_report(FiniteDistribution.uniform(Alphabet(2, 2)), family)
    assert len(tr.spans) >= 4
    for span, own in zip(tr.spans, tracer.self_times(tr.spans)):
        assert 0.0 <= own <= span.end - span.start
    assert tracer.calls_under(tr.spans, "hashing.joint_state", "hashing.lhl_report") == 2


def _op(ops, name):
    return next(op for op in ops if op.name == name)


def test_injected_wrong_expected_value_is_a_failure(tmp_path):
    ops = workloads.cli_desk_ops(5, tmp_path)
    phi = _op(ops, "phi")
    good = workloads.run_pass([phi])
    assert good.verdicts == {"phi": []}
    wrong_value = workloads.Op("phi", phi.run, workloads._cli_check(
        "phi", 0, workloads._judge_phi("36/49")))
    wrong_code = workloads.Op("phi", phi.run, workloads._cli_check("phi", 3))
    for op in (wrong_value, wrong_code):
        log = workloads.run_pass([op])
        assert len(log.verdicts["phi"]) == 1
        counts = run.tally([log])
        assert (counts["attempted"], counts["failed"]) == (1, 1)
        assert counts["unexpected"] == ["phi"]
    assert log.observations["cli.exit_code_mismatch"] == 1


def test_exact_routes_compare_with_equality(tmp_path):
    log = workloads.PassLog()
    log.results["lhl-report-2-8-3"] = {"distance": Fraction(1, 3)}
    check = _op(workloads.hash_scale_ops(0, tmp_path), "trivial-side-register").check
    assert check(Fraction(1, 3), log) == {"trivial-side-register": []}
    assert check(Fraction(1, 3) + Fraction(1, 10**30), log)["trivial-side-register"]


def test_known_defects_are_counted_but_expected(tmp_path):
    ops = workloads.cli_desk_ops(5, tmp_path)
    log = workloads.run_pass([_op(ops, n) for n in workloads.KNOWN_DEFECTS])
    counts = run.tally([log])
    assert set(counts["failing"]) <= set(workloads.KNOWN_DEFECTS)
    assert counts["unexpected"] == []
