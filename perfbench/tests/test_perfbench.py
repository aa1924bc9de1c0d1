"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import checks, gen, measure, run, tracer  # noqa: E402
from qwebs.cli import main as cli_main  # noqa: E402


def cli_output(argv) -> str:
    _, _, rc, text, error = measure.run_op(cli_main, argv, [])
    assert rc == 0, error
    return text


# -- spans ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 5.0, 9.0, 0, 0),
        ("d", 6.0, 7.0, 2, 0),
    ]
    assert tracer.self_times(spans) == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert sum(tracer.self_times(spans).values()) == 10.0


def test_inclusive_time_counts_nested_same_name_once():
    spans = [
        ("f", 0.0, 8.0, -1, 0),
        ("g", 1.0, 7.0, 0, 0),
        ("f", 2.0, 5.0, 1, 0),
        ("f", 9.0, 10.0, -1, 1),
    ]
    assert tracer.inclusive_times(spans) == {"f": 9.0, "g": 6.0}


def test_tracer_records_parents_and_counts():
    t = tracer.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = t.spanned("inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    assert t.spanned("outer", outer)(3) == 8
    names = [(s[0], s[3]) for s in t.spans]
    assert names == [("outer", -1), ("inner", 0)]
    assert t.counts["outer_calls"] == 1 and t.counts["inner_calls"] == 1
    assert all(s[2] >= s[1] for s in t.spans)


def test_install_wraps_every_reference_and_uninstall_restores():
    import qwebs.cli
    import qwebs.webalg

    before = qwebs.cli.cartan_matrix
    t = tracer.Tracer()
    t.install()
    try:
        assert qwebs.cli.cartan_matrix is qwebs.webalg.cartan_matrix
        assert qwebs.cli.cartan_matrix.__wrapped__ is before
        cli_output(["cartan", "--N", "2", "--k", "1,1,1,1"])
    finally:
        t.uninstall()
    assert qwebs.cli.cartan_matrix is before
    # cmd_cartan and frobenius_check each compute the matrix once
    assert t.counts["webalg.cartan_matrix_calls"] == 2
    assert t.counts["cli.emit_calls"] >= 1
    metrics = tracer.layer_metrics(t.spans, t.counts)
    assert [m for m, *_ in tracer.LAYER_METRICS] == list(metrics)
    assert metrics["webs.web_form_calls"]["value"] > 0
    assert metrics["verify.howe_s"]["value"] == 0


# -- percentiles ------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert measure.percentile(values, 0.5) == 5
    assert measure.percentile(values, 0.9) == 9
    assert measure.percentile([7.0], 0.9) == 7.0
    assert measure.percentile(list(reversed(values)), 0.9) == 9
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


def test_ten_beyond_p90_needs_a_hundred_samples():
    assert measure.beyond(100, 0.9) == 10
    assert measure.beyond(99, 0.9) == 9
    assert measure.beyond(162, 0.9) == 16


@pytest.mark.parametrize("workload", ["cartan", "dual"])
def test_minimum_passes_leave_ten_beyond_p90(workload):
    n = len(gen.op_list(workload, 1)) * run.MIN_PASSES
    assert measure.beyond(n, run.P90) >= 10


# -- the seeded generator ---------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    assert gen.op_list(workload, 5) == gen.op_list(workload, 5)
    assert gen.op_list(workload, 5) != gen.op_list(workload, 6)


@pytest.mark.parametrize("workload,classes", [("cartan", gen.CARTAN_CLASSES),
                                              ("dual", gen.DUAL_CLASSES)])
def test_every_seed_runs_the_same_strata(workload, classes):
    want = sum(min(count, len(gen.orbit(N, l, c))) for N, l, c, count in classes)
    for seed in range(4):
        ops = gen.op_list(workload, seed)
        assert len(ops) == want
        for argv in ops:
            k = tuple(int(x) for x in argv[argv.index("--k" if workload == "cartan" else "--type") + 1].split(","))
            N = int(argv[argv.index("--N") + 1])
            assert len(k) % N == 0 and sum(k) == len(k) and max(k) <= N


def test_sample_orbit_spreads_over_the_orbit():
    import random

    weights = list(range(100))
    picks = gen.sample_orbit(weights, 4, random.Random(0))
    assert len(picks) == 4 and [p // 25 for p in picks] == [0, 1, 2, 3]
    assert gen.sample_orbit(weights[:3], 4, random.Random(0)) == [0, 1, 2]


# -- output checks ------------------------------------------------------------


def test_cartan_check_accepts_real_output_and_rejects_corruptions():
    text = cli_output(["cartan", "--N", "2", "--k", "1,1,1,1"])
    assert checks.check_cartan(text) == []
    good = json.loads(text)

    def corrupt(edit):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)

    entries = good["cartan"]["entries"]
    assert len(entries) == 2 and entries[0][1] != [[0, 0]]
    assert checks.check_cartan(corrupt(lambda p: p["cartan"]["entries"][0].__setitem__(
        1, [[e + 1, c] for e, c in entries[0][1]])))
    assert checks.check_cartan(corrupt(lambda p: p["cartan"]["entries"][0][0].append([5, -1])))
    assert checks.check_cartan(corrupt(lambda p: p.__setitem__(
        "gorenstein_parameter", good["gorenstein_parameter"] + 2)))
    assert checks.check_cartan(corrupt(lambda p: p["frobenius"].__setitem__("passed", False)))
    assert checks.check_cartan(corrupt(lambda p: p["frobenius"].__setitem__(
        "total_dimension", [[0, 1]])))


def test_dual_check_accepts_real_output_and_rejects_corruptions():
    text = cli_output(["dual-canonical", "--N", "3", "--l", "2", "--type", "1,1,1,1,1,1"])
    assert checks.check_dual(text) == []
    payload = json.loads(text)
    assert any(e["beta"] for e in payload)

    def corrupt(edit):
        p = json.loads(text)
        edit(p)
        return json.dumps(p)

    def lead_term(p):
        e = p[0]
        return next(t for t in e["expansion"]["terms"] if t["rows"] == e["tableau"]["rows"])

    def other_term(p):
        for e in p:
            for t in e["expansion"]["terms"]:
                if t["rows"] != e["tableau"]["rows"]:
                    return t
        raise AssertionError("no non-leading term")

    def first_beta(p):
        return next(b for e in p for b in e["beta"])

    assert checks.check_dual(corrupt(lambda p: lead_term(p).__setitem__("coeff", [[0, 2]])))
    assert checks.check_dual(corrupt(lambda p: other_term(p).__setitem__("coeff", [[0, 1]])))
    assert checks.check_dual(corrupt(lambda p: first_beta(p).__setitem__("coeff", [[1, 1]])))
    assert checks.check_dual("[]")


def test_verify_check_rejects_failures_and_vacuous_passes():
    good = [{"name": "x", "passed": True, "cases": 3, "failures": []}]
    assert checks.check_verify(json.dumps(good)) == []
    assert checks.check_verify(json.dumps([dict(good[0], cases=0)]))
    assert checks.check_verify(json.dumps([dict(good[0], passed=False, failures=["f"])]))
    assert checks.check_verify("[]")


def test_run_counts_failed_ops_and_digest_mismatches():
    argv = ["cartan", "--N", "2", "--k", "1,1,1,1"]
    text = cli_output(argv)
    key = " ".join(argv)
    digests = {"cartan": {key: checks.digest(text)}}
    r = run.Run("cartan", cli_main, [], digests)
    _, items = r.op(argv)
    assert items == 4 and r.failures == [] and r.attempted == 1

    def printing(payload, rc=0):
        def fake_main(argv):
            print(payload)
            return rc
        return fake_main

    bad = run.Run("cartan", printing(text.replace("true", "false")), [], digests)
    bad.op(argv)
    assert len(bad.failures) == 1

    changed = json.loads(text)
    changed["extra"] = 1
    drift = run.Run("cartan", printing(json.dumps(changed)), [], digests)
    drift.op(argv)
    assert drift.failures and "digest" in drift.failures[0]

    exits = run.Run("cartan", printing(text, rc=3), [], digests)
    exits.op(argv)
    assert exits.failures and "exit 3" in exits.failures[0]


# -- the contract file ----------------------------------------------------------


def test_benchmark_json_names_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m, u) for m, u, *_ in tracer.LAYER_METRICS]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
