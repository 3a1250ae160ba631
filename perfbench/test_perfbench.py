"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench -q"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from mpmath import mpf  # noqa: E402

import dunkldyn  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dunkldyn import construct, dunkl, growth  # noqa: E402


def nested_spans():
    """root [0, 10] > a [1, 3], b [4, 9] > c [5, 6], d [6.5, 8] > e [7, 7.5]."""
    s = tracing.Spans()
    root = s.add("cli.means", 0.0, 10.0, -1)
    s.add("series.read_series", 1.0, 3.0, root)
    b = s.add("cli.run", 4.0, 9.0, root)
    s.add("means.mean_p.p1", 5.0, 6.0, b)
    d = s.add("means.mean_p.p1", 6.5, 8.0, b)
    s.add("numeric.to_decimal", 7.0, 7.5, d)
    return s


def test_self_time_subtracts_direct_children():
    assert tracing.self_times(nested_spans()) == [3.0, 2.0, 2.5, 1.0, 1.0, 0.5]


def test_profile_sums_by_name_and_cli_self_time():
    raw = tracing.profile(nested_spans())
    assert raw["means.mean_p.p1.calls"] == 2
    assert raw["means.mean_p.p1.self_s"] == 2.0
    assert raw["means.mean_p.p1.dur_s"] == 2.5
    assert raw["cli.means.dur_s"] == 10.0
    # main time not covered by library spans: root self 3 + cli.run self 2.5
    assert raw["cli.self_s"] == 5.5
    values = tracing.layer_values(raw)
    assert values["means.mean_p.calls.p1"] == 2
    assert values["cli.means.s"] == 10.0
    assert values["numeric.to_decimal.self_s"] == 0.5


def test_combine_adds_setup_to_mean_pass():
    setup = {"dunkl.DunklWeights.calls": 2.0, "construct.frequency_report.dense_mb": 1.0}
    passes = [{"dunkl.DunklWeights.calls": 4.0, "construct.frequency_report.dense_mb": 3.0},
              {"dunkl.DunklWeights.calls": 6.0, "construct.frequency_report.dense_mb": 3.0}]
    out = tracing.combine(setup, passes)
    assert out["dunkl.DunklWeights.calls"] == 7.0
    assert out["construct.frequency_report.dense_mb"] == 3.0


def test_scan_steps_by_hand():
    # fillers end at 7, so block 1 may start at 8 and lands at 10: 3 probes;
    # block 2 may start after 10 + deg 0: 11..15 is 5 probes; block 3 after
    # 15 + deg 1: 17..20 is 4 probes
    plan = construct.ConstructionPlan(
        targets=((F(1),), (F(0), F(1)), (F(2),)),
        indices=(None, None, None),
        positions=(10, 15, 20),
        budgets=(mpf("0.5"), mpf("0.25"), mpf("0.125")),
        alpha=mpf(0),
        trunc_degree=64,
        r_build=2.0,
        filler_degrees=(4, 7),
        filler_coeffs=(mpf(1), mpf(1)),
    )
    assert tracing.scan_steps(plan) == 12


def test_traced_build_counts_scan_steps_and_restores():
    # the single-block golden build (tests/test_construct.py) lands at 144
    # with no fillers, so the scan probes positions 1..144
    original = construct.build_hypercyclic
    spans = tracing.Spans()
    undo = tracing.install(dunkldyn, spans)
    try:
        assert dunkldyn.build_hypercyclic is construct.build_hypercyclic is not original
        w = dunkl.DunklWeights(0, 4096)
        cfg = construct.BuilderConfig(targets=[(F(1),)], saturate_envelope=False)
        construct.build_hypercyclic(w, growth.RateEnvelope.log_growth(), 1, cfg)
    finally:
        tracing.uninstall(undo)
    assert construct.build_hypercyclic is original
    assert dunkldyn.build_hypercyclic is original
    values = tracing.layer_values(tracing.profile(spans))
    assert values["construct.build_hypercyclic.calls"] == 1
    assert values["construct.build_hypercyclic.scan_steps"] == 144
    assert values["construct.build_hypercyclic.accept_ratio"] == 1 / 144
    assert values["dunkl.DunklWeights.calls"] == 1


def test_mean_route():
    assert [tracing.mean_route(p) for p in (mpf(1), mpf(2), mpf("inf"), mpf("1.5"))] == [
        "p1", "p2", "pinf", "pother"]


def test_compare_tolerance_and_exact_values():
    ref = {"positions": [361, 420],
           "M_p": workloads.Approx.of(["1.5"], 1e-12).to_json()}
    workloads.compare({"positions": [361, 420],
                       "M_p": workloads.Approx.of(["1.5000000000001"], 1e-12)}, ref)
    with pytest.raises(workloads.Mismatch):
        workloads.compare({"positions": [361, 421], "M_p": ["1.5"]}, ref)
    with pytest.raises(workloads.Mismatch):
        workloads.compare({"positions": [361, 420], "M_p": ["1.50001"]}, ref)


def test_failures_are_counted_and_the_pass_continues():
    def boom():
        raise RuntimeError("broken")

    jobs = [workloads.Job("raises", boom, lambda out: {}),
            workloads.Job("wrong", lambda: 2, lambda out: {"x": out}),
            workloads.Job("fine", lambda: 1, lambda out: {"x": out})]
    reference = {"raises": {}, "wrong": {"x": 1}, "fine": {"x": 1}}
    tally = measure.Tally()
    measure.run_pass(jobs, reference, tally, {})
    assert tally.attempted == 3
    assert [r.split(":")[0] for r in tally.reasons] == ["raises", "wrong"]
    assert tally.error_rate == 2 / 3


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_job_list_time_sums_normalised_job_medians():
    ref = measure.CAL_REF_S
    S = measure.Sample
    times = {
        # normalised 1, 2, 9: a calibration twice as slow halves the 4 s pass
        "a": [S(1.0, 1.0, ref, ref), S(4.0, 4.0, 2 * ref, 2 * ref), S(9.0, 9.0, ref, ref)],
        "b": [S(0.5, 0.4, ref / 2, ref)],
    }
    assert measure.job_list_seconds(times) == (3.0, 2.4)


def test_timed_returns_the_exception_and_chains_calibrations():
    def boom():
        raise RuntimeError("broken")

    result, error, sample, after = measure.timed(boom)
    assert result is None and isinstance(error, RuntimeError)
    _, _, next_sample, _ = measure.timed(lambda: None, after)
    assert next_sample.cal_wall > 0 and sample.cal_wall > 0
