"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

#: Largest parameter kept per case kind; every kind stays represented.
SMOKE_LIMITS = {"wz": ("n", 3), "identity": ("n", 5), "intro": ("n", 7), "modsun": ("n", 9), "limit": ("j", 6), "witness": ("n", 13)}


def smoke(case_list):
    keep = []
    for case in case_list:
        limit = SMOKE_LIMITS.get(case["kind"])
        if limit and case[limit[0]] > limit[1]:
            continue
        if case["kind"] == "qgamma" and case["q"] == "1023/1024":
            continue
        keep.append(case)
    return keep


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_every_workload_runs(workload, tmp_path):
    case_list = smoke(cases.build_cases(workload, 5))
    spans_path = tmp_path / "spans.json"
    report = run.spawn({"cases": case_list, "trace": True, "spans": str(spans_path)})
    assert oracle.check(case_list, report["records"]) == [None] * len(case_list)
    metrics = run.end_to_end([report], [report["setup_s"]], "case_s")
    assert all(value > 0 for value in metrics.values())
    assert 0 < report["setup_s"] < report["process_s"]
    spans = json.loads(spans_path.read_text())["spans"]
    assert sum(1 for span in spans if span[3] < 0) == len(case_list)
    assert tracer.misnested(spans) == 0
    layers = tracer.layer_metrics(spans, report["counts"])
    assert all(layers[f"{name}.self_s"] >= 0 for name, *_ in tracer.LAYERS)


def test_untraced_sweep_scales_times_and_stops_at_its_budget():
    case_list = smoke(cases.build_cases("exact-sum", 3))
    whole = worker.sweep(case_list, None)
    assert len(whole["case_s"]) == len(whole["case_ref_s"]) == len(case_list)
    assert all(t > 0 for t in whole["case_s"] + whole["case_ref_s"])
    assert oracle.check(case_list, whole["records"]) == [None] * len(case_list)
    part = worker.sweep(case_list, None, stop_after_s=0)
    assert len(part["records"]) == len(part["case_s"]) == 0
    some = worker.sweep(case_list, None, stop_after_s=1e-4)
    assert 0 < len(some["records"]) == len(some["case_ref_s"]) < len(case_list)


def test_end_to_end_takes_each_case_median_over_the_sweeps_that_ran_it():
    def sweep(times, rss):
        return {"case_ref_s": times, "peak_rss_mb": rss}

    sweeps = [sweep([0.010, 0.002, 0.030], 20.0), sweep([0.012, 0.004], 10.0), sweep([0.014], 11.0)]
    metrics = run.end_to_end(sweeps, [0.2, 0.1, 0.3])
    assert metrics["wall_s"] == pytest.approx(0.012 + 0.003 + 0.030)
    assert metrics["case_max_ms"] == pytest.approx(30)
    assert metrics["case_p50_ms"] == pytest.approx(12)
    assert metrics["setup_s"] == 0.2
    assert metrics["peak_rss_mb"] == 20.0


def test_scale_uses_the_probes_around_a_case():
    sampler = speed.Sampler()
    ref = speed.REFERENCE_PROBE_S
    sampler.samples = [(0.0, ref), (1.0, 1.0 + 2 * ref), (2.0, 2.0 + 4 * ref), (3.0, 3.0 + 4 * ref), (9.0, 9.0 + ref)]
    assert sampler.scale(1.1, 1.9) == pytest.approx(0.375)
    assert sampler.scale(1.1, 2.9) == pytest.approx(1 / 3)
    assert sampler.scale(5.0, 5.1) == pytest.approx(0.625)
    assert sampler.probe_time(0.5, 2.5) == pytest.approx(6 * ref)
    with sampler.running():
        time.sleep(0.25)
    assert len(sampler.samples) >= 6


def _outcome(case):
    records = [worker.record(case, worker.run_case(case))]
    worker.add_numeric_sides([case], records)
    return records[0]


def test_oracle_catches_a_wrong_verdict():
    case = {"id": "wz J2 n=2 k=1", "kind": "wz", "group": "wz", "pair": "J2", "n": 2, "k": 1}
    rec = _outcome(case)
    assert oracle.check([case], [rec]) == [None]
    assert oracle.check([case], [dict(rec, passed=False)]) != [None]
    assert oracle.check([case], [{"error": "ValueError: planted"}]) != [None]
    numeric = {"id": "numeric", "kind": "numeric", "group": "numeric", "which": "A1", "q": "1/3", "digits": 30}
    rec = _outcome(numeric)
    assert oracle.check([numeric], [rec]) == [None]
    assert oracle.check([numeric], [dict(rec, diff="1e-20")]) != [None]
    for side in ("lhs", "rhs"):
        off = str(mpmath.mpf(rec[side]) + mpmath.mpf(10) ** -25)
        assert oracle.check([numeric], [dict(rec, **{side: off})]) != [None]


def test_oracle_catches_a_bad_witness():
    case = {"id": "witness n=11 fail", "kind": "witness", "group": "witness-fail", "n": 11, "c": -4, "j": 7}
    rec = _outcome(case)
    assert oracle.check([case], [rec]) == [None]
    w_num, w_den = rec["witness"]
    m = oracle._mul(oracle.cyclotomic(11), oracle.cyclotomic(11))
    off_by_one = [str(Fraction(w_num[0]) + 1)] + w_num[1:]
    plus_m = [str(v) for v in oracle._sub([Fraction(c) for c in w_num], [-c for c in m])]
    for bad in (off_by_one, plus_m, []):
        assert oracle.check([case], [dict(rec, witness=[bad, w_den])]) != [None]
    assert oracle.check([case], [dict(rec, passed=True, witness=None)]) != [None]


def _traced_counts(workload, seed):
    case_list = smoke(cases.build_cases(workload, seed))
    t = tracer.Tracer()
    with t.installed():
        worker.sweep(case_list, t)
    layers = tracer.layer_metrics(t.spans, t.counts)
    return len(case_list), {k: v for k, v in layers.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", cases.WORKLOADS[:3])
def test_seeds_change_neither_case_count_nor_work(workload):
    assert _traced_counts(workload, 1) == _traced_counts(workload, 2)


def test_misnested_spans_are_caught():
    root = ("check", 0.0, 1.0, -1, 0)
    assert tracer.misnested([root, ("polys.poly_gcd", 0.2, 0.5, 0, 0)]) == 0
    assert tracer.misnested([root, ("polys.poly_gcd", 0.2, 1.5, 0, 0)]) == 1
    assert tracer.misnested([root, ("polys.poly_gcd", 0.2, 0.5, 0, 1)]) == 1
    assert tracer.misnested([root, ("polys.poly_gcd", 2.0, 2.5, -1, -1)]) == 1


def test_tracing_is_removed_on_exit():
    import qpiverify.congruences
    import qpiverify.factored

    before = qpiverify.congruences.sum_terms
    with tracer.Tracer().installed():
        assert qpiverify.congruences.sum_terms is not before
        assert qpiverify.factored.FactoredSum.to_ratfunc.__wrapped__ is not None
    assert qpiverify.congruences.sum_terms is before is qpiverify.factored.sum_terms
    assert not hasattr(qpiverify.factored.FactoredSum.to_ratfunc, "__wrapped__")


def test_missing_program_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "exact-sum"]) != 0
    assert capsys.readouterr().out == ""
