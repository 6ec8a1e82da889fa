"""qpiverify's benchmark: time to verdict of one sweep, per workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each sweep runs in a fresh worker process (``worker.py``), like one CLI
sweep with ``--jobs 1``.  A run of one workload makes one whole sweep, then
more sweeps until its measuring budget is used; the last one stops at the
budget, part way through the cases.  Each case's time is its median over
the sweeps that ran it.  The budget is ``run_seconds`` in BENCHMARK.json;
``--seconds`` overrides it.  Every outcome is checked by ``oracle.py``.

Times are reported in reference seconds (``speed.py``): each case's
measured time, scaled by the speed the machine ran a fixed probe at while
the case ran.  The measured times are printed and recorded beside them.

With ``--trace 0`` the run also starts the interpreter several times just to
import qpiverify, and reports the end-to-end metrics.  With ``--trace 1`` it
runs one untraced and one traced sweep and reports per-layer calls, self
time and counters from the spans, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Result records and
span files go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases as case_lists
import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Interpreter starts per --trace 0 run that only import qpiverify, on top of
#: the one each sweep makes; setup_s is the median of all of them.
SETUP_SAMPLES = 7

#: A run starts no further sweep with less of its budget left than this.
MIN_LEFT_S = 1.0

#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170

#: Cases that must lie beyond the tail percentile.
TAIL_CASES = 10


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in declared()["per_layer" if trace else "end_to_end"]}


def spawn(job: dict) -> dict:
    """Run worker.py on one job and return its report, with ``setup_s`` (from
    the spawn to the end of ``import qpiverify``), the same in reference
    seconds as ``setup_ref_s``, and ``process_s``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    process_s = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["ready"] - started
    report["setup_ref_s"] = report["setup_s"] * report["setup_scale"]
    report["process_s"] = process_s
    return report


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_CASES cases beyond it, and its value."""
    ranked = sorted(times)
    n = len(ranked)
    if n <= TAIL_CASES:
        return 0.0, ranked[0]
    return 100 * (n - TAIL_CASES) / n, ranked[n - TAIL_CASES - 1]


def end_to_end(sweeps: list[dict], setups: list[float], key: str = "case_ref_s") -> dict:
    """The end-to-end metrics of a run, from each case's median time (under
    ``key``) over the sweeps that ran it.  ``wall_s`` is the sum of those
    medians; the first sweep runs every case."""
    case_ms = [
        statistics.median(s[key][i] for s in sweeps if i < len(s[key])) * 1000 for i in range(len(sweeps[0][key]))
    ]
    whole = [s for s in sweeps if len(s[key]) == len(sweeps[0][key])]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(case_ms) / 1000,
        "case_p50_ms": statistics.median_low(case_ms),
        "case_tail_ms": tail(case_ms)[1],
        "case_max_ms": max(case_ms),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in whole),
    }


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, trace: bool, seconds: float | None = None) -> dict:
    """One run of a workload: its sweeps, the oracle's verdicts and the
    metrics.  ``seconds`` defaults to BENCHMARK.json's run_seconds."""
    if seconds is None:
        seconds = declared()["run_seconds"]
    cases = case_lists.build_cases(workload, seed)
    # Compiles the bytecode on the first run in a checkout; not measured.
    first = spawn({"setup_only": True})
    setups = [] if trace else [spawn({"setup_only": True}) for _ in range(SETUP_SAMPLES)]
    sweeps = []
    started = time.monotonic()
    while True:
        left = seconds - (time.monotonic() - started)
        if sweeps and (trace or left < MIN_LEFT_S):
            break
        report = spawn({"cases": cases, "trace": False, "stop_after_s": left if sweeps else None})
        sweeps.append(report)
        setups.append(report)
    measured_s = time.monotonic() - started
    runs = [(report, oracle.check(cases[: len(report["records"])], report["records"])) for report in sweeps]

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": first["python"],
        "mpmath": first["mpmath"],
        "mpmath_backend": first["backend"],
        "cpu_count": os.cpu_count(),
        "cases": len(cases),
        "sweeps": len(sweeps),
        "cases_per_sweep": [len(report["records"]) for report in sweeps],
        "measured_s": measured_s,
    }
    if trace:
        spans_path = OUT / f"{stem}.spans.json"
        traced = spawn({"cases": cases, "trace": True, "spans": str(spans_path)})
        runs.append((traced, oracle.check(cases, traced["records"])))
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        metrics = tracer.layer_metrics(spans, traced["counts"])
        # Two sweeps in two processes: at this run length, machine drift
        # outweighs the cost of tracing, so this can read negative.
        metrics["trace.overhead_s"] = traced["wall_s"] - sweeps[0]["wall_s"]
        covered = sum(end - start for name, start, end, parent, _ in spans if parent < 0)
        # Each case's root span lies inside the region that times the case,
        # so the root spans cover the traced sweep's wall time, up to the
        # cost of opening a root span.
        result["root_span_gap_s"] = covered - traced["wall_s"]
        result["misnested_spans"] = tracer.misnested(spans)
        result["trace_consistent"] = (
            abs(result["root_span_gap_s"]) <= 0.01 * traced["wall_s"] + 0.005 and not result["misnested_spans"]
        )
        result["shares_by_group"] = tracer.shares_by_group(spans, [c["group"] for c in cases])
    else:
        metrics = end_to_end(sweeps, [report["setup_ref_s"] for report in setups])
        result["measured"] = end_to_end(sweeps, [report["setup_s"] for report in setups], "case_s")
        result["tail_percentile"] = tail(sweeps[0]["case_s"])[0]
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    wrong = [
        {"case": cases[i]["id"], "why": why}
        for _, verdicts in runs
        for i, why in enumerate(verdicts)
        if why is not None
    ]
    attempted = sum(len(verdicts) for _, verdicts in runs)
    result.update(
        attempted=attempted,
        failed=len(wrong),
        wrong_verdict_ratio=len(wrong) / attempted,
        wrong=wrong,
        sweep_walls=[report["wall_s"] for report in sweeps],
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    )
    result["correct"] = not wrong and result.get("trace_consistent", True)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


def print_result(result: dict) -> None:
    w = result["workload"]
    env = {k: result[k] for k in ("seed", "git_sha", "python", "mpmath", "mpmath_backend", "cpu_count")}
    ran = "+".join(str(n) for n in result["cases_per_sweep"])
    print(f"{w}: {result['cases']} cases, {ran} run in {result['sweeps']} sweep(s) in {result['measured_s']:.1f} s  env {json.dumps(env)}")
    measured = result.get("measured", {})
    for name, metric in result["metrics"].items():
        also = f"  (measured {measured[name]:.6g})" if name in measured and name != "peak_rss_mb" else ""
        print(f"{w}  {name} = {metric['value']:.6g} {metric['unit']}{also}")
    print(f"{w}  wrong_verdict_ratio = {result['wrong_verdict_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    if "tail_percentile" in result:
        print(f"{w}  case_tail_ms is p{result['tail_percentile']:.1f} of {result['cases']} cases")
    for group, shares in result.get("shares_by_group", {}).items():
        top = ", ".join(f"{name} {share:.0%}" for name, share in list(shares.items())[:4])
        print(f"{w}  self-time shares [{group}]: {top}")
    if "trace_consistent" in result:
        print(f"{w}  root spans minus the traced sweep's wall time = {result['root_span_gap_s']:.4f} s")
        print(f"{w}  spans outside their parent or outside a case: {result['misnested_spans']}")
    for item in result["wrong"][:20]:
        print(f"{w}  WRONG {item['case']}: {item['why']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + case_lists.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring budget of one workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qpiverify" / "__init__.py").is_file():
        print(f"run.py: no qpiverify sources under {SRC}", file=sys.stderr)
        return 2
    workloads = case_lists.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        results.append(run_workload(workload, args.seed, bool(args.trace), args.seconds))
        print_result(results[-1])
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
