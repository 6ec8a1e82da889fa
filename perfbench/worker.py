"""One sweep of benchmark cases in a fresh process, as one CLI sweep runs.

Reads a job from stdin: ``{"cases": [...], "trace": bool, "spans": path,
"stop_after_s": seconds or null}``, or ``{"setup_only": true}``.  Prints one
JSON object: the monotonic time at which ``import qpiverify`` finished, the
machine's speed just after it, the time of each case, a record of each
outcome for the oracle, the wall time (the sum of the case times) and the
peak RSS.  Cases run back to back in one thread (a closed loop with one
client, like ``--jobs 1``).  With ``stop_after_s`` the sweep starts no case
after that many seconds, so it may run only the first cases.

An untraced sweep samples the machine's speed while it runs (``speed.py``)
and reports each case's time both as measured, without the probes, and in
reference seconds.  With ``trace`` the layer spans go to the ``spans`` file
and no speed is sampled.  After the sweep, untimed and untraced, the record
of each numeric identity gains the program's values of its two sides.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``.
"""
import time

import qpiverify

READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import mpmath  # noqa: E402
import mpmath.libmp  # noqa: E402
from qpiverify import numerics  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Probes timed just after the import, to scale the set-up time.
SETUP_PROBES = 10


def _witness_case(n: int, c: int, j: int):
    """The library path of testing a conjectured congruence: the partial sum
    of SUN_LHS, minus the right side (-q)^((1-n^2)/8) plus c*q^j, tested
    against Phi_n^2."""
    s = qpiverify.partial_sum(qpiverify.SeriesId.SUN_LHS, n, (n - 1) // 2)
    e = (1 - n * n) // 8
    rhs = qpiverify.RatFunc.q_power(e) * (-1 if e % 2 else 1)
    if c:
        rhs = rhs + qpiverify.RatFunc.from_poly(qpiverify.Poly.monomial(c, j))
    r = s - rhs
    return r, qpiverify.congruent_zero(r, qpiverify.cyclotomic(n) ** 2)


def run_case(case: dict):
    kind = case["kind"]
    if kind == "wz":
        return qpiverify.check_telescoping(qpiverify.WzPairId(case["pair"]), case["n"], case["k"])
    if kind == "identity":
        return qpiverify.check_identity(qpiverify.IdentityId(case["which"]), case["n"])
    if kind == "intro":
        return qpiverify.verify_intro(qpiverify.WzPairId(case["pair"]), case["n"], path=case["path"])
    if kind == "modsun":
        return qpiverify.verify_modsun(case["n"], path=case["path"])
    if kind == "numeric":
        return qpiverify.check_identity_numeric(case["which"], Fraction(case["q"]), case["digits"])
    if kind == "classical":
        return qpiverify.eval_classical(case["which"], case["digits"])
    if kind == "limit":
        return qpiverify.limit_scan(case["which"], [case["j"]], digits=case["digits"])[0]
    if kind == "qgamma":
        return qpiverify.q_gamma(Fraction(case["x"]), Fraction(case["q"]), case["digits"])
    if kind == "witness":
        return _witness_case(case["n"], case["c"], case["j"])
    raise ValueError(f"unknown case kind {kind!r}")


def _coeffs(poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def _num(value) -> str:
    return mpmath.nstr(value, 60)


def _check_record(result) -> dict:
    witness = result.witness
    return {
        "passed": result.passed,
        "witness": None if witness is None else [_coeffs(witness.num), _coeffs(witness.den)],
    }


def record(case: dict, result) -> dict:
    """The JSON form of a case outcome that the oracle checks."""
    kind = case["kind"]
    if kind in ("wz", "identity", "intro", "modsun"):
        return _check_record(result)
    if kind == "numeric":
        return dict(_check_record(result), diff=_num(result.bound))
    if kind in ("classical", "qgamma"):
        return {"value": _num(result.value)}
    if kind == "limit":
        return {"value": _num(result.value), "distance": _num(result.distance)}
    r, check = result
    return dict(_check_record(check), num=_coeffs(r.num), den=_coeffs(r.den))


#: The infinite series on the left side of each numeric identity.
_LHS_SERIES = {
    "A1": qpiverify.SeriesId.J2_LHS,
    "A11": qpiverify.SeriesId.L2_LHS,
    "SLATER": qpiverify.SeriesId.SUN_LHS,
}


def numeric_sides(case: dict) -> dict:
    """The program's values of both sides of a numeric identity at the
    case's q, with the precision and tolerances check_identity_numeric uses:
    the left side from eval_series (for PRODFACT, from eval_qpoch_inf), the
    right side from eval_qpoch_inf factors."""
    which, q, digits = case["which"], Fraction(case["q"]), case["digits"]
    prec = numerics.working_prec(digits)
    with mpmath.workprec(prec):
        qm = mpmath.mpf(q.numerator) / q.denominator
        eps = mpmath.mpf(10) ** (-digits - 5)

        def qp(base: int, step: int):
            return numerics.eval_qpoch_inf(base, step, q, eps / 8, prec).value

        if which == "PRODFACT":
            lhs = qp(1, 2) / (1 - qm)
        else:
            lhs = numerics.eval_series(_LHS_SERIES[which], q, eps, prec=prec).value
        if which == "A1":
            rhs = (1 + qm) * qp(2, 4) * qp(6, 4) / qp(4, 4) ** 2
        elif which == "A11":
            rhs = qp(3, 4) * qp(5, 4) / qp(4, 4) ** 2
        elif which == "SLATER":
            rhs = qp(2, 4) ** 2 / qp(1, 2)
        else:
            rhs = qp(3, 4) * qp(5, 4)
        return {"lhs": _num(lhs), "rhs": _num(rhs)}


def add_numeric_sides(cases: list[dict], records: list[dict]) -> None:
    """Give each numeric identity's record the program's two sides; a case
    whose sides raise is recorded as raised."""
    for index, case in enumerate(cases):
        if case["kind"] == "numeric" and "error" not in records[index]:
            try:
                records[index].update(numeric_sides(case))
            except Exception as exc:  # a wrong outcome, not a harness failure
                records[index] = {"error": f"{type(exc).__name__}: {exc}"}


def sweep(cases: list[dict], tracer: Tracer | None, stop_after_s: float | None = None) -> dict:
    """Run the cases back to back; a case that raises is recorded and the
    sweep goes on.  Outcomes become records between cases, outside the
    timed region, so no result outlives its case.  Without a tracer the
    speed is sampled, and probe time is taken out of each case's time."""
    records = []
    bounds = []
    perf_counter = time.perf_counter
    sampler = speed.Sampler() if tracer is None else None
    with sampler.running() if sampler else contextlib.nullcontext():
        started = perf_counter()
        for index, case in enumerate(cases):
            if stop_after_s is not None and perf_counter() - started >= stop_after_s:
                break
            if sampler:
                sampler.mark()
            start = perf_counter()
            try:
                if tracer is None:
                    result = run_case(case)
                else:
                    with tracer.case(index):
                        result = run_case(case)
            except Exception as exc:  # every exception is a wrong verdict, not a harness failure
                bounds.append((start, perf_counter()))
                records.append({"error": f"{type(exc).__name__}: {exc}"})
                continue
            bounds.append((start, perf_counter()))
            records.append(record(case, result))
        if sampler:
            sampler.mark()
    if sampler:
        times = [end - start - sampler.probe_time(start, end) for start, end in bounds]
        ref_times = [t * sampler.scale(start, end) for t, (start, end) in zip(times, bounds)]
    else:
        times = [end - start for start, end in bounds]
        ref_times = None
    return {
        "wall_s": sum(times),
        "case_s": times,
        "case_ref_s": ref_times,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> None:
    out = {"ready": READY, "setup_scale": speed.probe_rate(SETUP_PROBES)}
    job = json.load(sys.stdin)
    out.update({
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
    })
    if not job.get("setup_only"):
        if job["trace"]:
            tracer = Tracer()
            with tracer.installed():
                out.update(sweep(job["cases"], tracer))
            out["counts"] = tracer.counts
            with open(job["spans"], "w", encoding="utf-8") as handle:
                json.dump({"cases": [c["id"] for c in job["cases"]], "spans": tracer.spans}, handle)
        else:
            out.update(sweep(job["cases"], None, job.get("stop_after_s")))
        add_numeric_sides(job["cases"][: len(out["records"])], out["records"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
