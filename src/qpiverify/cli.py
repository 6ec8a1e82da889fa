"""Command-line front end.

Maps each family of checks to a subcommand, sweeps the requested ranges with
a bounded worker pool, and emits a deterministic report (text or JSON).  Exit
code 0 means every case passed; 1 means some case failed, was ill-posed, or
was skipped; 2 is a usage or configuration error.
Only `eval` and `limit` import `numerics` and mpmath, and only `--jobs` > 1
imports the process pool, so the exact sweeps load neither.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .congruences import (
    ExactPathLimit,
    GcdNotCoprime,
    NonInvertibleDenominator,
    is_prime,
    is_prime_power,
    verify_intro,
    verify_modsun,
    verify_sun,
)
from .wz import (
    CheckResult,
    ConvergenceBudgetExceeded,
    IdentityId,
    WzPairId,
    check_identity,
    check_telescoping,
)

L2_DEFAULT_CASES = (3, 5, 7, 9, 11, 13, 25, 27)


# ---------------------------------------------------------------------------
# Case workers.  A case spec is (function, label, kwargs); `_run_case` calls
# the function and returns a plain row dict, so the process pool only moves
# primitives back.  Rows are assembled in submission order, keeping reports
# deterministic regardless of scheduling.
# ---------------------------------------------------------------------------


def _fmt_bound(value) -> str | None:
    if value is None:
        return None
    import mpmath  # only numeric checks carry a bound

    return mpmath.nstr(mpmath.mpf(value), 10)


#: Witness polynomials can run to thousands of terms; reports keep a
#: deterministic prefix.
_WITNESS_CHARS = 2000


def _fmt_witness(witness) -> str | None:
    if witness is None:
        return None
    text = str(witness)
    if len(text) > _WITNESS_CHARS:
        return f"{text[:_WITNESS_CHARS]}... [truncated, {len(text)} chars]"
    return text


def _row_from_result(result: CheckResult) -> dict:
    return {
        "label": result.case_label,
        "status": "pass" if result.passed else "fail",
        "witness": _fmt_witness(result.witness),
        "bound": _fmt_bound(result.bound),
        "terms": result.terms,
    }


def _case_sun(p: int, min_valuation: int) -> dict:
    witness, result = verify_sun(p, min_valuation=min_valuation)
    row = _row_from_result(result)
    row["witness"] = str(witness.difference)
    return row


def _case_eval_identity(which: str, q: str, digits: int) -> CheckResult:
    from .numerics import check_identity_numeric

    result = check_identity_numeric(which, Fraction(q), digits)
    # Echo the exact rational so reports carry no decimal ambiguity.
    result.case_label = f"{which} q={q} digits={digits}"
    return result


def _case_eval_classical(which: str, digits: int) -> CheckResult:
    import mpmath

    from .numerics import classical_target, eval_classical, working_prec

    report = eval_classical(which, digits)
    prec = working_prec(digits)
    with mpmath.workprec(prec):
        target = classical_target(which, prec)
        diff = abs(report.value - target)
        tol = mpmath.mpf(10) ** (-digits)
    label = f"{which.lower()} digits={digits}"
    return CheckResult(diff <= tol, label, bound=diff, terms=report.terms_used)


def _case_limit(which: str, j: int, digits: int) -> CheckResult:
    from .numerics import limit_scan

    point = limit_scan(which, [j], digits=digits)[0]
    label = f"limit {which.lower()} j={j}"
    return CheckResult(True, label, bound=point.distance, terms=point.terms_used)


def _run_case(spec: tuple) -> dict:
    """Call spec = (function, label, kwargs).  The function returns a
    CheckResult, or a finished row when the witness is not a `RatFunc`."""
    fn, label, kwargs = spec
    try:
        out = fn(**kwargs)
        return out if isinstance(out, dict) else _row_from_result(out)
    except GcdNotCoprime as exc:
        return {"label": label, "status": "ill-posed", "witness": str(exc), "bound": None, "terms": None}
    except (ExactPathLimit, NonInvertibleDenominator) as exc:
        return {"label": label, "status": "skipped", "witness": str(exc), "bound": None, "terms": None}
    except ConvergenceBudgetExceeded as exc:
        return {"label": label, "status": "fail", "witness": str(exc), "bound": None, "terms": None}


# ---------------------------------------------------------------------------
# Argument handling.
# ---------------------------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"malformed range {text!r}; expected A..B") from exc
    if lo_i > hi_i:
        raise ValueError(f"empty range {text!r}")
    return lo_i, hi_i


def _parse_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ValueError(f"malformed list {text!r}; expected comma-separated integers") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpiverify",
        description="Exact and numeric verification of q-series identities, "
        "WZ certificates, cyclotomic supercongruences, and 1/pi limits.",
    )
    parser.add_argument("--version", action="version", version=f"qpiverify {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="PATH", help="also write the report to PATH")
    common.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")

    p = sub.add_parser("verify-identity", parents=[common], help="finite summation identities")
    p.add_argument("--which", required=True, choices=[i.value for i in IdentityId])
    p.add_argument("--n-range", default=None, help="A..B (default 1..25; whipple 1..99, odd only)")

    p = sub.add_parser("verify-wz", parents=[common], help="telescoping certificates")
    p.add_argument("--pair", required=True, choices=[w.value for w in WzPairId])
    p.add_argument("--max-n", type=int, default=20, help="grid 0 <= n <= max, 1 <= k <= n+2")

    p = sub.add_parser("verify-congruence", parents=[common], help="cyclotomic congruences")
    p.add_argument("--which", required=True, choices=("modsun", "J2", "L2"))
    p.add_argument("--odd-n", default=None, help="odd n range A..B")
    p.add_argument("--primes", default=None, help="prime range A..B (modular path)")
    p.add_argument("--n-list", default=None, help="explicit comma-separated n values")
    p.add_argument("--path", choices=("auto", "modular", "exact"), default="auto")
    p.add_argument(
        "--exploratory",
        action="store_true",
        help="allow PAIR_L2 cases outside the stated odd prime powers",
    )

    p = sub.add_parser("verify-sun", parents=[common], help="classical p-adic congruence")
    p.add_argument("--primes", default="5..97", help="prime range A..B")
    p.add_argument("--min-valuation", type=int, default=3)

    p = sub.add_parser("eval", parents=[common], help="numeric identity and series evaluation")
    p.add_argument(
        "--identity",
        required=True,
        choices=("a1", "a11", "slater", "prodfact", "pi1", "pi2"),
    )
    p.add_argument("--q", default=None, help="rational q, e.g. 1/2 (default: 1/4, 1/3, 1/2)")
    p.add_argument("--digits", type=int, default=None, help="default 50 (pi series: 40)")

    p = sub.add_parser("limit", parents=[common], help="q -> 1 limit scan")
    p.add_argument("--which", required=True, choices=("pi1", "pi2"))
    p.add_argument("--j-range", default="4..10", help="j range A..B with q_j = 1 - 2^-j")
    p.add_argument("--digits", type=int, default=12)
    return parser


def _check_digits(digits: int) -> None:
    if digits < 1:
        raise ValueError("--digits must be >= 1")


def _build_cases(args) -> tuple[dict, list[tuple]]:
    """Resolve defaults and return (params echo, ordered case specs)."""
    cmd = args.command
    specs: list[tuple] = []
    params: dict = {}
    if cmd == "verify-identity":
        default = "1..99" if args.which == "whipple" else "1..25"
        lo, hi = _parse_range(default if args.n_range is None else args.n_range)
        if lo < 1:
            raise ValueError("n must be >= 1")
        ns = [n for n in range(lo, hi + 1) if args.which != "whipple" or n % 2 == 1]
        params = {"which": args.which, "n_range": f"{lo}..{hi}"}
        specs = [
            (check_identity, f"{args.which} n={n}", {"ident": IdentityId(args.which), "n": n})
            for n in ns
        ]
    elif cmd == "verify-wz":
        if args.max_n < 0:
            raise ValueError("--max-n must be >= 0")
        params = {"pair": args.pair, "max_n": args.max_n}
        pair = WzPairId(args.pair)
        specs = [
            (check_telescoping, f"telescoping {args.pair} n={n} k={k}", {"pair": pair, "n": n, "k": k})
            for n in range(args.max_n + 1)
            for k in range(1, n + 3)
        ]
    elif cmd == "verify-congruence":
        if args.exploratory and args.which != "L2":
            raise ValueError("--exploratory applies to --which L2 only")
        params = {"which": args.which, "path": args.path}
        if args.n_list is not None:
            if args.odd_n is not None or args.primes is not None:
                raise ValueError("--n-list cannot be combined with --odd-n or --primes")
            ns = _parse_list(args.n_list)
        elif args.odd_n is not None or args.primes is not None:
            picked: set[int] = set()
            if args.odd_n is not None:
                lo, hi = _parse_range(args.odd_n)
                picked.update(n for n in range(lo, hi + 1) if n % 2 == 1)
            if args.primes is not None:
                lo, hi = _parse_range(args.primes)
                picked.update(n for n in range(lo, hi + 1) if n % 2 == 1 and is_prime(n))
            ns = sorted(picked)
        elif args.which == "modsun":
            ns = [n for n in range(1, 100) if n % 2 == 1]
        elif args.which == "J2":
            ns = [n for n in range(1, 28) if n % 2 == 1]
            ns += [n for n in range(29, 98) if is_prime(n)]
        else:
            ns = list(L2_DEFAULT_CASES)
        if any(n % 2 == 0 or n < 1 for n in ns):
            raise ValueError("congruence indices must be odd and >= 1")
        if args.which == "L2" and not args.exploratory:
            bad = [n for n in ns if not is_prime_power(n)]
            if bad:
                raise ValueError(
                    f"PAIR_L2 is stated for odd prime powers only; {bad} need --exploratory"
                )
        params["n_values"] = ns
        if args.which == "modsun":
            specs = [
                (verify_modsun, f"modsun n={n}", {"n": n, "path": args.path}) for n in ns
            ]
        else:
            specs = [
                (
                    verify_intro,
                    f"intro {args.which} n={n}",
                    {
                        "pair": WzPairId(args.which),
                        "n": n,
                        "path": args.path,
                        "exploratory": args.exploratory,
                    },
                )
                for n in ns
            ]
    elif cmd == "verify-sun":
        # p never divides the difference's denominator, so a valuation is >= 0.
        if args.min_valuation < 1:
            raise ValueError("--min-valuation must be >= 1")
        lo, hi = _parse_range(args.primes)
        ps = [p for p in range(max(lo, 5), hi + 1) if is_prime(p)]
        params = {"primes": f"{lo}..{hi}", "min_valuation": args.min_valuation}
        specs = [
            (_case_sun, f"sun p={p}", {"p": p, "min_valuation": args.min_valuation}) for p in ps
        ]
    elif cmd == "eval":
        ident = args.identity
        classical = ident in ("pi1", "pi2")
        digits = args.digits if args.digits is not None else (40 if classical else 50)
        _check_digits(digits)
        if classical:
            if args.q is not None:
                raise ValueError(f"--q does not apply to {ident}, a classical series with no q")
            params = {"identity": ident, "digits": digits}
            specs = [
                (_case_eval_classical, f"{ident} digits={digits}", {"which": ident, "digits": digits})
            ]
        else:
            qs = [args.q] if args.q is not None else ["1/4", "1/3", "1/2"]
            for q in qs:
                try:
                    inside = 0 < Fraction(q) < 1
                except ZeroDivisionError:
                    inside = False
                if not inside:
                    raise ValueError(f"q = {q} must lie strictly between 0 and 1")
            params = {"identity": ident, "digits": digits, "q": qs}
            specs = [
                (
                    _case_eval_identity,
                    f"{ident} q={q} digits={digits}",
                    {"which": ident, "q": q, "digits": digits},
                )
                for q in qs
            ]
    elif cmd == "limit":
        from .numerics import LIMIT_JS

        lo, hi = _parse_range(args.j_range)
        if lo not in LIMIT_JS or hi not in LIMIT_JS:
            raise ValueError(f"j must lie in {LIMIT_JS[0]}..{LIMIT_JS[-1]}")
        _check_digits(args.digits)
        params = {"which": args.which, "j_range": f"{lo}..{hi}", "digits": args.digits}
        specs = [
            (_case_limit, f"limit {args.which} j={j}", {"which": args.which, "j": j, "digits": args.digits})
            for j in range(lo, hi + 1)
        ]
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {cmd}")
    if not specs:
        raise ValueError("the requested ranges produce no cases")
    params["jobs"] = args.jobs
    return params, specs


def _execute(specs: list[tuple], jobs: int) -> list[dict]:
    # The pool forks all of its workers up front, so never ask for more
    # workers than there are cases.
    workers = min(jobs, len(specs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_case, specs))
    return [_run_case(spec) for spec in specs]


def _totals(rows: list[dict]) -> dict:
    counts = {"pass": 0, "fail": 0, "ill_posed": 0, "skipped": 0}
    for row in rows:
        counts[row["status"].replace("-", "_")] += 1
    return counts


def _render_text(report: dict) -> str:
    lines = [f"qpiverify {report['command']}  (version {report['version']})"]
    for row in report["cases"]:
        status = row["status"].upper().ljust(9)
        extra = ""
        if row["bound"] is not None:
            extra += f"  |diff| <= {row['bound']}" if row["status"] == "pass" else f"  diff {row['bound']}"
        if row["terms"] is not None:
            extra += f"  terms={row['terms']}"
        if row["witness"] is not None and row["status"] != "pass":
            extra += f"  witness: {row['witness'][:160]}"
        lines.append(f"  {status} {row['label']}{extra}")
    t = report["totals"]
    lines.append(
        f"totals: pass={t['pass']} fail={t['fail']} ill_posed={t['ill_posed']} "
        f"skipped={t['skipped']}  ({report['elapsed_ms']} ms)"
    )
    return "\n".join(lines) + "\n"


def _render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.monotonic()
    try:
        params, specs = _build_cases(args)
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
    except ValueError as exc:
        print(f"qpiverify: error: {exc}", file=sys.stderr)
        return 2
    rows = _execute(specs, args.jobs)
    report = {
        "command": args.command,
        "params": params,
        "cases": rows,
        "totals": _totals(rows),
        "elapsed_ms": int((time.monotonic() - started) * 1000),
        "version": __version__,
    }
    rendered = _render_json(report) if args.format == "json" else _render_text(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"qpiverify: error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(rendered)
    return 0 if report["totals"]["pass"] == len(rows) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
