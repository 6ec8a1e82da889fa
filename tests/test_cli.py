import json

from qpiverify.cli import run


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_wz_text_report(capsys):
    code, out = run_capture(capsys, ["verify-wz", "--pair", "J2", "--max-n", "4"])
    assert code == 0
    assert "PASS" in out and "totals:" in out
    assert "fail=0" in out


def test_identity_json_schema_and_roundtrip(capsys):
    code, out = run_capture(
        capsys, ["verify-identity", "--which", "a2", "--n-range", "1..4", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "params", "cases", "totals", "elapsed_ms", "version"}
    assert set(report["totals"]) == {"pass", "fail", "ill_posed", "skipped"}
    assert report["totals"]["pass"] == len(report["cases"]) == 4
    for case in report["cases"]:
        assert set(case) == {"label", "status", "witness", "bound", "terms"}
    # Byte-identical JSON round trip.
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out


def test_reports_deterministic_modulo_elapsed(capsys):
    argv = ["verify-congruence", "--which", "modsun", "--odd-n", "1..9", "--format", "json"]
    _, out1 = run_capture(capsys, argv)
    _, out2 = run_capture(capsys, argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert r1 == r2


def test_overlapping_ranges_run_each_case_once():
    from qpiverify.cli import _build_cases, build_parser

    parser = build_parser()
    argv = ["verify-congruence", "--which", "modsun", "--odd-n", "1..9", "--primes", "3..13"]
    params, specs = _build_cases(parser.parse_args(argv))
    assert params["n_values"] == [1, 3, 5, 7, 9, 11, 13]
    assert [s[1] for s in specs] == [f"modsun n={n}" for n in params["n_values"]]
    _, specs = _build_cases(parser.parse_args(argv[:3] + ["--n-list", "9,3,9"]))
    assert [s[2]["n"] for s in specs] == [9, 3, 9]  # an explicit list is taken as given


def test_jobs_capped_at_case_count(capsys, monkeypatch):
    """The pool forks every worker when it starts, so it gets at most one per case."""
    import concurrent.futures

    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # `_execute` imports the pool from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    argv = ["verify-identity", "--which", "a2", "--n-range", "1..3", "--format", "json"]
    code, out = run_capture(capsys, argv + ["--jobs", "64"])
    assert code == 0 and pools == [3]
    assert json.loads(out)["params"]["jobs"] == 64
    code, _ = run_capture(capsys, ["verify-sun", "--primes", "5..5", "--jobs", "64"])
    assert code == 0 and pools == [3]  # one case runs in this process


def test_parallel_jobs_same_report(capsys):
    base = ["verify-identity", "--which", "second", "--n-range", "1..6", "--format", "json"]
    _, seq = run_capture(capsys, base + ["--jobs", "1"])
    _, par = run_capture(capsys, base + ["--jobs", "2"])
    r1, r2 = json.loads(seq), json.loads(par)
    assert r1["cases"] == r2["cases"]


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_capture(
        capsys,
        ["verify-sun", "--primes", "5..13", "--format", "json", "--out", str(path)],
    )
    assert code == 0
    assert path.read_text(encoding="utf-8") == out


def test_unwritable_out_path(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "report.json"
    code = run(["verify-sun", "--primes", "5..7", "--out", str(path)])
    capsys.readouterr()
    assert code == 2


def test_usage_errors_exit_2(capsys):
    assert run(["verify-identity", "--which", "a2", "--n-range", "nonsense"]) == 2
    assert run(["verify-identity", "--which", "a2", "--n-range", "9..3"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["verify-congruence", "--which", "modsun", "--odd-n", "2..2"]) == 2
    assert run(["verify-congruence", "--which", "L2", "--n-list", "15"]) == 2
    assert run(["eval", "--identity", "a1", "--q", "3/2"]) == 2
    assert run(["eval", "--identity", "a1", "--digits", "0"]) == 2
    assert run(["eval", "--identity", "pi1", "--digits", "0"]) == 2
    assert run(["limit", "--which", "pi1", "--j-range", "1..3"]) == 2
    capsys.readouterr()
    # An empty value is given, not absent: it must not fall back to the default sweep.
    assert run(["verify-congruence", "--which", "modsun", "--n-list", ""]) == 2
    assert "no cases" in capsys.readouterr().err
    assert run(["verify-congruence", "--which", "modsun", "--odd-n", ""]) == 2
    assert run(["verify-identity", "--which", "a2", "--n-range", ""]) == 2
    capsys.readouterr()
    assert run(["eval", "--identity", "slater", "--q", "", "--digits", "10"]) == 2
    assert "Invalid literal for Fraction: ''" in capsys.readouterr().err
    # An explicit list does not silently drop a range given with it.
    assert run(["verify-congruence", "--which", "modsun", "--n-list", "3", "--odd-n", "1..9"]) == 2
    assert "--n-list cannot be combined" in capsys.readouterr().err
    assert run(["verify-congruence", "--which", "J2", "--n-list", "5", "--primes", "3..5"]) == 2
    assert "--n-list cannot be combined" in capsys.readouterr().err
    # --exploratory widens only the L2 sweep; elsewhere it would be silently ignored.
    assert run(["verify-congruence", "--which", "modsun", "--exploratory", "--n-list", "3"]) == 2
    assert "--exploratory applies to --which L2 only" in capsys.readouterr().err
    assert run(["verify-congruence", "--which", "J2", "--exploratory", "--n-list", "3"]) == 2
    assert "--exploratory applies to --which L2 only" in capsys.readouterr().err
    # Every valuation is >= 0, so a bound below 1 would pass vacuously.
    assert run(["verify-sun", "--min-valuation", "0"]) == 2
    assert "--min-valuation must be >= 1" in capsys.readouterr().err
    assert run(["verify-sun", "--min-valuation", "-3"]) == 2
    capsys.readouterr()
    # pi1 and pi2 are the classical series with no q; a --q is not silently dropped.
    assert run(["eval", "--identity", "pi1", "--q", "3/2"]) == 2
    assert "--q does not apply to pi1" in capsys.readouterr().err
    assert run(["eval", "--identity", "pi2", "--q", "1/2"]) == 2
    assert "--q does not apply to pi2" in capsys.readouterr().err


def test_eval_defaults_three_q_points(capsys):
    code, out = run_capture(
        capsys, ["eval", "--identity", "slater", "--digits", "25", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert [c["label"] for c in report["cases"]] == [
        "slater q=1/4 digits=25",
        "slater q=1/3 digits=25",
        "slater q=1/2 digits=25",
    ]
    assert all(c["status"] == "pass" for c in report["cases"])


def test_eval_classical_and_limit(capsys):
    code, out = run_capture(capsys, ["eval", "--identity", "pi1", "--digits", "20"])
    assert code == 0
    code, out = run_capture(
        capsys, ["limit", "--which", "pi2", "--j-range", "4..5", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert [c["label"] for c in report["cases"]] == ["limit pi2 j=4", "limit pi2 j=5"]
    assert all(c["bound"] is not None for c in report["cases"])


def test_limit_near_one_sums_few_terms(capsys):
    code, out = run_capture(
        capsys, ["limit", "--which", "pi2", "--j-range", "15..16", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert [c["label"] for c in report["cases"]] == ["limit pi2 j=15", "limit pi2 j=16"]
    assert all(c["terms"] < 100 for c in report["cases"])


def test_congruence_exact_path_flag(capsys):
    code, out = run_capture(
        capsys,
        ["verify-congruence", "--which", "modsun", "--odd-n", "1..7", "--path", "exact"],
    )
    assert code == 0
    assert "exact" in out


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "qpiverify" in out


def test_failing_case_exits_1(capsys):
    code, out = run_capture(capsys, ["verify-sun", "--primes", "5..7", "--min-valuation", "10"])
    assert code == 1
    assert "FAIL" in out


def test_default_ranges_match_acceptance_sweeps():
    from qpiverify.cli import _build_cases, build_parser

    parser = build_parser()
    _, specs = _build_cases(parser.parse_args(["verify-congruence", "--which", "modsun"]))
    assert len(specs) == 50  # odd n in 1..99
    _, specs = _build_cases(parser.parse_args(["verify-identity", "--which", "whipple"]))
    assert len(specs) == 50
    _, specs = _build_cases(parser.parse_args(["verify-congruence", "--which", "J2"]))
    assert len(specs) == 14 + 16  # odd n <= 27 plus primes 29..97
    _, specs = _build_cases(parser.parse_args(["verify-congruence", "--which", "L2"]))
    assert len(specs) == 8
    _, specs = _build_cases(parser.parse_args(["verify-wz", "--pair", "L2"]))
    assert len(specs) == sum(n + 2 for n in range(21))
    _, specs = _build_cases(parser.parse_args(["eval", "--identity", "a1"]))
    assert [s[2]["digits"] for s in specs] == [50, 50, 50]
    _, specs = _build_cases(parser.parse_args(["limit", "--which", "pi1"]))
    assert [s[2]["j"] for s in specs] == list(range(4, 11))


def test_forced_modular_on_composite_is_skipped(capsys):
    code, out = run_capture(
        capsys,
        ["verify-congruence", "--which", "J2", "--n-list", "9", "--path", "modular", "--format", "json"],
    )
    report = json.loads(out)
    assert report["cases"][0]["status"] == "skipped"
    assert report["totals"]["skipped"] == 1
    assert code == 1  # exit 0 requires every case to pass


def test_witness_strings_are_capped():
    from qpiverify.cli import _WITNESS_CHARS, _fmt_witness
    from qpiverify.polys import Poly
    from qpiverify.ratfunc import RatFunc

    big = RatFunc.from_poly(Poly([1] * 3000))
    text = _fmt_witness(big)
    assert len(text) < _WITNESS_CHARS + 40
    assert text.endswith("chars]")
    assert _fmt_witness(None) is None
    assert _fmt_witness(RatFunc.one()) == "1"


def test_pole_at_the_modulus_is_an_ill_posed_row(capsys, monkeypatch):
    """A right side with a pole at Phi_n makes the exact path's reduced
    denominator share a factor with the modulus: GcdNotCoprime, reported as
    an ill-posed row."""
    from qpiverify import congruences

    monkeypatch.setattr(congruences, "sun_closed_form", lambda n: (1, 0, [(n, 1, 1, -1)]))
    argv = ["verify-congruence", "--which", "modsun", "--n-list", "3,5", "--path", "exact", "--format", "json"]
    code, out = run_capture(capsys, argv)
    report = json.loads(out)
    assert [c["status"] for c in report["cases"]] == ["ill-posed", "ill-posed"]
    assert "shares a factor with the modulus" in report["cases"][0]["witness"]
    assert report["totals"] == {"pass": 0, "fail": 0, "ill_posed": 2, "skipped": 0}
    assert code == 1


def test_series_without_a_tail_bound_is_a_fail_row(capsys, monkeypatch):
    """A series whose terms run out before its tail bound is met raises
    ConvergenceBudgetExceeded, reported as a fail row."""
    import itertools

    from qpiverify import numerics

    terms = numerics._series_terms
    monkeypatch.setattr(numerics, "_series_terms", lambda sid, powers: itertools.islice(terms(sid, powers), 3))
    argv = ["eval", "--identity", "slater", "--q", "1/2", "--digits", "20", "--format", "json"]
    code, out = run_capture(capsys, argv)
    report = json.loads(out)
    assert [c["status"] for c in report["cases"]] == ["fail"]
    assert "no tail bound within" in report["cases"][0]["witness"]
    assert report["totals"] == {"pass": 0, "fail": 1, "ill_posed": 0, "skipped": 0}
    assert code == 1
