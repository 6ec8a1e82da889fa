"""Golden reports and witnesses: refactors must not move a byte of output.

Each file under `golden/` is the JSON report of the command beside it; the
test reruns the command and compares everything but `elapsed_ms`.  The
pinned witness strings come from deliberately failing congruences, so the
failure paths are covered as well as the passing ones.
"""
import json
from pathlib import Path

import pytest

from qpiverify import RatFunc, Poly, SeriesId, congruent_zero, cyclotomic, partial_sum
from qpiverify.cli import run
from qpiverify.congruences import (
    ModulusKind,
    _check_congruence_exact,
    _check_congruence_modular,
    modulus_build,
)
from qpiverify.qseries import series_factors

GOLDEN = Path(__file__).parent / "golden"

REPORTS = {
    "wz_L2_max6": ["verify-wz", "--pair", "L2", "--max-n", "6"],
    "identity_whipple_1_21": ["verify-identity", "--which", "whipple", "--n-range", "1..21"],
    "congruence_modsun_exact_1_15": [
        "verify-congruence", "--which", "modsun", "--odd-n", "1..15", "--path", "exact",
    ],
    "congruence_J2_modular_9_11": [
        "verify-congruence", "--which", "J2", "--n-list", "9,11", "--path", "modular",
    ],
    "congruence_J2_modular_29_97": [
        "verify-congruence", "--which", "J2", "--primes", "29..97", "--path", "modular",
    ],
    "congruence_J2_modular_3_23": [
        "verify-congruence", "--which", "J2", "--primes", "3..23", "--path", "modular",
    ],
    "congruence_L2_modular_3_31": [
        "verify-congruence", "--which", "L2", "--n-list", "3,5,7,11,13,17,19,23,29,31",
        "--path", "modular",
    ],
    "congruence_modsun_modular_default": ["verify-congruence", "--which", "modsun"],
    "congruence_L2_exploratory_9_15": [
        "verify-congruence", "--which", "L2", "--n-list", "9,15", "--exploratory",
    ],
    "sun_5_13_val4": ["verify-sun", "--primes", "5..13", "--min-valuation", "4"],
    "eval_slater_d30": ["eval", "--identity", "slater", "--digits", "30"],
    "eval_pi2_d20": ["eval", "--identity", "pi2", "--digits", "20"],
    "limit_pi1_4_6": ["limit", "--which", "pi1", "--j-range", "4..6"],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_golden_report(name, capsys):
    code = run(REPORTS[name] + ["--format", "json"])
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got.pop("elapsed_ms")
    want.pop("elapsed_ms")
    assert got == want
    assert code == (0 if want["totals"]["pass"] == len(want["cases"]) else 1)


@pytest.mark.parametrize("check", [_check_congruence_modular, _check_congruence_exact])
def test_golden_sun_witness_with_wrong_rhs(check):
    """SUN at n = 7 against the right side 1 instead of (-q)^-6."""
    ctx = modulus_build(7, ModulusKind.PHI_SQUARED)
    terms = series_factors(SeriesId.SUN_LHS, 7, 3)
    result = check(terms, (1, 0, []), ctx, "wrong rhs")
    assert not result.passed
    assert str(result.witness) == "-q^8 + 2q - 1"


def test_golden_perturbed_congruence_witness():
    """The library route of a conjectured congruence at n = 11 whose right
    side carries an extra +q^19."""
    n = 11
    e = (1 - n * n) // 8
    rhs = RatFunc.q_power(e) * (-1 if e % 2 else 1) + RatFunc.from_poly(Poly.monomial(1, 19))
    r = partial_sum(SeriesId.SUN_LHS, n, (n - 1) // 2) - rhs
    result = congruent_zero(r, cyclotomic(n) ** 2)
    assert not result.passed
    assert str(result.witness) == "-q^19"
