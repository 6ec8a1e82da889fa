"""Golden reports and witnesses: refactors must not move a byte of output.

Each file under `golden/` is the JSON report of the command beside it; the
test reruns the command and compares everything but `elapsed_ms`.  The
pinned witness strings come from deliberately failing congruences, so the
failure paths are covered as well as the passing ones.
"""
import hashlib
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


#: Every default CLI sweep, with the number of its cases, all passing, and
#: the sha256 of json.dumps(report, sort_keys=True) of its JSON report
#: without `elapsed_ms`.  A change to one of these digests is a change to
#: the program's output contract.
DEFAULT_SWEEPS = {
    "verify-wz --pair J2": (252, "1becf08effca1ef1de8bee01f71645ad7dd7b0bb91048f1ef30d1225a08ceb1f"),
    "verify-wz --pair L2": (252, "7fedded5db9d4f7f9e62b249405f016c3b6875bb419eea0c1b1505374e0b1230"),
    "verify-identity --which a2": (25, "1b8ee390f9e22aae89e9e389fd677a15d3158ed8fa7b212126e01d5d686fe9c3"),
    "verify-identity --which a3": (25, "5a51d3ba6c5b62e9c48612a590df6581e053054da24692a9232e9369a16f5647"),
    "verify-identity --which second": (25, "d4448943e49617f25f739c06553dab20566e4c1654eab77faa1edd4b95b712f1"),
    "verify-identity --which second2": (25, "c348380cce3347a6dea8d2fa9103262c9a4072755794983b720237939853b47f"),
    "verify-identity --which whipple": (50, "8d489fcc16b561ce5e40f2528b39004aeb1dcb8d2d2039c01a45bdaf7e88670e"),
    "verify-congruence --which modsun": (50, "bf2698e14cbe4b4fc3cb0aad9be6fa06704ac8ff7f57ebe4a7a5f3f5a8cff2ac"),
    "verify-congruence --which J2": (30, "de1e6c22c57abefa8c5421c1294766d486c30616db2b88974ab0c23b186122e7"),
    "verify-congruence --which L2": (8, "e12dd14f29e8a3809cf28dcfc866acdf7db87772e2a874e11f1af9b3fb77d139"),
    "verify-sun": (23, "ba652aea0d32cc9732edb8b2dc8643cf0447695f877580273fd35e3db61fdd19"),
    "eval --identity a1": (3, "58f6a9e8cd3a1890c5d22f3c0b320f5813f97baab41b5fc6c260bb426242648b"),
    "eval --identity a11": (3, "e6e5b0f90e0b3a11c37ebc86af124917cd5f17581d1b22024f298b44cf3aae63"),
    "eval --identity slater": (3, "e35fd7e2c93f6c62841e1c13234da0ff07941d11ffbc215355388de8ae03b939"),
    "eval --identity prodfact": (3, "1f6478d49d454f6fb025787147b66d1c5bb15db06feb8d54771836d75174a2cc"),
    "eval --identity pi1": (1, "abe83194e1d5cb2c6fe14ca6339fb37c26cfd26e41249ee853f00aa5f7adb9b2"),
    "eval --identity pi2": (1, "9ebd7e65ff46d936673fbc13af1e12aa2837513a02f9460628dbc9b428888944"),
    "limit --which pi1": (7, "e73a8305b441217dcb15d4b09d867eff14fa8f219413d8f92ce09fecaee18940"),
    "limit --which pi2": (7, "50603bd361205b782bed3bc79c585d36d807ab420d0fb7ef0fc1e5ce8074ebbf"),
}


@pytest.mark.parametrize("command", list(DEFAULT_SWEEPS))
def test_default_sweep_pinned(command, capsys):
    """Each default sweep's report, byte for byte apart from `elapsed_ms`."""
    code = run(command.split() + ["--format", "json"])
    report = json.loads(capsys.readouterr().out)
    report.pop("elapsed_ms")
    cases, digest = DEFAULT_SWEEPS[command]
    assert code == 0
    assert report["totals"] == {"pass": cases, "fail": 0, "ill_posed": 0, "skipped": 0}
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest


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
