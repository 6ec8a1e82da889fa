"""Case lists of the four benchmark workloads.

A case is a plain dict: an ``id``, a ``kind`` naming the qpiverify call the
worker makes, a ``group`` used to split per-layer shares, and the call's
arguments.  The seed picks the moderate q points of numeric-near-one; it
never changes the number or the size of the cases.  Cases
run in the order the CLI's sweeps run them, by ascending parameter.  A
shuffled order would move which case first fills the program's caches
(cyclotomic polynomials, for one), and with it the per-case times.  This
module does not import qpiverify, so inputs are made without the program
under test.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("exact-sum", "modular-congruence", "numeric-near-one", "failing-witness")

#: The default L2 sweep of the CLI: the odd prime powers the congruence is stated for.
L2_CASES = (3, 5, 7, 9, 11, 13, 25, 27)

#: Anchors of the moderate q points of the numeric identities, spread over [1/4, 7/8].
Q_ANCHORS = (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(5, 8), Fraction(3, 4), Fraction(7, 8))

#: The seed moves each anchor by j * 2^-40 with 1 <= j <= 1024, towards the
#: middle of [1/4, 7/8].  A series or product needs a different number of
#: terms only when its tail bound crosses the tolerance, and no crossing is
#: that close to an anchor, so every seed gets the same term counts.
Q_JITTER = Fraction(1, 2**40)
Q_JITTER_STEPS = 1024


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _exact_sum(rng: random.Random) -> list[dict]:
    cases = []
    for pair in ("J2", "L2"):
        for n in range(21):
            for k in range(1, n + 3):
                cases.append({"id": f"wz {pair} n={n} k={k}", "kind": "wz", "group": "wz", "pair": pair, "n": n, "k": k})
    for which in ("a2", "a3", "second", "second2"):
        for n in range(1, 26):
            cases.append({"id": f"identity {which} n={n}", "kind": "identity", "group": "identity", "which": which, "n": n})
    for n in range(1, 100, 2):
        cases.append({"id": f"identity whipple n={n}", "kind": "identity", "group": "identity", "which": "whipple", "n": n})
    for n in range(1, 28, 2):
        cases.append({"id": f"intro J2 n={n} exact", "kind": "intro", "group": "intro-exact", "pair": "J2", "n": n, "path": "exact"})
    return cases


def _modular_congruence(rng: random.Random) -> list[dict]:
    cases = [
        {"id": f"modsun n={n}", "kind": "modsun", "group": "modsun", "n": n, "path": "modular"}
        for n in range(1, 100, 2)
    ]
    for p in range(3, 98, 2):
        if _is_prime(p):
            cases.append({"id": f"intro J2 n={p} modular", "kind": "intro", "group": "intro-modular", "pair": "J2", "n": p, "path": "modular"})
    # The CLI's default path: prime powers 9, 25 and 27 take the exact route.
    for n in L2_CASES:
        cases.append({"id": f"intro L2 n={n} auto", "kind": "intro", "group": "intro-l2", "pair": "L2", "n": n, "path": "auto"})
    return cases


def _numeric_near_one(rng: random.Random) -> list[dict]:
    cases = []
    for anchor in Q_ANCHORS:
        sign = 1 if anchor < Fraction(9, 16) else -1
        for which in ("A1", "A11", "SLATER", "PRODFACT"):
            q = anchor + sign * rng.randint(1, Q_JITTER_STEPS) * Q_JITTER
            cases.append({"id": f"numeric {which} q~{anchor}", "kind": "numeric", "group": "numeric", "which": which, "q": str(q), "digits": 50})
    for which in ("PI1", "PI2"):
        cases.append({"id": f"classical {which}", "kind": "classical", "group": "classical", "which": which, "digits": 40})
        for j in range(4, 15):
            cases.append({"id": f"limit {which} j={j}", "kind": "limit", "group": "limit", "which": which, "j": j, "digits": 12})
    for q in ("1/2", "9/10"):
        for x in ("1", "2"):
            cases.append({"id": f"qgamma x={x} q={q}", "kind": "qgamma", "group": "qgamma", "x": x, "q": q, "digits": 40})
    cases.append({"id": "qgamma x=1/2 q=1023/1024", "kind": "qgamma", "group": "qgamma", "x": "1/2", "q": "1023/1024", "digits": 15})
    return cases


def _failing_witness(rng: random.Random) -> list[dict]:
    """The perturbation is q^(deg M - 1) whatever the seed.  Its size moves the
    work of the failing case: a seed-chosen c*q^j with |c| <= 9 moved a case
    by up to 25%, and the workload's case_p50_ms by 0.22 of its median."""
    cases = []
    for n in range(11, 30, 2):
        c, j = 1, 2 * _euler_phi(n) - 1
        cases.append({"id": f"witness n={n} pass", "kind": "witness", "group": "witness-pass", "n": n, "c": 0, "j": 0})
        cases.append({"id": f"witness n={n} fail", "kind": "witness", "group": "witness-fail", "n": n, "c": c, "j": j})
    return cases


_BUILDERS = {
    "exact-sum": _exact_sum,
    "modular-congruence": _modular_congruence,
    "numeric-near-one": _numeric_near_one,
    "failing-witness": _failing_witness,
}


def build_cases(workload: str, seed: int) -> list[dict]:
    """The cases of one workload, in the CLI's order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    return _BUILDERS[workload](rng)
