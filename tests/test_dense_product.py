"""The Kronecker path of dense Z-exponent products against a schoolbook
convolution written here, and against the pairwise loop it replaces.

Operands are raw term lists, (int exponent, Fraction or residue) pairs,
as the evaluation core holds them.  ``loop_only`` switches the dense path
off, so the same product can be evaluated both ways.
"""

import io
import random
from fractions import Fraction

import pytest

from hahnseries import series
from hahnseries.cli import main
from hahnseries.fields import QQ, prime_field
from hahnseries.groups import INTEGERS
from hahnseries.series import EvaluationContext, Horizon, from_terms, truncate

BIG_PRIME = 2147483647


def schoolbook(a, b, p, top):
    """The nonzero terms of a*b with exponent <= top."""
    acc = {}
    for ga, ca in a:
        for gb, cb in b:
            acc[ga + gb] = acc.get(ga + gb, 0) + ca * cb
    out = []
    for g in sorted(acc):
        c = acc[g] if p is None else acc[g] % p
        if c and g <= top:
            out.append((g, Fraction(c) if p is None else c))
    return out


def series_of(terms, p):
    fld = QQ if p is None else prime_field(p)
    return from_terms(INTEGERS, fld, [(INTEGERS.element(g), fld.element(c)) for g, c in terms])


def raw(tl):
    return [(g.value, c.value) for g, c in tl.terms]


def q_coefficient(rng):
    """Non-integer, mixed-sign, sometimes large numerators and denominators."""
    num = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.choice((1, 3, 12, 30)))
    return Fraction(num, rng.randint(1, 10 ** rng.choice((0, 1, 4, 15))))


def operand(rng, p, n, start, gaps):
    exps = sorted(rng.sample(range(start, start + n + gaps), n))
    if p is None:
        return [(g, q_coefficient(rng)) for g in exps]
    return [(g, rng.randint(1, p - 1)) for g in exps]


@pytest.fixture
def loop_only(monkeypatch):
    def switch_off():
        monkeypatch.setattr(series, "_DENSE_MIN_TERMS", 10 ** 9)
    return switch_off


@pytest.fixture
def dense_calls(monkeypatch):
    calls = []
    original = series._kronecker_product

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(series, "_kronecker_product", counting)
    return calls


@pytest.mark.parametrize("p", [None, 2, 3, 7, BIG_PRIME], ids=["Q", "F2", "F3", "F7", "Fbig"])
def test_kronecker_product_matches_the_schoolbook(p, dense_calls):
    rng = random.Random(f"kronecker:{p}")
    for _ in range(40):
        n, m = rng.randint(16, 70), rng.randint(16, 70)
        # negative and offset exponents, at most one gap per term
        a = operand(rng, p, n, rng.randint(-60, 40), rng.randint(0, n))
        b = operand(rng, p, m, rng.randint(-60, 40), rng.randint(0, m))
        lo, hi = a[0][0] + b[0][0], a[-1][0] + b[-1][0]
        # a bound anywhere from below the product to past its end
        top = rng.randint(lo - 3, hi + 3)
        want = schoolbook(a, b, p, top)
        assert list(series._kronecker_product(tuple(a), tuple(b), top, p)) == want
        tl = EvaluationContext(Horizon(INTEGERS.element(top))).coefficients(
            series_of(a, p) * series_of(b, p))
        assert tl.complete and raw(tl) == want
    assert len(dense_calls) >= 40


@pytest.mark.parametrize("p", [None, 3, 7])
def test_truncated_operands_and_term_caps_agree_with_the_loop(p, loop_only):
    rng = random.Random(f"truncated:{p}")
    cases = []
    for _ in range(30):
        n = rng.randint(20, 60)
        a = series_of(operand(rng, p, n, rng.randint(-10, 10), rng.randint(0, n // 2)), p)
        b = series_of(operand(rng, p, n, rng.randint(-10, 10), rng.randint(0, n // 2)), p)
        # a truncation below the top keeps a finite frontier inside the product
        if rng.random() < 0.5:
            a = truncate(a, INTEGERS.element(rng.randint(0, 40)))
        cases.append((a * b, Horizon(INTEGERS.element(rng.randint(0, 150)),
                                     rng.choice((16, 20, 25, 40, 10000)))))
    dense = [EvaluationContext(h).coefficients(s) for s, h in cases]
    loop_only()
    loop = [EvaluationContext(h).coefficients(s) for s, h in cases]
    assert dense == loop
    assert [(t.complete, t.frontier) for t in dense] == [(t.complete, t.frontier) for t in loop]
    assert any(not t.complete for t in dense) and any(t.complete for t in dense)


def test_a_capped_operand_keeps_the_product_below_its_frontier(dense_calls):
    # a has 40 terms, so a term bound of 30 cuts it at t^30: the product is
    # exact below 30 + vmin(b) and says nothing from there on
    a = [(g, Fraction(g + 1, 3)) for g in range(40)]
    b = [(g, Fraction(-1) ** g) for g in range(5, 45)]
    tl = EvaluationContext(Horizon(INTEGERS.element(80), 30)).coefficients(
        series_of(a, None) * series_of(b, None))
    assert not tl.complete and tl.frontier == INTEGERS.element(35)
    assert raw(tl) == schoolbook(a, b, None, 34)[:30]
    assert dense_calls


def test_cli_term_bound_cap_on_a_dense_product(loop_only, dense_calls):
    # the cap cuts each 60-term operand at t^40, which stays dense
    rng = random.Random(2)
    text = "*".join(
        "(" + " + ".join(f"{rng.randint(1, 6)}*t^({e})" for e in range(60)) + ")"
        for _ in range(2))
    runs = []
    for _ in range(2):
        for extra in ([], ["--json"]):
            out = io.StringIO()
            assert main(["eval", text, "--field", "F7", "--term-bound", "40", *extra],
                        out, io.StringIO()) == 0
            runs.append(out.getvalue())
        loop_only()
    assert len(dense_calls) == 2
    assert runs[:2] == runs[2:]
    assert runs[0].endswith(" + O(t^(40))\n") and '"complete": false' in runs[1]


@pytest.mark.parametrize("p", [None, 7])
def test_operands_at_the_density_threshold(p, dense_calls):
    # 16 x 16 pairs against two spans of 32 slots: exactly 4 pairs per slot
    rng = random.Random(f"threshold:{p}")
    exps = [0] + sorted(rng.sample(range(1, 31), 14)) + [31]

    def terms(shift):
        c = (lambda: q_coefficient(rng)) if p is None else (lambda: rng.randint(1, p - 1))
        return [(g + shift, c()) for g in exps]

    a, b = terms(-7), terms(3)
    assert series._dense(a, b)
    assert not series._dense(a, b[:-1] + [(b[-1][0] + 1, b[-1][1])])  # one more gap
    assert not series._dense(a[1:], b)  # 15 terms
    top = 40
    tl = EvaluationContext(Horizon(INTEGERS.element(top))).coefficients(
        series_of(a, p) * series_of(b, p))
    assert raw(tl) == schoolbook(a, b, p, top)
    assert len(dense_calls) == 1
    wider = b[:-1] + [(b[-1][0] + 1, b[-1][1])]
    tl = EvaluationContext(Horizon(INTEGERS.element(top))).coefficients(
        series_of(a, p) * series_of(wider, p))
    assert raw(tl) == schoolbook(a, wider, p, top)
    assert len(dense_calls) == 1  # the loop took it


def test_small_operands_stay_on_the_loop():
    five = [(g, 1) for g in range(5)]
    long = [(g, 1) for g in range(1000)]
    assert not series._dense(five, five)
    assert not series._dense(long[:15], long)
    assert series._dense(long[:16], long)


def test_slots_hold_the_largest_coefficient_of_either_sign():
    # all-equal operands put n*M*M, the slot limit itself, in the middle
    # slot; the sizes make that limit's bit length every residue mod 8
    seen = set()
    for n in (16, 17, 24):
        for m in range(1, 160):
            for sign in (1, -1):
                a = [(g, Fraction(m)) for g in range(n)]
                b = [(g, Fraction(sign * m)) for g in range(n)]
                assert list(series._kronecker_product(a, b, 2 * n, None)) == \
                    schoolbook(a, b, None, 2 * n)
            seen.add((n * m * m).bit_length() % 8)
    assert seen == set(range(8))
    for p in (61, 67, 251, 257, 4093, BIG_PRIME):
        a = [(g, p - 1) for g in range(16)]
        assert list(series._kronecker_product(a, a, 40, p)) == schoolbook(a, a, p, 40)


def test_denominators_are_cleared_per_operand():
    a = [(g, Fraction(1, 3 + g % 4)) for g in range(20)]
    b = [(g, Fraction(-2, 5 + 2 * (g % 3))) for g in range(20)]
    assert list(series._kronecker_product(a, b, 50, None)) == schoolbook(a, b, None, 50)
    assert list(series._kronecker_product(b, a, 50, None)) == schoolbook(b, a, None, 50)
