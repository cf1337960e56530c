#!/usr/bin/env python3
"""A walk through the series engine: exact arithmetic, truncation,
valuation, inversion, and what the dual horizon means."""

from fractions import Fraction

from hahnseries import (
    INTEGERS,
    QQ,
    Horizon,
    coefficient_at,
    coefficients_up_to,
    factorize_for_inversion,
    from_terms,
    invert,
    lex_product,
    prime_field,
    render_terms,
    truncate,
    vmin,
)

z = INTEGERS.element
q = QQ.element


def show(label, series, bound, term_bound=10000):
    tl = coefficients_up_to(series, Horizon(z(bound), term_bound))
    print(f"{label:<38} {render_terms(tl)}")  # a truncated list ends in + O(t^(g))


print("== arithmetic is exact and lazy ==")
a = from_terms(INTEGERS, QQ, [(z(0), q(1)), (z(1), q(1))])          # 1 + t
b = from_terms(INTEGERS, QQ, [(z(0), q(1)), (z(1), q(-1))])         # 1 - t
show("(1 + t)(1 - t) =", a * b, 6)
show("sum with cancellation:", a + (-a), 6)

half = q(Fraction(2, 3))
c = from_terms(INTEGERS, QQ, [(z(0), q(1)), (z(1), q(-1)), (z(3), half)])
show("rational coefficients:", c, 6)

print()
print("== truncation keeps strict initial segments ==")
s = from_terms(INTEGERS, QQ, [(z(0), q(1)), (z(1), q(2)), (z(2), q(3))])
show("s =", s, 6)
show("trunc(s, 2) =", truncate(s, z(2)), 6)
show("trunc(s, 2) inclusive =", truncate(s, z(2), inclusive=True), 6)

print()
print("== valuation and inversion ==")
fib = from_terms(INTEGERS, QQ, [(z(0), q(1)), (z(1), q(-1)), (z(2), q(-1))])
print("vmin(2t^2 + t^5) =", vmin(from_terms(INTEGERS, QQ, [(z(2), q(2)), (z(5), q(1))]),
                                Horizon(z(9))))
fact = factorize_for_inversion(from_terms(INTEGERS, QQ, [(z(3), q(2)), (z(4), q(1))]),
                               Horizon(z(9)))
print(f"2t^3 + t^4 factors with g0={fact.g0}, leading coefficient {fact.lead}")
show("1/(1 - t - t^2) =", invert(fib), 8)
print("coefficient of t^7 in 1/(1-t):",
      coefficient_at(invert(b), z(7), Horizon(z(9))))

print()
print("== the vanishing coefficient over F_p ==")
for p in (2, 3, 5):
    fp = prime_field(p)
    one, minus = fp.one, fp.element(-1)
    g = from_terms(INTEGERS, fp, [(z(0), one), (z(1), minus), (z(p), one)])
    coeff = coefficient_at(invert(g, Horizon(z(p + 1))), z(p), Horizon(z(p + 1)))
    print(f"  (1 - t + t^{p})^-1 over F_{p}: coefficient at {p} is {coeff}")

print()
print("== the term budget makes omega-type supports finite ==")
L2 = lex_product(2)
u = from_terms(L2, QQ, [(L2.element((0, 0)), q(1)), (L2.element((0, 1)), q(-1))])
tl = coefficients_up_to(invert(u, witness=L2.element((0, 0))),
                        Horizon(L2.element((1, 0)), 8))
print("1/(1 - t^(0,1)) below (1,0) with an 8-term budget:")
print(" ", render_terms(tl))
print("  complete?", tl.complete, "- every point below", tl.frontier, "is exact")
