import math
from fractions import Fraction

import pytest

from amoments import arith, density
from amoments.density import (
    Poly,
    box_count,
    check_lemma_2_10,
    delta,
    frobenian_average,
    poly_density,
    poly_from_string,
    root_count_mod_p,
    roots_mod_p,
)


def test_delta_values():
    assert delta(3) == Fraction(1, 4)
    assert delta(2) == Fraction(1, 3)
    assert delta(4) == Fraction(1, 3)
    assert delta(8) == Fraction(1, 6)
    assert delta(9) == 0
    assert delta(16) == 0
    assert delta(1) == 1
    with pytest.raises(ValueError):
        delta(0)


def test_delta_multiplicative():
    for m in range(1, 1001):
        for n in (1, 2, 3, 4, 5, 8, 9, 12, 35):
            if math.gcd(m, n) == 1:
                assert delta(m * n) == delta(m) * delta(n), (m, n)


def test_poly_basics():
    P = poly_from_string("t^2 - 2")
    assert P.degree() == 2
    assert P.eval((5,)) == 23
    assert P.eval_mod((5,), 7) == 2
    Q = poly_from_string("t1*t2 + 3", nvars=2)
    assert Q.eval((2, 5)) == 13
    assert Poly.univariate([0, 1]) == poly_from_string("t")


def test_separability():
    assert poly_from_string("t").is_separable()
    assert poly_from_string("t^2 - 2").is_separable()
    assert poly_from_string("t*(t-1)*(t+2)").is_separable()
    assert not poly_from_string("t^2").is_separable()
    assert not poly_from_string("(t-1)^2*(t+1)").is_separable()
    assert not poly_from_string("7").is_separable()
    assert poly_from_string("t1^2 - t2", nvars=2).is_separable()
    assert not poly_from_string("(t1 - t2)^2", nvars=2).is_separable()


def test_poly_density_examples():
    t = poly_from_string("t")
    for p in (3, 5, 11):
        assert poly_density(t, p) == Fraction(1, p)
    assert poly_density(t, 5, (1,)) == Fraction(2, 25)
    assert poly_density(poly_from_string("t^2 - 2"), 7) == Fraction(2, 7)
    assert poly_density(t, 1, ()) == 1


def test_poly_density_letters_sum_to_total():
    for text, a in (("t", 15), ("t^2 - 2", 21), ("t*(t-1)*(t+2)", 5), ("t^2+1", 45)):
        P = poly_from_string(text)
        h = poly_density(P, a)
        parts = sum(poly_density(P, a, eps) for eps in density.all_letter_vectors(a))
        assert parts == h, (text, a)
    Q = poly_from_string("t1 + t2^2", nvars=2)
    assert sum(poly_density(Q, 5, eps) for eps in density.all_letter_vectors(5)) == poly_density(Q, 5)


def test_poly_density_rejects_oversized():
    with pytest.raises(ValueError):
        poly_density(poly_from_string("t1+t2+t3", nvars=3), 101)


def test_box_count_matches_direct():
    P = poly_from_string("t*(t-1)*(t+2)")
    B = 50
    for a in (1, 2, 3, 5, 6):
        direct = sum(1 for t in range(-B, B + 1) if P.eval((t,)) % a == 0)
        assert box_count(P, B, a) == direct


def test_check_lemma_2_10_linear():
    rep = check_lemma_2_10(poly_from_string("t"), 100, 100)
    assert rep["max_p_h"] == 1
    assert rep["max_p2_h_p2"] == 1
    assert rep["max_p2_letter_bias"] == Fraction(1, 2)  # |h(p,0th) - h/2| at letter +-1
    assert rep["max_box_deviation"] <= 5


def test_check_lemma_2_10_three_roots():
    P = poly_from_string("t*(t-1)*(t+2)")
    rep = check_lemma_2_10(P, 60, 60)
    # three distinct roots mod p > 3 gives p*h(p) = 3 exactly
    assert rep["max_p_h"] == 3
    assert rep["max_p2_h_p2"] <= 9
    assert rep["max_p2_letter_bias"] < 60


def test_check_lemma_2_10_quadratic_bias_bounded():
    rep = check_lemma_2_10(poly_from_string("t^2 - 2"), 100, 40)
    # at split p the zero letter absorbs one of the p lifts per root, so
    # p^2 * |h(p, e) - h(p)/2| is exactly 1; the point is that it is bounded
    assert rep["max_p2_letter_bias"] == 1
    with pytest.raises(ValueError):
        check_lemma_2_10(poly_from_string("t^2"), 20, 20)


def test_root_count_mod_p():
    P = poly_from_string("t^2 - 2")
    for p in (3, 5, 7, 11, 13, 17, 23, 31):
        direct = sum(1 for x in range(p) if (x * x - 2) % p == 0)
        assert root_count_mod_p(P, p) == direct, p
    Q = poly_from_string("(t-1)^2*(t+1)")
    assert root_count_mod_p(Q, 2) == 1  # t+1 = t-1 mod 2
    assert root_count_mod_p(Q, 5) == 2
    R = poly_from_string("t^3 - t - 1")
    for p in (2, 3, 5, 7, 11, 13, 101, 977):
        direct = sum(1 for x in range(p) if (x ** 3 - x - 1) % p == 0)
        assert root_count_mod_p(R, p) == direct, p
    for text, p in ROOT_EDGE_CASES:
        P = poly_from_string(text)
        assert root_count_mod_p(P, p) == len(brute_roots(P, p)), (text, p)


def brute_roots(P, p):
    """Roots of a univariate P in F_p by Horner evaluation at every residue."""
    coeffs = [0] * (P.degree() + 1)
    for (e,), c in P.terms:
        coeffs[e] = c % p
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


# p | leading coefficient, P = 0 mod p, repeated roots, P = x^p - x, constants
ROOT_EDGE_CASES = [
    ("3*t^2+3", 3),
    ("3*t^2+3", 5),
    ("6*t^2+6*t", 2),
    ("6*t^2+6*t", 3),
    ("6*t^2+6*t", 7),
    *(("(t-1)^2*(t+3)^3", p) for p in (2, 3, 5, 7, 11)),
    ("t^5-t", 5),
    ("t^5-t", 7),
    ("t^3-t", 3),
    ("7", 5),
    ("7", 7),
    ("-1", 2),
]


def test_roots_mod_p_against_brute_force():
    for text in ("t", "t*(t-1)*(t+2)", "t^2-2"):
        P = poly_from_string(text)
        for p in arith.small_primes():
            if p > 3000:
                break
            assert roots_mod_p(P, p) == brute_roots(P, p), (text, p)
    for text, p in ROOT_EDGE_CASES:
        P = poly_from_string(text)
        assert roots_mod_p(P, p) == brute_roots(P, p), (text, p)
    assert roots_mod_p(poly_from_string("6*t^2+6*t"), 3) == [0, 1, 2]
    assert roots_mod_p(poly_from_string("7"), 5) == []


def test_frobenian_average_examples():
    rep = frobenian_average(poly_from_string("t"), 10 ** 4)
    assert rep["average"] == 1
    assert rep["rational_irreducible_factors"] == 1
    rep = frobenian_average(poly_from_string("t*(t-1)"), 10 ** 4)
    assert rep["average"] == 2
    rep = frobenian_average(poly_from_string("t^2 - 2"), 2 * 10 ** 4)
    assert rep["rational_irreducible_factors"] == 1
    assert Fraction(9, 10) < rep["average"] < Fraction(11, 10)


def test_box_equidistribution_three_root_cubic():
    # empirical count vs density * (2B+1) within 5 * B^0.9
    P = poly_from_string("t*(t-1)*(t+2)")
    B = 1000
    for a in (1, 2, 3, 5, 7, 15, 30):
        for eps in density.all_letter_vectors(a):
            expected = poly_density(P, a, eps) * (2 * B + 1)
            got = box_count(P, B, a, eps)
            assert abs(got - expected) <= 5 * B ** 0.9, (a, eps)


def test_h3_level_small():
    rep = density.h3_level_report(3000, 1, None, -1)
    assert rep["fields"] > 0
    assert 0.5 < rep["ratio"] < 1.5
    rep3 = density.h3_level_report(3000, 3, None, -1)
    assert rep3["fields"] > 0
    rep3s = density.h3_level_report(3000, 3, {3: 1}, -1)
    assert rep3s["fields"] < rep3["fields"]
    with pytest.raises(ValueError):
        density.h3_level_report(100, 3, {5: 1}, -1)
