import math
import random
from array import array
from fractions import Fraction

import pytest

from amoments import arith
from oracles import crt_pair, field_label, hilbert_brute

RNG_SEED = 0x5EED


def test_factor_examples():
    one = arith.factor(1)
    assert one.sign == 1 and one.factors == ()
    f = arith.factor(-56)
    assert f.sign == -1 and f.factors == ((2, 3), (7, 1))
    p = 10 ** 9 + 7
    assert arith.factor(p).factors == ((p, 1),)
    assert arith.is_prime(p)


def test_factor_rejects():
    with pytest.raises(ValueError):
        arith.factor(0)
    with pytest.raises(ValueError):
        arith.factor(1 << 63)
    with pytest.raises(ValueError):
        arith.factor(-(1 << 63))


def test_factor_roundtrip_random():
    rng = random.Random(RNG_SEED)
    for _ in range(300):
        n = rng.randint(2, 10 ** 12)
        f = arith.factor(n)
        assert math.prod(p ** e for p, e in f.factors) == n
        assert all(arith.is_prime(p) for p, _ in f.factors)


def test_factor_semiprime_beyond_trial_bound():
    p, q = 1_000_003, 1_000_033
    f = arith.factor(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factored_int_checks_direct_construction():
    with pytest.raises(ValueError):
        arith.FactoredInt(15, 1, ((15, 1),))
    with pytest.raises(ValueError):
        arith.FactoredInt(-1_000_003 * 1_000_033, -1, ((1_000_003 * 1_000_033, 1),))
    with pytest.raises(ValueError):
        arith.FactoredInt(12, 1, ((3, 1), (2, 2)))
    with pytest.raises(ValueError):
        arith.FactoredInt(13, 1, ((2, 2), (3, 1)))
    # what factor() builds unchecked passes the checks and compares equal
    for n in (1, -1, -56, 360, 10 ** 9 + 7, 1_000_003 * 1_000_033, -(2 ** 62) - 1):
        f = arith.factor(n)
        assert arith.FactoredInt(f.value, f.sign, f.factors) == f


def test_derived_arithmetic_functions():
    f = arith.factor(360)  # 2^3 * 3^2 * 5
    assert f.omega == 3 and f.big_omega == 6 and f.mobius == 0
    assert f.squarefree_part == 10
    assert arith.mobius(30) == -1 and arith.mobius(15) == 1
    assert arith.squarefree_part(-72) == -2
    assert sorted(arith.factor(12).divisors()) == [1, 2, 3, 4, 6, 12]


def test_jacobi_examples():
    for n in (1, 3, 5, 7, 9, 45):
        assert arith.jacobi(1, n) == 1
    assert arith.jacobi(2, 15) == 1
    assert arith.jacobi(3, 5) == -1
    assert arith.jacobi(3, 9) == 0
    with pytest.raises(ValueError):
        arith.jacobi(3, 4)
    with pytest.raises(ValueError):
        arith.jacobi(3, -5)


def test_jacobi_matches_euler_criterion_on_primes():
    for p in (3, 5, 7, 11, 13, 101, 997):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            assert arith.jacobi(a, p) == (1 if euler == 1 else -1)


def test_quadratic_reciprocity_exhaustive():
    for a in range(1, 501, 2):
        for b in range(1, 501, 2):
            if math.gcd(a, b) != 1:
                continue
            sign = -1 if (a % 4 == 3 and b % 4 == 3) else 1
            assert arith.jacobi(a, b) * arith.jacobi(b, a) == sign


def test_kronecker_examples():
    assert arith.kronecker(5, 2) == -1
    assert arith.kronecker(12, 5) == -1
    for a in (-7, -1, 0, 1, 2, 9):
        assert arith.kronecker(a, 1) == 1
    with pytest.raises(ValueError):
        arith.kronecker(3, 0)


def test_kronecker_agrees_with_jacobi():
    rng = random.Random(RNG_SEED)
    for _ in range(500):
        a = rng.randint(-1000, 1000)
        n = rng.randrange(1, 1000, 2)
        assert arith.kronecker(a, n) == arith.jacobi(a % n, n)


def test_kronecker_rule_at_two():
    # count of squares mod 8 fixes (a/2) for odd a: +1 iff a = +-1 mod 8
    for a in range(-50, 50):
        if a % 2 == 0:
            assert arith.kronecker(a, 2) == 0
        else:
            assert arith.kronecker(a, 2) == (1 if a % 8 in (1, 7) else -1)


def test_kronecker_multiplicative_in_modulus():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(300):
        a = rng.randint(-300, 300)
        m = rng.randint(2, 60)
        n = rng.randint(2, 60)
        assert arith.kronecker(a, m * n) == arith.kronecker(a, m) * arith.kronecker(a, n)


def test_star():
    assert arith.star(5) == 5
    assert arith.star(7) == -7
    assert arith.star(-3) == -3
    with pytest.raises(ValueError):
        arith.star(4)


def test_discriminant():
    assert arith.discriminant(5) == 5
    assert arith.discriminant(3) == 12
    assert arith.discriminant(-1) == -4
    for bad in (0, 1, 12):
        with pytest.raises(ValueError):
            arith.discriminant(bad)
    for n in range(-60, 60):
        if n in (0, 1) or not arith.is_squarefree(n):
            continue
        d = arith.discriminant(n)
        assert d % 4 in (0, 1)
        assert arith.is_fundamental_discriminant(d)
        assert field_label(d) == n


def test_prime_discriminant_decompose():
    assert [pd.value for pd in arith.prime_discriminant_decompose(-56)] == [8, -7]
    assert [pd.value for pd in arith.prime_discriminant_decompose(12)] == [-4, -3]
    assert [pd.value for pd in arith.prime_discriminant_decompose(5)] == [5]
    with pytest.raises(ValueError):
        arith.prime_discriminant_decompose(18)
    with pytest.raises(ValueError):
        arith.PrimeDiscriminant(9, 9)


def test_prime_discriminant_product_and_characters():
    odd_primes = [p for p in arith.small_primes() if 2 < p <= 100]
    for delta, _ in [*arith.fundamental_discriminants(3, 150, 1), *arith.fundamental_discriminants(3, 150, -1)]:
        parts = arith.prime_discriminant_decompose(delta)
        assert math.prod(pd.value for pd in parts) == delta
        for p in odd_primes:
            if delta % p == 0:
                continue
            lhs = arith.kronecker(delta, p)
            rhs = math.prod(arith.kronecker(pd.value, p) for pd in parts)
            assert lhs == rhs


def test_hilbert_examples():
    assert arith.hilbert_symbol(-1, -1, "inf") == -1
    assert arith.hilbert_symbol(-1, -1, 2) == -1
    for v in ("inf", 2, 3, 5):
        assert arith.hilbert_symbol(1, -77, v) == 1
        assert arith.hilbert_symbol(13, 1, v) == 1
    assert arith.hilbert_symbol(2, 5, 2) == -1
    for a, b in ((-1, -1), (-3, 7), (5, -2), (-6, -10)):
        assert arith.hilbert_symbol(a, b, math.inf) == arith.hilbert_symbol(a, b, "inf")
    with pytest.raises(ValueError):
        arith.hilbert_symbol(0, 3, 5)
    for v in (0, 1, 4, 9):
        with pytest.raises(ValueError):
            arith.hilbert_symbol(2, 3, v)


def _is_square_by_enumeration(sign: int, u: int, k: int, p: int) -> bool:
    """Whether sign * u * p^k (p not dividing u) is a square in Q_p."""
    if k % 2:
        return False
    if p == 2:
        return sign * u % 8 == 1
    return sign * u % p in {y * y % p for y in range(1, p)}


def test_local_coords_vanish_exactly_on_squares():
    for p in (2, 3, 5, 7, 11):
        units = [u for u in range(1, 200) if u % p]
        for u in units:
            for sign in (1, -1):
                for k in range(4):
                    want = _is_square_by_enumeration(sign, u, k, p)
                    assert (not any(arith.local_coords(sign * u * p ** k, p))) == want, (sign, u, k, p)
                    # x / y^2 and x * y^2 lie in the class of x
                    y = units[(u * 7 + k) % len(units)] * p ** (k % 3)
                    for x in (Fraction(sign * u * p ** k, y * y), Fraction(sign * u * p ** k * y * y)):
                        assert (not any(arith.local_coords(x, p))) == want, (x, p)
    with pytest.raises(ValueError):
        arith.local_coords(Fraction(0), 3)


def test_hilbert_accepts_fractions():
    # p/q and p*q represent the same square class
    assert arith.hilbert_symbol(Fraction(-1, 2), Fraction(5, 3), 3) == arith.hilbert_symbol(
        -2, 15, 3
    )


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = random.Random(RNG_SEED + 2)
    places = ["inf", 2, 3, 5, 7, 11]
    vals = [x for x in range(-30, 31) if x != 0]
    for _ in range(400):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        v = rng.choice(places)
        assert arith.hilbert_symbol(a, b, v) == arith.hilbert_symbol(b, a, v)
        assert arith.hilbert_symbol(a * b, c, v) == arith.hilbert_symbol(
            a, c, v
        ) * arith.hilbert_symbol(b, c, v)


def test_hilbert_against_brute_force_search():
    rng = random.Random(RNG_SEED + 3)
    pairs = [(-1, -1), (-1, 2), (2, 5), (3, 3), (-2, -5), (5, 7), (6, 10)]
    for _ in range(60):
        pairs.append((rng.choice([-1, 1]) * rng.randint(1, 30), rng.choice([-1, 1]) * rng.randint(1, 30)))
    for a, b in pairs:
        places = {"inf", 2}
        places.update(p for p, _ in arith.factor(2 * a * b).factors)
        for v in places:
            assert arith.hilbert_symbol(a, b, v) == hilbert_brute(a, b, v), (a, b, v)


def test_hilbert_product_formula():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(1000):
        a = rng.choice([-1, 1]) * rng.randint(1, 5000)
        b = rng.choice([-1, 1]) * rng.randint(1, 5000)
        places = ["inf"] + [p for p, _ in arith.factor(2 * a * b).factors]
        prod = math.prod(arith.hilbert_symbol(a, b, v) for v in places)
        assert prod == 1


def test_sqf_decompose():
    assert arith.sqf_decompose(1) == arith.SqfDecomposition(1, 1, 1)
    assert arith.sqf_decompose(72) == arith.SqfDecomposition(6, 2, 1)
    for a in (2, 3, 30, 105):
        assert arith.sqf_decompose(a) == arith.SqfDecomposition(1, 1, a)
    with pytest.raises(ValueError):
        arith.sqf_decompose(0)


def test_sqf_decompose_roundtrip_and_invariants():
    spf = arith.spf_cached(10 ** 5)
    for a in range(1, 10 ** 5 + 1):
        d = arith.sqf_decompose(a)
        assert d.value == a
        assert d.alpha % d.beta == 0
        assert math.gcd(d.alpha * d.beta, d.gamma) == 1
        bg = d.beta * d.gamma
        assert all(e == 1 for _, e in arith.factor_by_spf(bg, spf))


def test_sqf_decompose_unique_by_exhaustion():
    for a in range(1, 10 ** 4 + 1):
        found = []
        for alpha in range(1, math.isqrt(a) + 1):
            if a % (alpha * alpha):
                continue
            rest = a // (alpha * alpha)
            # beta must divide both alpha and the remaining part
            for beta in arith.divisors(math.gcd(alpha, rest)):
                gamma = rest // beta
                if rest % beta == 0 and math.gcd(alpha * beta, gamma) == 1 and arith.is_squarefree(
                    beta * gamma
                ):
                    found.append((alpha, beta, gamma))
        d = arith.sqf_decompose(a)
        assert found == [(d.alpha, d.beta, d.gamma)], a


def test_fundamental_discriminants():
    assert [d for d, _ in arith.fundamental_discriminants(3, 20, -1)] == [-3, -4, -7, -8, -11, -15, -19, -20]
    assert [d for d, _ in arith.fundamental_discriminants(1, 20, 1)] == [5, 8, 12, 13, 17]
    assert list(arith.fundamental_discriminants(3, 3, 1)) == []
    for bad in ((3, 2, 1), (1, 20, 0)):
        with pytest.raises(ValueError):
            list(arith.fundamental_discriminants(*bad))
    # completeness against the direct predicate, and omega against factor()
    for sign in (1, -1):
        pairs = list(arith.fundamental_discriminants(3, 3000, sign))
        direct = [sign * n for n in range(1, 3001) if arith.is_fundamental_discriminant(sign * n)]
        assert [d for d, _ in pairs] == direct
        assert [om for _, om in pairs] == [arith.omega(d) for d in direct]


def test_fundamental_discriminants_chunks_concatenate():
    for sign in (1, -1):
        whole = list(arith.fundamental_discriminants(3, 6000, sign))
        for chunk in (1, 97, 1000, 2500):
            parts = []
            for lo, hi in arith.split_ranges(3, 6000, chunk, (4000,)):
                parts += arith.fundamental_discriminants(lo, hi, sign)
            assert parts == whole, (sign, chunk)
        # lo below 3, lo inside the range, lo = hi (fundamental and not), an empty range
        for lo, hi in ((1, 40), (1501, 2300), (3299, 3299), (3300, 3300), (10, 9)):
            expected = [(d, om) for d, om in whole if lo <= abs(d) <= hi]
            assert list(arith.fundamental_discriminants(lo, hi, sign)) == expected, (sign, lo, hi)


def test_ext_gcd_and_crt():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, x, y = arith.ext_gcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g
    assert crt_pair(2, 3, 3, 5) == 8
    with pytest.raises(ValueError):
        crt_pair(1, 4, 0, 6)


def _trial_is_prime(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    for n in [*range(-5, 2 * 10 ** 4), *range(10 ** 6 - 200, 10 ** 6 + 201)]:
        assert arith.is_prime(n) == _trial_is_prime(n), n


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty prime and smallest-prime-factor tables, restored afterwards."""
    monkeypatch.setattr(arith, "_prime_table", (0, []))
    monkeypatch.setattr(arith, "_spf_table", array("i"))


def test_small_primes_grow_on_demand(cold_tables):
    reference = [n for n in range(2, 5000) if _trial_is_prime(n)]
    for L in (0, 1, 2, 3, 4, 7, 8, 9, 31, 32, 33, 127, 128, 129, 1023, 1024, 1025, 4095, 4096, 4097):
        primes = arith.small_primes(L)
        assert primes == sorted(set(primes))
        assert [p for p in primes if p <= L] == [p for p in reference if p <= L], L
        assert all(_trial_is_prime(p) for p in primes[-20:])
    # grow-only: a smaller request returns the larger table
    assert arith.small_primes(10) is arith.small_primes(4097)
    for L in (10 ** 6 - 1, 10 ** 6, 10 ** 6 + 1):
        primes = arith.small_primes(L)
        assert len([p for p in primes if p <= L]) == 78498  # pi(10^6)
        near = set(primes[-100:])
        assert [n for n in range(10 ** 6 - 1000, L + 1) if _trial_is_prime(n)] == sorted(
            p for p in near if p >= 10 ** 6 - 1000
        )
    assert arith._prime_table[0] == 10 ** 6


def test_small_primes_default_is_the_full_table(cold_tables):
    primes = arith.small_primes()
    assert len(primes) == 78498
    assert primes[:5] == [2, 3, 5, 7, 11] and primes[-1] == 999983
    assert arith.small_primes(2 * 10 ** 6) is primes


def test_is_prime_and_factor_grow_the_table_by_steps(cold_tables):
    checks = [*range(-3, 40), 97, 1000, 1009, 4093, 65521, 65537, 10 ** 6, 10 ** 6 + 3, 999983]
    checks += [2 ** 31 - 1, 1_000_003 * 999_983, 1_000_003 ** 2]
    tops = []
    for n in checks:
        if n <= 10 ** 6 + 3:
            assert arith.is_prime(n) == _trial_is_prime(n), n
        if n >= 1:
            fac = arith.factor(n)
            assert math.prod(p ** e for p, e in fac.factors) == n
            assert all(_trial_is_prime(p) for p, _ in fac.factors if p < 10 ** 7), n
        tops.append(arith._prime_table[0])
    assert tops == sorted(tops) and tops[-1] == 10 ** 6
    assert all(t & (t - 1) == 0 or t == 10 ** 6 for t in tops)


def test_factoring_small_numbers_sieves_little(cold_tables):
    for n in range(1, 10 ** 4 + 1):
        fac = arith.factor(n)
        assert math.prod(p ** e for p, e in fac.factors) == n
    assert arith._prime_table[0] <= 2 ** 7


def test_spf_table_only_grows(cold_tables):
    def reference(limit):
        spf = [next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n) for n in range(2, limit + 1)]
        return [0, 1] + spf

    big = arith.spf_cached(5000)
    assert list(big) == reference(len(big) - 1)
    assert arith.spf_cached(100) is big
    assert arith.spf_cached(len(big) - 1) is big
    bigger = arith.spf_cached(len(big))
    assert len(bigger) > len(big)
    assert list(bigger) == reference(len(bigger) - 1)
