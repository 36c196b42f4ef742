import math
import random

import pytest
from oracles import alpha_realizing, field_label, g_from_eps

from amoments import arith, redei
from amoments.quadforms import class_group

RNG = random.Random(0xDEC0)


def test_build_redei_examples(monkeypatch):
    sys5 = redei.build_redei(5)
    assert sys5.matrix.rows == 1 and sys5.matrix.rank() == 0
    sys14 = redei.build_redei(-14)  # disc -56 = 8 * (-7)
    assert sys14.primes == (2, 7)
    assert sys14.matrix.rank() == 0
    sys_neg5 = redei.build_redei(-5)  # disc -20
    assert sys_neg5.matrix.rank() == 1
    with pytest.raises(ValueError):
        redei.build_redei(12)
    # the primes factor() has just proven are not proven again
    calls = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for m in range(-(10 ** 4), 10 ** 4 + 1):
        if m not in (0, 1) and arith.is_squarefree(m):
            redei.build_redei(m)
    assert calls == []


def test_row_sums_zero():
    for m in range(-80, 80):
        if m in (0, 1) or not arith.is_squarefree(m):
            continue
        sys = redei.build_redei(m)
        for row in sys.matrix.row_bits():
            assert bin(row).count("1") % 2 == 0, m


def test_rk4_narrow_examples():
    assert redei.rk4_narrow(5) == 0
    assert redei.rk4_narrow(-14) == 1
    assert redei.rk4_narrow(-5) == 0


def test_stevenhagen_agreement_small():
    for delta, _ in [*arith.fundamental_discriminants(3, 2000, -1), *arith.fundamental_discriminants(3, 800, 1)]:
        m = field_label(delta)
        g = class_group(delta, narrow=True)
        assert redei.rk4_narrow(m) == g.rk4, delta


def test_rk4_ordinary_at_most_narrow():
    for delta, _ in arith.fundamental_discriminants(3, 800, 1):
        narrow = class_group(delta, narrow=True)
        ordinary = class_group(delta, narrow=False)
        assert ordinary.rk4 <= narrow.rk4 + 1  # quotient can only drop dims by one
        assert ordinary.torsion(4) <= narrow.torsion(4)


def test_g_twisted_examples():
    for n in (1, 2, 5, 17):
        assert redei.g_twisted(1, n) == 1
    assert redei.g_twisted(15, 1) == 2
    assert redei.g_twisted(15, 7) == 1
    with pytest.raises(ValueError):
        redei.g_twisted(15, 3)


def test_g_twisted_matrix_15():
    t = redei.build_twisted(15, 1)
    assert t.odd_primes == (3, 5)
    assert [[t.matrix.entry(i, j) for j in range(2)] for i in range(2)] == [[1, 1], [1, 1]]
    t7 = redei.build_twisted(15, 7)
    assert [[t7.matrix.entry(i, j) for j in range(2)] for i in range(2)] == [[1, 1], [1, 0]]


def test_g_depends_only_on_squarefree_odd_part():
    # even parts and square factors are dropped by the construction
    for a, alpha in ((45, 2), (60, 7), (-90, 7)):
        qs = redei.build_twisted(a, alpha).odd_primes
        base = math.prod(qs)
        assert redei.g_twisted(a, alpha) == g_from_eps(
            base, tuple(arith.sym_to_gf2(arith.jacobi(alpha % q, q)) for q in qs)
        )


def test_periodicity():
    for _ in range(300):
        a = RNG.randint(2, 400)
        aprime = math.prod(redei.build_twisted(a, 1).odd_primes) or 1
        alpha = RNG.randint(1, 1000)
        if math.gcd(a, alpha) != 1 or math.gcd(a, alpha + aprime) != 1:
            continue
        assert redei.g_twisted(a, alpha) == redei.g_twisted(a, alpha + aprime)


def test_g_detector_examples():
    assert redei.g_detector(3, (0,)) == 2
    assert redei.g_detector(3, (1,)) == 1
    assert redei.g_detector(1, ()) == 1
    for mask in range(4):
        eps = (mask & 1, mask >> 1)
        assert redei.g_detector(15, eps) == g_from_eps(15, eps)
    with pytest.raises(ValueError):
        redei.g_detector(6, (0,))
    with pytest.raises(ValueError):
        redei.g_detector(9, (0,))


def test_detector_identity_sweep():
    for a in range(1, 300, 2):
        if not arith.is_squarefree(a):
            continue
        r = len(redei.build_twisted(a, 1).odd_primes)
        for mask in range(1 << r):
            eps = tuple((mask >> i) & 1 for i in range(r))
            alpha = alpha_realizing(a, eps)
            assert redei.g_detector(a, eps) == redei.g_twisted(a, alpha), (a, eps)


def test_all_kernel_sizes_matches_realized_alphas(monkeypatch):
    for a in (1, 3, 15, 105, 165):
        sizes = redei.all_kernel_sizes(a)
        r = len(redei.build_twisted(a, 1).odd_primes)
        assert len(sizes) == 1 << r
        for mask in range(1 << r):
            eps = tuple((mask >> i) & 1 for i in range(r))
            assert sizes[mask] == redei.g_twisted(a, alpha_realizing(a, eps))
    # against the divisor-sum detector, which builds no matrix
    for a in range(1, 3001, 2):
        if not arith.is_squarefree(a):
            continue
        sizes = redei.all_kernel_sizes(a)
        r = len(sizes).bit_length() - 1
        for mask, size in enumerate(sizes):
            eps = tuple((mask >> i) & 1 for i in range(r))
            assert size == redei.g_detector(a, eps), (a, eps)
    # one factorization per twist family, none per matrix entry
    calls = []
    factor = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or factor(n))
    redei.all_kernel_sizes(3 * 5 * 7 * 11 * 13)
    assert calls == [3 * 5 * 7 * 11 * 13]


def test_majorization_class_examples():
    assert redei.check_majorization_class(7, 1)
    assert redei.check_majorization_class(5, -3)
    with pytest.raises(ValueError):
        redei.check_majorization_class(6, 3)


def test_majorization_class_sweep():
    for _ in range(1000):
        m = RNG.choice([-1, 1]) * RNG.randint(1, 10 ** 4)
        n = RNG.choice([-1, 1]) * RNG.randint(1, 10 ** 4)
        m = arith.squarefree_part(m)
        n = arith.squarefree_part(n)
        if m == 0 or n == 0 or math.gcd(m, n) != 1:
            continue
        assert redei.check_majorization_class(m, n), (m, n)
