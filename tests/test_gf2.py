import random

import pytest

from amoments.gf2 import Gf2Matrix, identity
from oracles import kernel_brute

RNG = random.Random(0xBEEF)


def random_matrix(rng, rows, cols):
    return Gf2Matrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def test_rank_examples():
    assert identity(3).rank() == 3
    assert Gf2Matrix.from_entries([[1, 1], [1, 1]]).rank() == 1
    assert Gf2Matrix(0, 0).rank() == 0
    assert Gf2Matrix(0, 5).kernel_size() == 32


def test_kernel_size_examples():
    assert Gf2Matrix(2, 2).kernel_size() == 4
    assert Gf2Matrix.from_entries([[1, 1], [1, 1]]).kernel_size() == 2
    for n in (1, 4, 9):
        assert identity(n).kernel_size() == 1


def test_kernel_size_overflow():
    with pytest.raises(OverflowError):
        Gf2Matrix(1, 100).kernel_size()


def test_kernel_basis_examples():
    assert identity(4).kernel_basis() == []
    assert Gf2Matrix.from_entries([[1, 1]]).kernel_basis() == [0b11]


def test_dimension_limit():
    with pytest.raises(ValueError):
        Gf2Matrix(5000, 2)


def test_rank_transpose_and_bounds():
    for _ in range(200):
        rows, cols = RNG.randint(0, 10), RNG.randint(0, 10)
        m = random_matrix(RNG, rows, cols)
        r = m.rank()
        assert r <= min(rows, cols)
        assert m.transpose().rank() == r
        assert m.kernel_size() * (1 << r) == 1 << cols


def test_rank_invariant_under_permutation():
    for _ in range(100):
        rows, cols = RNG.randint(1, 8), RNG.randint(1, 8)
        m = random_matrix(RNG, rows, cols)
        ri = list(range(rows))
        ci = list(range(cols))
        RNG.shuffle(ri)
        RNG.shuffle(ci)
        assert m.submatrix(ri, ci).rank() == m.rank()


def test_kernel_basis_against_exhaustive_enumeration():
    # structural checks on 10^4 random matrices up to 12 columns ...
    for _ in range(10 ** 4):
        rows, cols = RNG.randint(0, 12), RNG.randint(0, 12)
        m = random_matrix(RNG, rows, cols)
        basis = m.kernel_basis()
        assert len(basis) == cols - m.rank()
        for v in basis:
            assert m.mul_vec(v) == 0
        span = Gf2Matrix(len(basis), cols, basis)
        assert span.rank() == len(basis)
    # ... plus full 2^cols membership enumeration on a subsample
    for _ in range(500):
        rows, cols = RNG.randint(0, 10), RNG.randint(0, 10)
        m = random_matrix(RNG, rows, cols)
        brute = kernel_brute(m.row_bits(), cols)
        basis = m.kernel_basis()
        spanned = {0}
        for v in basis:
            spanned |= {s ^ v for s in spanned}
        assert spanned == brute


def test_minor_rank_and_kernel_drop():
    # dropping k rows and k columns moves rank by at most 2k, kernel by <= 4^k
    for _ in range(300):
        rows, cols = RNG.randint(2, 10), RNG.randint(2, 10)
        m = random_matrix(RNG, rows, cols)
        k = RNG.randint(1, min(rows, cols) - 1)
        ri = sorted(RNG.sample(range(rows), rows - k))
        ci = sorted(RNG.sample(range(cols), cols - k))
        sub = m.submatrix(ri, ci)
        assert abs(sub.rank() - m.rank()) <= 2 * k
        ratio_num = max(sub.kernel_size(), m.kernel_size())
        ratio_den = min(sub.kernel_size(), m.kernel_size())
        assert ratio_num <= ratio_den * 4 ** k


def test_immutability_of_inputs():
    bits = [0b11, 0b01]
    m = Gf2Matrix(2, 2, bits)
    m.rank()
    m.kernel_basis()
    bits[0] = 0
    assert m.row_bits() == [0b11, 0b01]
