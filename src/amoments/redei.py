"""Quadratic-residue matrices over GF(2) controlling the 4-rank of class
groups, their diagonal twists, and the divisor-sum detector identity for the
twisted kernel size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .arith import PrimeDiscriminant, jacobi, nonresidue, sym_to_gf2
from .gf2 import Gf2Matrix, residue_bits, twist_diagonal, twist_kernel_sizes


@dataclass(frozen=True)
class RedeiSystem:
    m: int
    delta: int
    primes: tuple[int, ...]
    rho: tuple[PrimeDiscriminant, ...]
    matrix: Gf2Matrix


@dataclass(frozen=True)
class TwistedRedei:
    a: int
    odd_primes: tuple[int, ...]
    alpha_class: tuple[int, ...]
    matrix: Gf2Matrix


def build_redei(m: int) -> RedeiSystem:
    """The r x r residue matrix whose rank gives the narrow 4-rank.

    Off-diagonal entry (i, j) is the Frobenius value of the j-th prime
    discriminant character at p_i; diagonals make every row sum to zero.
    """
    if m in (0, 1) or (fac := arith.factor(m)).mobius == 0:
        raise ValueError("need a square-free integer distinct from 0 and 1")
    delta = m if m % 4 == 1 else 4 * m
    # conductor 2 first, then the odd primes in increasing order
    rho = tuple(arith._split_prime_discriminants(delta, fac))
    primes = tuple(pd.conductor for pd in rho)
    bits = residue_bits(primes, tuple(pd.value for pd in rho))
    return RedeiSystem(m, delta, primes, rho, Gf2Matrix(len(primes), len(primes), bits))


def rk4_narrow(m: int) -> int:
    """4-rank of the narrow class group of Q(sqrt(m)) via the matrix rank."""
    sys = build_redei(m)
    return len(sys.primes) - 1 - sys.matrix.rank()


def _odd_primes_of_squarefree_part(a: int) -> tuple[int, ...]:
    return tuple(p for p, e in arith.factor(a).factors if p != 2 and e % 2)


def _twisted_matrix(qs: tuple[int, ...], eps: tuple[int, ...]) -> Gf2Matrix:
    """Residue matrix of the odd primes qs (entry (i, j) is (q_j / q_i)) with
    its diagonal twisted by eps."""
    diag = sum(e << i for i, e in enumerate(eps))
    return Gf2Matrix(len(qs), len(qs), twist_diagonal(residue_bits(qs, qs), diag))


def build_twisted(a: int, alpha: int) -> TwistedRedei:
    """Diagonal twist of the residue matrix on the odd primes of the
    square-free part of a; depends on alpha only through its residue classes."""
    if a == 0:
        raise ValueError("need a nonzero integer")
    if math.gcd(a, alpha) != 1:
        raise ValueError("twist must be coprime to the modulus")
    qs = _odd_primes_of_squarefree_part(a)
    eps = tuple(sym_to_gf2(jacobi(alpha % q, q)) for q in qs)
    return TwistedRedei(a, qs, eps, _twisted_matrix(qs, eps))


def g_twisted(a: int, alpha: int) -> int:
    """Kernel size of the twisted matrix; periodic in alpha mod the odd
    square-free part of a."""
    return build_twisted(a, alpha).matrix.kernel_size()


def g_from_eps(a: int, eps: tuple[int, ...]) -> int:
    """g with the twist class given directly as a GF(2) vector."""
    qs = _odd_primes_of_squarefree_part(a)
    if len(eps) != len(qs):
        raise ValueError("twist-class vector has the wrong length")
    return _twisted_matrix(qs, eps).kernel_size()


def alpha_realizing(a: int, eps: tuple[int, ...]) -> int:
    """Some alpha coprime to a whose residue classes realize eps."""
    qs = _odd_primes_of_squarefree_part(a)
    if len(eps) != len(qs):
        raise ValueError("twist-class vector has the wrong length")
    alpha, mod = 1, 1
    for q, e in zip(qs, eps):
        alpha = arith.crt_pair(alpha, mod, nonresidue(q) if e else 1, q)
        mod *= q
    while math.gcd(alpha, a) != 1:
        alpha += mod
    return alpha


def all_kernel_sizes(a: int) -> list[int]:
    """Kernel sizes for every twist class of a, indexed by the eps bitmask."""
    qs = _odd_primes_of_squarefree_part(a)
    return twist_kernel_sizes(residue_bits(qs, qs), len(qs))


def g_detector(a: int, eps: tuple[int, ...]) -> Fraction:
    """Divisor-sum evaluation of the twisted kernel size.

    Sums 2^-r * prod_{p | d}(1 + t_p * ((a/d)/p)) * prod_{p | a/d}(1 + (d/p))
    over divisors d of a, with t_p = (-1)^(eps_i) at the i-th odd prime.
    """
    if a < 1 or a % 2 == 0 or not arith.is_squarefree(a):
        raise ValueError("need an odd square-free positive integer")
    qs = _odd_primes_of_squarefree_part(a)
    if len(eps) != len(qs):
        raise ValueError("twist-class vector has the wrong length")
    t = {q: (-1) ** e for q, e in zip(qs, eps)}
    r = len(qs)
    total = Fraction(0)
    for mask in range(1 << r):
        d = 1
        for i in range(r):
            if (mask >> i) & 1:
                d *= qs[i]
        cod = a // d
        term = 1
        for q in qs:
            if d % q == 0:
                term *= 1 + t[q] * jacobi(cod % q, q)
            else:
                term *= 1 + jacobi(d % q, q)
            if term == 0:
                break
        total += term
    return total / (1 << r)


def f_star(m: int, k: int = 1) -> Fraction:
    """Average of the twisted kernel size over all 2^r twist classes of m,
    raised to the k-th power."""
    if m < 1 or m % 2 == 0 or not arith.is_squarefree(m):
        raise ValueError("need an odd square-free positive integer")
    if k < 1:
        raise ValueError("need k >= 1")
    sizes = all_kernel_sizes(m)
    return (Fraction(sum(sizes), len(sizes))) ** k


def avg_gk(m: int, k: int) -> Fraction:
    """Average of the k-th power of the twisted kernel size (not the power of
    the average); this is the quantity the moment expansion reproduces."""
    sizes = all_kernel_sizes(m)
    return Fraction(sum(s ** k for s in sizes), len(sizes))


def check_majorization_class(m: int, n: int, k: int = 1) -> bool:
    """Whether 2^(k*rk4+) of the product field is killed by g(m,n)^k * 2^(k w(n)+k)."""
    if m == 0 or n == 0 or math.gcd(m, n) != 1:
        raise ValueError("need nonzero coprime integers")
    if k < 1:
        raise ValueError("need k >= 1")
    mn = arith.squarefree_part(m * n)
    rk4 = 0 if mn == 1 else rk4_narrow(mn)
    lhs = 2 ** (k * rk4)
    rhs = g_twisted(m, n) ** k * 2 ** (k * arith.omega(n) + k)
    return lhs <= rhs
