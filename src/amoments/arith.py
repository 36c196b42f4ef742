"""Exact integer arithmetic: factorization, quadratic symbols, local square
classes and the Hilbert symbol, discriminants and square-free decompositions.

Everything here is a pure function of its arguments, but `write_replacing`,
the one file writer of the CLI's output and the class-group cache, kept here
as every command loads this module.  Symbols are returned as integers in
{-1, 0, +1}; the additive GF(2) convention (-1 -> 1, +1 -> 0) is applied by
callers at module boundaries via :func:`sym_to_gf2`.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from typing import Iterator, NamedTuple

_INT64_LIMIT = 1 << 63

# Witnesses sufficient for deterministic Miller-Rabin below 3.3 * 10^24,
# comfortably covering the 64-bit input domain.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

PRIME_TABLE_BOUND = 10 ** 6
# (limit, every prime <= limit), assigned as one tuple so a reader never sees
# a limit without its primes
_prime_table: tuple[int, list[int]] = (0, [])


def _sieve_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(compress(range(limit + 1), sieve))


def small_primes(limit: int = PRIME_TABLE_BOUND) -> list[int]:
    """Every prime up to min(limit, 10^6), increasing, from the one prime
    table of the process.

    The table is sieved on demand to the next power of two, capped at 10^6,
    and only grows, so the list may run past `limit`: callers stop at their
    own bound.  A process that factors nothing larger than n sieves no
    further than about sqrt(n).
    """
    global _prime_table
    limit = min(limit, PRIME_TABLE_BOUND)
    if limit > _prime_table[0]:
        top = min(1 << (limit - 1).bit_length(), PRIME_TABLE_BOUND)
        _prime_table = (top, _sieve_primes(top))
    return _prime_table[1]


def is_prime(n: int) -> bool:
    """Exact primality: a lookup in the prime table up to 10^6, and
    deterministic Miller-Rabin above that, valid for all inputs below 2^64."""
    if n <= PRIME_TABLE_BOUND:
        top, primes = _prime_table
        if n > top:
            primes = small_primes(n)
        i = bisect_left(primes, n)
        return i < len(primes) and primes[i] == n
    for p in _MR_WITNESSES:
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed % n, (seed + 1) % n or 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


class _FactoredFields(NamedTuple):
    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]


class FactoredInt(_FactoredFields):
    """A nonzero signed integer with its complete prime factorization."""

    __slots__ = ()

    def __new__(cls, value: int, sign: int, factors: tuple[tuple[int, int], ...]):
        prod = sign
        prev = 0
        for p, e in factors:
            if p <= prev or e < 1:
                raise ValueError("factors must have increasing primes and exponents >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p ** e
        if prod != value:
            raise ValueError("factorization does not multiply back to value")
        return super().__new__(cls, value, sign, factors)

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def big_omega(self) -> int:
        return sum(e for _, e in self.factors)

    @property
    def mobius(self) -> int:
        if any(e > 1 for _, e in self.factors):
            return 0
        return -1 if self.omega % 2 else 1

    @property
    def squarefree_part(self) -> int:
        out = self.sign
        for p, e in self.factors:
            if e % 2:
                out *= p
        return out

    def divisors(self) -> list[int]:
        """Positive divisors of |value|, unsorted."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p ** i for d in divs for i in range(e + 1)]
        return divs


def _proven(cls, *fields):
    """Build a record without the checks of its __new__, for fields whose
    primes factor() has just proven."""
    return tuple.__new__(cls, fields)


def factor(n: int) -> FactoredInt:
    """Factor a nonzero integer with |n| < 2^63.

    Trial division by the primes up to min(sqrt|n|, 10^6), then Brent's rho
    with deterministic Miller-Rabin on the cofactor.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    if abs(n) >= _INT64_LIMIT:
        raise ValueError("input exceeds the 64-bit working range")
    sign = 1 if n > 0 else -1
    m = abs(n)
    fac: dict[int, int] = {}
    for p in small_primes(math.isqrt(m)):
        if p * p > m:
            break
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    if m > 1:
        if m < PRIME_TABLE_BOUND * PRIME_TABLE_BOUND or is_prime(m):
            fac[m] = fac.get(m, 0) + 1
        else:
            _factor_into(m, fac)
    return _proven(FactoredInt, n, sign, tuple(sorted(fac.items())))


def omega(n: int) -> int:
    return factor(n).omega


def mobius(n: int) -> int:
    return factor(n).mobius


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return factor(n).mobius != 0


def squarefree_part(n: int) -> int:
    """n divided by its largest square divisor (keeps the sign)."""
    return factor(n).squarefree_part


def divisors(n: int) -> list[int]:
    return sorted(factor(n).divisors())


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol needs an odd positive modulus")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for nonzero n, with the standard rules at 2 and -1."""
    if n == 0:
        raise ValueError("kronecker symbol needs a nonzero modulus")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 and a % 8 in (3, 5):
            result = -result
    return result * jacobi(a, n)


def sym_to_gf2(s: int) -> int:
    """Map a +-1 symbol to additive GF(2): +1 -> 0, -1 -> 1."""
    if s == 1:
        return 0
    if s == -1:
        return 1
    raise ValueError("symbol is 0: ramified evaluation has no GF(2) image")


def star(n: int) -> int:
    """n* : same absolute value as odd n, normalized to 1 mod 4."""
    if n % 2 == 0:
        raise ValueError("star is defined for odd integers")
    return n if n % 4 == 1 else -n


def discriminant(n: int) -> int:
    """Discriminant of the quadratic field Q(sqrt(n)), n square-free, not 0 or 1."""
    if n in (0, 1):
        raise ValueError("no quadratic field for n in {0, 1}")
    if not is_squarefree(n):
        raise ValueError("discriminant needs a square-free argument")
    return n if n % 4 == 1 else 4 * n


def is_fundamental_discriminant(d: int) -> bool:
    if d == 0 or d == 1:
        return False
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


class _PrimeDiscFields(NamedTuple):
    value: int
    conductor: int


class PrimeDiscriminant(_PrimeDiscFields):
    """A fundamental discriminant with exactly one prime divisor."""

    __slots__ = ()

    def __new__(cls, value: int, conductor: int):
        ok = (value in (-4, 8, -8) and conductor == 2) or (
            conductor % 2 == 1 and is_prime(conductor) and value == star(conductor)
        )
        if not ok:
            raise ValueError(f"{value} is not a prime discriminant")
        return super().__new__(cls, value, conductor)


def prime_discriminant_decompose(delta: int) -> list[PrimeDiscriminant]:
    """Split a fundamental discriminant into prime discriminants (conductor 2 first).

    The product of the returned values equals delta; the entry at 2, when
    present, lies in {-4, 8, -8}.
    """
    if not is_fundamental_discriminant(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    return _split_prime_discriminants(delta, factor(delta))


def _split_prime_discriminants(delta: int, fac: FactoredInt) -> list[PrimeDiscriminant]:
    """prime_discriminant_decompose for a fundamental delta, given the
    factorization of delta or of its square-free label (same odd primes)."""
    odd_parts = [
        _proven(PrimeDiscriminant, star(p), p) for p, _ in fac.factors if p != 2
    ]
    residual = delta
    for pd in odd_parts:
        residual //= pd.value
    if residual == 1:
        return odd_parts
    if residual not in (-4, 8, -8):
        raise AssertionError("fundamental discriminant decomposition failed")
    return [PrimeDiscriminant(residual, 2)] + odd_parts


def _val_unit(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def local_coords(x, v) -> tuple[int, ...]:
    """GF(2) coordinates of a nonzero rational x in Q_v*/Q_v*^2.

    v = 'inf' (or math.inf): (s,) with s = 1 iff x < 0.  Odd p: (v_p, chi)
    with chi = 1 iff the unit part is a non-residue mod p.  p = 2:
    (v_2, eps, omega) with eps = (u-1)/2 and omega = (u^2-1)/8 of the unit
    part u, mod 2.  A rational p/q is in the class of p*q.
    """
    if type(x) is int:  # the common case, ahead of the slower ABC check
        n = x
    else:
        n = x.numerator * x.denominator if isinstance(x, Fraction) else int(x)
    if n == 0:
        raise ValueError("zero has no square class")
    if v == "inf" or v is math.inf:
        return (1 if n < 0 else 0,)
    p = int(v)
    val, unit = _val_unit(abs(n), p)
    if n < 0:
        unit = -unit
    if p == 2:
        return (val % 2, ((unit - 1) // 2) % 2, ((unit * unit - 1) // 8) % 2)
    return (val % 2, sym_to_gf2(jacobi(unit, p)))


def hilbert_symbol(a, b, v) -> int:
    """Hilbert symbol (a, b)_v for v a prime or 'inf' (or math.inf).

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the completion
    at v.  Accepts nonzero ints or Fractions.  The symbol is the pairing of
    the local_coords of a and b (Serre, A Course in Arithmetic, III.1.2).
    """
    if v != "inf" and v is not math.inf and (int(v) < 2 or not is_prime(int(v))):
        raise ValueError(f"{v} is not a place")
    ca, cb = local_coords(a, v), local_coords(b, v)
    if len(ca) == 1:
        e = ca[0] & cb[0]
    elif len(ca) == 2:
        (va, chi_a), (vb, chi_b) = ca, cb
        e = va & vb & (int(v) % 4 == 3) ^ chi_a & vb ^ chi_b & va
    else:
        (va, eps_a, om_a), (vb, eps_b, om_b) = ca, cb
        e = eps_a & eps_b ^ va & om_b ^ vb & om_a
    return -1 if e else 1


class SqfDecomposition(NamedTuple):
    """The unique factorization a = alpha^2 * beta * gamma with beta*gamma
    square-free, beta | alpha and gcd(alpha*beta, gamma) = 1."""

    alpha: int
    beta: int
    gamma: int

    @property
    def value(self) -> int:
        return self.alpha ** 2 * self.beta * self.gamma


def sqf_decompose(a: int) -> SqfDecomposition:
    if a < 1:
        raise ValueError("sqf_decompose needs a positive integer")
    alpha = beta = gamma = 1
    for p, e in factor(a).factors:
        if e == 1:
            gamma *= p
        elif e % 2 == 0:
            alpha *= p ** (e // 2)
        else:
            alpha *= p ** ((e - 1) // 2)
            beta *= p
    return SqfDecomposition(alpha, beta, gamma)


def squarefree_sieve(limit: int) -> bytearray:
    """Byte table t with t[n] = 1 iff 1 <= n <= limit is square-free."""
    t = bytearray([1]) * (limit + 1)
    t[0] = 0
    for q in range(2, math.isqrt(limit) + 1):
        step = q * q
        t[step::step] = bytearray(len(t[step::step]))
    return t


_spf_table = array("i")


def spf_cached(limit: int) -> array:
    """Smallest-prime-factor table covering at least [0, limit]: the one
    table of the process, built to the next power of two and only grown."""
    global _spf_table
    if len(_spf_table) <= limit:
        key = 1 << max(limit, 4).bit_length()
        spf = array("i", range(key + 1))
        # descending, so the smallest prime writes last
        for p in reversed(small_primes(math.isqrt(key))):
            if p * p <= key:
                spf[p * p :: p] = array("i", [p]) * len(range(p * p, key + 1, p))
        _spf_table = spf
    return _spf_table


def factor_by_spf(n: int, spf) -> list[tuple[int, int]]:
    out = []
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def fundamental_discriminants(lo: int, hi: int, sign: int) -> Iterator[tuple[int, int]]:
    """(delta, omega(delta)) for the fundamental discriminants delta of the
    given sign with max(lo, 3) <= |delta| <= hi, ordered by |delta|.

    sign is +1 or -1; the unit discriminant 1 is excluded.  Only [lo, hi] is
    factored, from the smallest-prime-factor table of hi, so chunks of a
    sweep share the table and scan nothing twice.  |delta| = n is fundamental
    when delta = 1 mod 4 and n is square-free, or when n = 4m with
    sign * m = 2 or 3 mod 4 and m square-free; such an m is odd or twice odd,
    so only the odd primes of n need exponent 1.
    """
    if hi < 3:
        raise ValueError("need hi >= 3")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    spf = spf_cached(hi)
    odd = 2 - sign  # n mod 4 of an odd |delta| with delta = 1 mod 4
    for n in range(max(lo, 3), hi + 1):
        if n % 4 == odd or (n % 4 == 0 and sign * (n // 4) % 4 in (2, 3)):
            fac = factor_by_spf(n, spf)
            if all(e == 1 for p, e in fac if p != 2):
                yield sign * n, len(fac)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def split_ranges(lo: int, hi: int, chunk: int, boundaries=()) -> list[tuple[int, int]]:
    """Ascending subranges of [lo, hi] of at most `chunk` values, cut so that
    every requested boundary ends a subrange."""
    if chunk < 1:
        raise ValueError("chunk size must be at least 1")
    cuts = sorted({b for b in boundaries if lo <= b <= hi} | {hi})
    out = []
    start = lo
    for cut in cuts:
        while start <= cut:
            end = min(start + chunk - 1, cut)
            out.append((start, end))
            start = end + 1
    return out


def write_replacing(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory,
    then os.replace, so path holds the old text or the new, never a part.  A
    symlink is followed; a path that is no regular file (a device, a pipe) is
    written in place, as it cannot be replaced."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
