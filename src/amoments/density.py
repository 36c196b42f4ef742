"""Density-side inputs for the sieve: the multiplicative density driving
3-torsion averages, exact polynomial congruence densities with residue-class
refinements, and their finite-box equidistribution checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product, zip_longest
from typing import NamedTuple

from . import arith, quadforms

ENUM_CAP = 10 ** 6
MAX_VARS = 3


def delta(m: int) -> Fraction:
    """Multiplicative density: 1/(p+1) at primes, 1/3 at 4, 1/6 at 8,
    zero on all other higher prime powers."""
    if m < 1:
        raise ValueError("need m >= 1")
    out = Fraction(1)
    for p, e in arith.factor(m).factors if m > 1 else ():
        if e == 1:
            out *= Fraction(1, p + 1)
        elif p == 2 and e == 2:
            out *= Fraction(1, 3)
        elif p == 2 and e == 3:
            out *= Fraction(1, 6)
        else:
            return Fraction(0)
    return out


class _PolyFields(NamedTuple):
    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]


class Poly(_PolyFields):
    """Integer polynomial in up to three variables, kept as a sorted
    (exponent tuple -> coefficient) table."""

    __slots__ = ()

    def __new__(cls, nvars: int, terms: tuple[tuple[tuple[int, ...], int], ...]):
        if not (1 <= nvars <= MAX_VARS):
            raise ValueError(f"need between 1 and {MAX_VARS} variables")
        for mono, c in terms:
            if len(mono) != nvars or c == 0 or any(e < 0 for e in mono):
                raise ValueError("malformed term table")
        return super().__new__(cls, nvars, terms)

    @classmethod
    def from_terms(cls, nvars: int, table: dict[tuple[int, ...], int]) -> "Poly":
        terms = tuple(sorted((m, c) for m, c in table.items() if c))
        return cls(nvars, terms)

    @classmethod
    def univariate(cls, coeffs: list[int]) -> "Poly":
        """Coefficients in increasing degree order."""
        return cls.from_terms(1, {(i,): c for i, c in enumerate(coeffs) if c})

    def eval(self, point: tuple[int, ...]) -> int:
        return sum(c * math.prod(x ** e for x, e in zip(point, mono)) for mono, c in self.terms)

    def eval_mod(self, point: tuple[int, ...], mod: int) -> int:
        acc = 0
        for mono, c in self.terms:
            t = c % mod
            for x, e in zip(point, mono):
                if e:
                    t = t * pow(x, e, mod) % mod
            acc = (acc + t) % mod
        return acc

    def degree(self) -> int:
        return max((sum(m) for m, _ in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def _sympy(self):
        import sympy

        xs = sympy.symbols(f"t1:{self.nvars + 1}")
        expr = sum(
            c * math.prod(x ** e for x, e in zip(xs, mono)) for mono, c in self.terms
        )
        return sympy.Poly(expr, *xs)

    def is_separable(self) -> bool:
        """No repeated irreducible factor (gcd with each partial is trivial)."""
        if self.is_zero() or self.degree() == 0:
            return False
        import sympy

        _, factors = self._sympy().factor_list()
        return all(mult == 1 for _, mult in factors)

    def rational_irreducible_count(self) -> int:
        import sympy

        _, factors = self._sympy().factor_list()
        return len(factors)


_POLY_CHARS = frozenset("0123456789t+-*^() \t\n")


def poly_from_string(text: str, nvars: int = 1) -> Poly:
    """Parse an integer polynomial in t (univariate) or t1..t3."""
    if nvars < 1:
        raise ValueError("need nvars >= 1")
    # sympify evaluates its text as Python, so only polynomial syntax gets that far
    if not set(text) <= _POLY_CHARS:
        raise ValueError(f"not a polynomial: {text!r}")
    import sympy

    xs = sympy.symbols(f"t1:{nvars + 1}")
    local = {"t": xs[0]}
    local.update({f"t{i + 1}": xs[i] for i in range(nvars)})
    try:
        poly = sympy.Poly(sympy.sympify(text, locals=local, rational=True), *xs)
    except (sympy.SympifyError, sympy.PolynomialError, TypeError, AttributeError) as exc:
        raise ValueError(f"not a polynomial: {text!r}") from exc
    table: dict[tuple[int, ...], int] = {}
    for mono, c in zip(poly.monoms(), poly.coeffs()):
        if c.free_symbols:
            names = ", ".join(sorted(map(str, c.free_symbols)))
            raise ValueError(f"unknown symbols in polynomial: {names}")
        if not c.is_integer:
            raise ValueError("polynomial must have integer coefficients")
        table[tuple(mono)] = int(c)
    return Poly.from_terms(nvars, table)


def _odd_primes(a: int) -> list[int]:
    return [p for p, _ in arith.factor(a).factors if p != 2] if a > 1 else []


def _letters(a: int, epsilon: tuple[int, ...] | None) -> list[tuple[int, int]]:
    """The (odd prime of a, letter) pairs of a letter vector, which must
    have one letter in {1, -1, 0} for each odd prime of a; none without
    letters."""
    if epsilon is None:
        return []
    qs = _odd_primes(a)
    if len(epsilon) != len(qs) or any(e not in (-1, 0, 1) for e in epsilon):
        raise ValueError("need one letter in {1, -1, 0} for each odd prime of a")
    return list(zip(qs, epsilon))


def _count_matching(values, a: int, letters: list[tuple[int, int]]) -> int:
    """How many values v are divisible by a with ((v/a) | q) = e for every
    letter pair (q, e)."""
    return sum(1 for v in values if v % a == 0 and all(arith.jacobi(v // a, q) == e for q, e in letters))


def poly_density(P: Poly, a: int, epsilon: tuple[int, ...] | None = None) -> Fraction:
    """Exact density of P = 0 mod a, refined by residue-symbol letters.

    With epsilon given (entries in {1, -1, 0} indexed by the odd primes of a),
    counts tuples mod a*q1*...*qr with P = 0 mod a and ((P/a) mod qi | qi)
    matching every letter; the full enumeration stays exact.
    """
    if a < 1:
        raise ValueError("need a >= 1")
    n = P.nvars
    letters = _letters(a, epsilon)
    mod = a * math.prod(q for q, _ in letters)
    if mod ** n > ENUM_CAP:
        raise ValueError("enumeration domain exceeds the configured cap")
    points = product(range(mod), repeat=n)
    return Fraction(_count_matching((P.eval_mod(pt, mod) for pt in points), a, letters), mod ** n)


def all_letter_vectors(a: int) -> list[tuple[int, ...]]:
    return list(product((1, -1, 0), repeat=len(_odd_primes(a))))


def box_count(P: Poly, B: int, a: int, epsilon: tuple[int, ...] | None = None) -> int:
    """#{max|t_i| <= B : a | P(t), residue letters match}."""
    n = P.nvars
    if (2 * B + 1) ** n > 4 * ENUM_CAP:
        raise ValueError("box too large for exact enumeration")
    letters = _letters(a, epsilon)
    return _count_matching(map(P.eval, product(range(-B, B + 1), repeat=n)), a, letters)


THETA = 0.2


def check_lemma_2_10(P: Poly, pmax: int, B: int) -> dict:
    """Empirical constants for the density bounds and the box count error.

    Reports max p*h(p), max p^2*h(p^2), max p^2*|h(p,eps) - h(p)/2| over odd
    primes up to pmax, and the largest box deviation |count - h(a,eps)(2B)^n|
    normalized by B^(n - THETA) over a <= B^THETA.  Every enumeration cap is
    checked before the first density: the letter densities run over p^(2n)
    residues.
    """
    if B < 1:
        raise ValueError("need a box size B >= 1")
    if not P.is_separable():
        raise ValueError("polynomial must be separable of degree >= 1")
    n = P.nvars
    odd_primes = [p for p in arith.small_primes(pmax) if 2 < p <= pmax]
    if not odd_primes:
        raise ValueError("no primes below the cutoff")
    if odd_primes[-1] ** (2 * n) > ENUM_CAP:
        raise ValueError(f"need p^{2 * n} <= {ENUM_CAP} at the largest odd prime p <= pmax, got {odd_primes[-1]}")
    if (2 * B + 1) ** n > 4 * ENUM_CAP:
        raise ValueError("box too large for exact enumeration")
    c1 = Fraction(0)
    c2 = Fraction(0)
    c5 = Fraction(0)
    for p in odd_primes:
        hp = poly_density(P, p)
        c1 = max(c1, p * hp)
        c2 = max(c2, p * p * poly_density(P, p * p))
        for e in (1, -1):
            he = poly_density(P, p, (e,))
            c5 = max(c5, p * p * abs(he - hp / 2))
    box_max = Fraction(0)
    amax = max(1, int(B ** THETA))
    for a in range(1, amax + 1):
        for eps in all_letter_vectors(a):
            expected = poly_density(P, a, eps) * (2 * B + 1) ** n
            got = box_count(P, B, a, eps)
            box_max = max(box_max, abs(got - expected))
    return {
        "max_p_h": c1,
        "max_p2_h_p2": c2,
        "max_p2_letter_bias": c5,
        "max_box_deviation": box_max,
        "box_deviation_normalized": float(box_max) / B ** (n - THETA),
        "pmax": pmax,
        "B": B,
        "theta": THETA,
    }


# ---------------------------------------------------------------------------
# root counts over F_p and the average over primes


def _poly_mod_p(P: Poly, p: int) -> list[int]:
    if P.nvars != 1:
        raise ValueError("prime-splitting averages support univariate polynomials only")
    deg = P.degree()
    coeffs = [0] * (deg + 1)
    for (e,), c in P.terms:
        coeffs[e] = c % p
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _pm_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = a[:]
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        f = a[-1] * inv % p
        shift = len(a) - len(b)
        q[shift] = f
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - f * bc) % p
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _pm_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        _, r = _pm_divmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pm_mulmod(a: list[int], b: list[int], mod_poly: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    _, r = _pm_divmod(out, mod_poly, p)
    return r


def _pm_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _pm_powmod(base: list[int], e: int, mod_poly: list[int], p: int) -> list[int]:
    """base^e mod mod_poly (e >= 1) by square and multiply."""
    result = [1]
    while e:
        if e & 1:
            result = _pm_mulmod(result, base, mod_poly, p)
        base = _pm_mulmod(base, base, mod_poly, p)
        e >>= 1
    return result


def _root_gcd(P: Poly, p: int) -> list[int] | None:
    """g = gcd(x^p - x, P mod p), monic: the product of (x - a) over the
    distinct roots a of P in F_p, since x^p - x is the product of all
    (x - a). None when P = 0 mod p."""
    f = _poly_mod_p(P, p)
    if len(f) <= 1:
        return [1] if f else None
    return _pm_gcd(f, _pm_sub(_pm_powmod([0, 1], p, f, p), [0, 1], p), p)


def _split_roots(g: list[int], p: int) -> list[int]:
    """Roots of a monic product g of distinct linear factors over F_p.

    h = gcd((x + c)^((p-1)/2) - 1, g) collects the roots a with a + c a
    nonzero square. The shifts c = 0, 1, 2, ... are fixed; for two roots
    a != b some shift separates them, as translation by b - a does not
    preserve the nonzero squares.
    """
    deg = len(g) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-g[0] % p]
    if deg == p:
        return list(range(p))  # g = x^p - x
    for c in range(p):
        h = _pm_gcd(g, _pm_sub(_pm_powmod([c, 1], (p - 1) // 2, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return _split_roots(h, p) + _split_roots(_pm_divmod(g, h, p)[0], p)
    raise AssertionError("no shift splits the root product")


def roots_mod_p(P: Poly, p: int) -> list[int]:
    """The distinct roots of P in F_p, increasing (every residue when
    P = 0 mod p)."""
    g = _root_gcd(P, p)
    return list(range(p)) if g is None else sorted(_split_roots(g, p))


def root_count_mod_p(P: Poly, p: int) -> int:
    """Number of distinct roots of P in F_p: the degree of gcd(x^p - x, P)."""
    g = _root_gcd(P, p)
    return p if g is None else len(g) - 1


def frobenian_average(P: Poly, pmax: int) -> dict:
    """Average over p <= pmax of the number of F_p-rational components of
    P = 0 (distinct roots for univariate P), with the rational irreducible
    factor count it converges to."""
    if P.is_zero():
        raise ValueError("need a nonzero polynomial")
    if pmax > arith.PRIME_TABLE_BOUND:
        raise ValueError(f"need pmax <= {arith.PRIME_TABLE_BOUND}")
    primes = [p for p in arith.small_primes(pmax) if p <= pmax]
    if not primes:
        raise ValueError("no primes below the cutoff")
    total = sum(root_count_mod_p(P, p) for p in primes)
    return {
        "average": Fraction(total, len(primes)),
        "n_primes": len(primes),
        "rational_irreducible_factors": P.rational_irreducible_count(),
    }


# ---------------------------------------------------------------------------
# 3-torsion level-of-distribution experiment (oracle-backed)


def h3_level_tasks(
    X: int, m: int, letters: dict[int, int] | None, sign: int, chunk: int
) -> list[tuple]:
    """Chunk tasks (lo, hi, m, letters, sign) comparing the sum of (h_3 - 1)
    over the fields whose label is divisible by m with the density
    prediction: |disc| from 3 to X - 1 in ranges of at most `chunk`.

    letters maps a subset of the odd primes of m to a required value of the
    residue symbol of (label / m); each condition halves the main term.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if m < 1:
        raise ValueError("need m >= 1")
    if X < 4:
        raise ValueError("need X >= 4: no |disc| below 3 exists")
    if sign > 0 and X < 6:
        raise ValueError("need X >= 6 with sign +1: the least real fundamental discriminant is 5")
    if X - 1 > quadforms.DISC_BOUND:
        raise ValueError(f"oracle supports |disc| <= {quadforms.DISC_BOUND}")
    letters = dict(letters or {})
    qs = {p for p, _ in arith.factor(m).factors if p != 2} if m > 1 else set()
    if any(q not in qs or e not in (1, -1) for q, e in letters.items()):
        raise ValueError("letters must assign +-1 to odd primes of m")
    letters = tuple(sorted(letters.items()))
    return [(lo, hi, m, letters, sign) for lo, hi in arith.split_ranges(3, X - 1, chunk)]


def h3_level_chunk(lo: int, hi: int, m: int, letters, sign: int) -> tuple[int, int]:
    """(sum of h_3 - 1, field count) over the fields of the given sign with
    lo <= |disc| <= hi whose label is divisible by m and whose residue
    symbols of (label / m) match the (q, e) letter pairs."""
    total = 0
    count = 0
    for absd, _, _, _, (h3,) in quadforms.torsion_sweep(lo, hi, (3,), sign):
        d = sign * absd
        n = d if d % 4 == 1 else d // 4
        if n % m == 0 and all(arith.jacobi(n // m, q) == e for q, e in letters):
            total += h3 - 1
            count += 1
    return total, count


def h3_level_reduce(X: int, m: int, letters: dict[int, int] | None, sign: int, parts: list) -> dict:
    """The sum of (h_3 - 1) and the field count from the chunk parts, with
    the prediction (3 or 1 for sign -1 or +1) * X * delta(m) /
    (2^#letters * pi^2) and the ratio of the sum to it."""
    letters = dict(letters or {})
    total = sum(p[0] for p in parts)
    count = sum(p[1] for p in parts)
    main = (3 if sign == -1 else 1) * X * delta(m) / (2 ** len(letters) * math.pi ** 2)
    return {
        "X": X,
        "m": m,
        "letters": tuple(sorted(letters.items())),
        "sign": sign,
        "sum_h3_minus_1": total,
        "fields": count,
        "prediction": main,
        "ratio": total / main if main else math.inf,
    }
