"""2-Selmer machinery for quadratic twists of y^2 = (x-r1)(x-r2)(x-r3):
local condition subgroups, the Hilbert-symbol condition maps, the block
condition matrices and their diagonal twists, and an exact 2-descent oracle.

The descent oracle is pure F2 linear algebra: global candidate classes
(b1, b2), restricted to the support forced by unramifiedness, are cut down
by the local images of E_d(Q_v)/2E_d(Q_v) at the finitely many places that
can obstruct.  One function finds every local image: the torsion images,
then, where they fall short, a complete deterministic grid of local points
walked until the known dimension is reached.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from . import arith
from .arith import hilbert_symbol, jacobi, local_coords, sym_to_gf2
from .gf2 import Gf2Matrix, residue_bits, twist_diagonal, twist_kernel_sizes

ORACLE_BOUND = 10 ** 4


class _CurveFields(NamedTuple):
    r1: int
    r2: int
    r3: int


class CurveData(_CurveFields):
    # no __slots__: omega_primes is cached in the instance __dict__

    def __new__(cls, r1: int, r2: int, r3: int):
        if len({r1, r2, r3}) != 3:
            raise ValueError("roots must be distinct")
        g = math.gcd(math.gcd(r1, r2), r3)
        if g > 1 and not arith.is_squarefree(g):
            raise ValueError("gcd of the roots must be square-free")
        return super().__new__(cls, r1, r2, r3)

    def delta(self, i: int, j: int) -> int:
        rs = (self.r1, self.r2, self.r3)
        return rs[i - 1] - rs[j - 1]

    @property
    def omega(self) -> int:
        return 2 * self.delta(1, 2) * self.delta(1, 3) * self.delta(2, 3)

    @cached_property
    def omega_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in arith.factor(self.omega).factors)

    def roots(self) -> tuple[int, int, int]:
        return (self.r1, self.r2, self.r3)


# ---------------------------------------------------------------------------
# local square classes (coordinates from arith.local_coords)


def _coords_dim(v) -> int:
    if v == "inf":
        return 1
    return 3 if v == 2 else 2


def _pack(bits: tuple[int, ...]) -> int:
    out = 0
    for i, b in enumerate(bits):
        out |= (b & 1) << i
    return out


def _pair_coords(x1, x2, v) -> int:
    d = _coords_dim(v)
    return _pack(local_coords(x1, v)) | (_pack(local_coords(x2, v)) << d)


def _gf2_insert(basis: list[int], vec: int) -> bool:
    """Insert into an echelonized basis; True if the vector was new."""
    for b in basis:
        vec = min(vec, vec ^ b)
    if vec:
        basis.append(vec)
        basis.sort(reverse=True)
        return True
    return False


def _gf2_member(basis: list[int], vec: int) -> bool:
    for b in basis:
        vec = min(vec, vec ^ b)
    return vec == 0


# ---------------------------------------------------------------------------
# local conditions and condition maps


class LocalConditions(NamedTuple):
    """The subgroup of (Q_v*/sq)^2 cutting out the Selmer condition at v."""

    v: int
    ramified: bool
    pairs: tuple[tuple[int, int], ...]

    def contains(self, x1, x2) -> bool:
        if not self.ramified:
            c1 = local_coords(x1, self.v)
            c2 = local_coords(x2, self.v)
            return c1[0] == 0 and c2[0] == 0
        target = _pair_coords(x1, x2, self.v)
        basis: list[int] = []
        for p1, p2 in self.pairs:
            if (p1, p2) != (1, 1):
                _gf2_insert(basis, _pair_coords(p1, p2, self.v))
        return _gf2_member(basis, target)


def _twist_factors(curve: CurveData, t: int) -> arith.FactoredInt:
    """factor(t), after checking that t is a positive square-free twist
    coprime to the bad product."""
    if t <= 0 or (fac := arith.factor(t)).mobius == 0 or math.gcd(t, curve.omega) != 1:
        raise ValueError("twist must be positive, square-free and coprime to the bad product")
    return fac


def local_conditions(curve: CurveData, d: int, v: int) -> LocalConditions:
    """L_{d,v} for a finite place v not dividing the bad product."""
    _twist_factors(curve, d)
    if curve.omega % v == 0:
        raise ValueError("place divides the bad product")
    if d % v != 0:
        return LocalConditions(v, False, ())
    d12, d13 = curve.delta(1, 2), curve.delta(1, 3)
    d21, d23 = curve.delta(2, 1), curve.delta(2, 3)
    d31, d32 = curve.delta(3, 1), curve.delta(3, 2)
    pairs = (
        (1, 1),
        (d12 * d13, d * d12),
        (d * d21, d21 * d23),
        (d * d31, d * d32),
    )
    return LocalConditions(v, True, pairs)


def phi_v(curve: CurveData, t: int, v: int, x1: int, x2: int) -> tuple[int, int]:
    """The pair of Hilbert-symbol products testing the condition at v | t."""
    if t % v != 0:
        raise ValueError("place must divide the twist")
    if curve.omega % v == 0:
        raise ValueError("place divides the bad product")
    d12, d13 = curve.delta(1, 2), curve.delta(1, 3)
    d21, d23 = curve.delta(2, 1), curve.delta(2, 3)
    first = hilbert_symbol(x1, t * d12, v) * hilbert_symbol(x2, d12 * d13, v)
    second = hilbert_symbol(x1, d21 * d23, v) * hilbert_symbol(x2, t * d21, v)
    return sym_to_gf2(first), sym_to_gf2(second)


def selmer_condition_kernel(curve: CurveData, t: int) -> list[tuple[int, int]]:
    """All pairs of positive divisors of t passing every condition map."""
    fac = _twist_factors(curve, t)
    primes = [p for p, _ in fac.factors]
    divs = fac.divisors()
    out = []
    for x1 in divs:
        for x2 in divs:
            if all(phi_v(curve, t, p, x1, x2) == (0, 0) for p in primes):
                out.append((x1, x2))
    return sorted(out)


# ---------------------------------------------------------------------------
# condition matrices


class SelmerSystem(NamedTuple):
    curve: CurveData
    t: int
    primes: tuple[int, ...]
    twist: int
    matrix: Gf2Matrix


def _selmer_bits(curve: CurveData, primes: tuple[int, ...], alpha: int) -> list[int]:
    """Rows of [[A, D], [D', B]]: A and B are the residue matrix of the primes
    with diagonals twisted by (alpha d21 / p_i) and (alpha d12 / p_i); D and
    D' are diagonal with entries (d12 d13 / p_i) and (d21 d23 / p_i)."""
    r = len(primes)
    d12, d13 = curve.delta(1, 2), curve.delta(1, 3)
    d21, d23 = curve.delta(2, 1), curve.delta(2, 3)

    def diag(c: int) -> int:
        return _pack(tuple(sym_to_gf2(jacobi(c % p, p)) for p in primes))

    res = residue_bits(primes, primes)
    a = twist_diagonal(res, diag(alpha * d21))
    b = twist_diagonal(res, diag(alpha * d12))
    d, d_prime = diag(d12 * d13), diag(d21 * d23)
    top = [row | (d & (1 << i)) << r for i, row in enumerate(a)]
    bottom = [row << r | (d_prime & (1 << i)) for i, row in enumerate(b)]
    return top + bottom


def build_selmer_matrix(curve: CurveData, t: int, alpha: int | None = None) -> SelmerSystem:
    """Block matrix [[A, D], [D', B]] whose right kernel is the condition
    kernel inside the positive-divisor space; kernel coordinates are the
    exponent vectors of (x1, x2)."""
    primes = tuple(p for p, _ in _twist_factors(curve, t).factors)
    a = 1 if alpha is None else alpha
    if math.gcd(a, t) != 1:
        raise ValueError("matrix twist must be coprime to the twist parameter")
    r = len(primes)
    return SelmerSystem(curve, t, primes, a, Gf2Matrix(2 * r, 2 * r, _selmer_bits(curve, primes, a)))


def _coprime_radical(curve: CurveData, d: int) -> tuple[int, ...]:
    """The primes of d not dividing the bad product, increasing: the primes
    of its largest square-free positive divisor coprime to that product."""
    if d == 0:
        raise ValueError("twist must be nonzero")
    return tuple(p for p, _ in arith.factor(abs(d)).factors if curve.omega % p != 0)


def _kernel_size(curve: CurveData, primes: tuple[int, ...], alpha: int = 1) -> int:
    """Kernel size of the condition matrix on the given twist primes."""
    r = len(primes)
    return Gf2Matrix(2 * r, 2 * r, _selmer_bits(curve, primes, alpha)).kernel_size()


def f_r(curve: CurveData, d: int) -> int:
    """Kernel size of the condition matrix after the extension rules
    (signs, square parts and bad primes are stripped)."""
    return _kernel_size(curve, _coprime_radical(curve, d))


def g_r(curve: CurveData, d: int, alpha: int) -> int:
    """Twisted kernel size; periodic in alpha modulo the reduced twist."""
    if math.gcd(d, alpha) != 1:
        raise ValueError("need coprime twist parameters")
    return _kernel_size(curve, _coprime_radical(curve, d), alpha)


def g_r_all_eps(curve: CurveData, m: int) -> list[int]:
    """Kernel sizes for every residue-class twist of m, indexed by bitmask.

    Flipping eps_i toggles both diagonal entries at index i, matching the
    effect of multiplying the twist by a non-residue at p_i.
    """
    primes = _coprime_radical(curve, m)
    return twist_kernel_sizes(_selmer_bits(curve, primes, 1), len(primes))


# ---------------------------------------------------------------------------
# exact 2-descent oracle


def _torsion_pairs(es: tuple[int, int, int]):
    e1, e2, e3 = es
    return (
        ((e1 - e2) * (e1 - e3), e1 - e2),
        (e2 - e1, (e2 - e1) * (e2 - e3)),
        (e3 - e1, e3 - e2),
    )


def _local_image(es: tuple[int, int, int], v) -> tuple[int, ...]:
    """Echelon basis of the image of E(Q_v)/2E(Q_v) in (Q_v*/Q_v*^2)^2 under
    P = (x, y) -> (x - e1, x - e2), for y^2 = (x - e1)(x - e2)(x - e3) with
    distinct integer roots (Silverman, AEC X.1).

    All of E[2] is rational, so the image has dimension _coords_dim(v): 1 at
    inf, 2 at odd p, 3 at p = 2.  The torsion images come first.  They fill
    the image at inf (the smallest root lies on the non-identity component)
    and at odd p dividing every root gap exactly once, where their valuation
    patterns are (0, 1), (1, 0) and (1, 1).

    Otherwise, with k = 3 at p = 2 and 1 at odd p, so that 1 + s is a square
    whenever v(s) >= k and the class of y is fixed by y mod p^(v(y)+k), the
    walk goes over x = e_i + u p^m, m in [1-k, 2W+3] and 2W+6, units
    u < p^(W+3) (p^(W+5) at p = 2) with both signs, smallest |u| first,
    where W is the largest valuation of a root gap; it records every x whose
    f(x) is a nonzero square, until the basis is full.  This grid meets every
    class of the image.  Let x be the abscissa of a point outside E[2].  If
    v(x) <= -k, every x - e_j is x times a square, so f(x) is a square only
    when x is, and the class is trivial.  Otherwise let e_i be a root nearest
    to x and m = v(x - e_i) > -k:
    - m >= W + k: each x - e_j with j != i is e_i - e_j times a square, so
      the classes depend on m mod 2 and on (x - e_i) p^(-m) mod p^k, which
      e_i + u' p^m' matches with m' in [W+k, 2W+3] or 2W+6 (both parities);
    - otherwise -k < m < W + k and every v(x - e_j) <= m, so x mod p^(m+k)
      fixes all three classes, and e_i + u' p^m with u' = (x - e_i) p^(-m)
      mod p^k is on the grid.
    The matching grid point has the same classes, so f of it is a nonzero
    square too.  A full grid with a short basis is a bug: AssertionError.
    """
    target = _coords_dim(v)
    basis: list[int] = []
    for x1, x2 in _torsion_pairs(es):
        _gf2_insert(basis, _pair_coords(x1, x2, v))
    if len(basis) == target:
        return tuple(basis)
    p = v
    W = max(arith._val_unit(abs(es[i] - es[j]), p)[0] for i, j in ((0, 1), (0, 2), (1, 2)))
    k = 3 if p == 2 else 1
    exps = [*range(1 - k, 2 * W + 4), 2 * W + 6]
    for u in range(1, p ** (W + (5 if p == 2 else 3))):
        if u % p == 0:
            continue
        for su in (u, -u):
            for m in exps:
                # x = num / den; the class of x - e is that of (num - e den) den
                num, den = (su * p ** m, 1) if m >= 0 else (su, p ** -m)
                for base in es:
                    n = num + base * den
                    if any(n == e * den for e in es):
                        continue
                    c1, c2, c3 = (_pack(local_coords((n - e * den) * den, p)) for e in es)
                    # f(x) is a square iff the three classes multiply to 1
                    if c1 ^ c2 ^ c3 == 0:
                        _gf2_insert(basis, c1 | c2 << target)
                        if len(basis) == target:
                            return tuple(basis)
    raise AssertionError(f"local image at {p} has dimension {len(basis)} != {target}")


# Local images at v = 2 and at the odd places dividing the bad product, keyed
# by (root triple, v, class of d in Q_v*/Q_v*^2).  If d' = d u^2 with u in
# Q_v*, then x -> u^2 x maps E_d onto E_d' over Q_v and multiplies every
# x - e_i by u^2, so the image depends on d only through that class: at most
# 8 keys per curve at v = 2 and 4 at each odd bad place.
_PADIC_IMAGES: dict[tuple, tuple[int, ...]] = {}


def descent_selmer_oracle(curve: CurveData, d: int) -> int:
    """|Sel^2| of the quadratic twist by square-free d, by exact 2-descent."""
    if d == 0 or abs(d) > ORACLE_BOUND:
        raise ValueError(f"twist must be nonzero with |d| <= {ORACLE_BOUND}")
    fac = arith.factor(d)
    if fac.mobius == 0:
        raise ValueError("twist must be square-free")
    es = (d * curve.r1, d * curve.r2, d * curve.r3)
    d_odd = {p for p, _ in fac.factors if p != 2}
    omega_odd = {p for p in curve.omega_primes if p != 2}

    def support(diffs: int) -> list[int]:
        # e_i - e_j = d (r_i - r_j): the odd primes of d and of the root differences
        return [-1, 2] + sorted(d_odd | {p for p in omega_odd if diffs % p == 0})

    gens = [(q, 1) for q in support(curve.delta(1, 2) * curve.delta(1, 3))]
    gens += [(1, q) for q in support(curve.delta(2, 1) * curve.delta(2, 3))]
    places: list = ["inf", 2]
    places += sorted(omega_odd | d_odd)
    rows: list[int] = []
    ncols = len(gens)
    for v in places:
        if v == 2 or v in omega_odd:
            key = (curve.roots(), v, local_coords(d, v))
            if key not in _PADIC_IMAGES:
                _PADIC_IMAGES[key] = _local_image(es, v)
            img = _PADIC_IMAGES[key]
        else:  # the torsion images fill it at once: nothing to keep
            img = _local_image(es, v)
        m = 2 * _coords_dim(v)
        checks = Gf2Matrix(len(img), m, list(img)).kernel_basis()
        gen_coords = [_pair_coords(b1, b2, v) for b1, b2 in gens]
        for h in checks:
            row = 0
            for idx, gc in enumerate(gen_coords):
                if bin(h & gc).count("1") & 1:
                    row |= 1 << idx
            rows.append(row)
    rank = Gf2Matrix(len(rows), ncols, rows).rank()
    return 1 << (ncols - rank)


def selmer_collection(curve: CurveData) -> list[CurveData]:
    """Root triples rescaled by square-free integers supported on the bad
    primes, both signs."""
    out = []
    subsets = [1]
    for p in curve.omega_primes:
        subsets += [s * p for s in subsets]
    for s in subsets:
        for c in (s, -s):
            out.append(CurveData(c * curve.r1, c * curve.r2, c * curve.r3))
    return out


def _check_majorization_input(curve: CurveData, k: int) -> None:
    if math.gcd(math.gcd(curve.r1, curve.r2), curve.r3) != 1:
        raise ValueError("roots must have gcd 1 for the rescaling collection")
    if k < 1:
        raise ValueError("need k >= 1")


def check_majorization_selmer(curve: CurveData, d: int, k: int = 1) -> bool:
    """Whether |Sel^2(E_d)|^k <= 4^(k*w(bad)+k) * max over the rescaled
    collection of the condition-kernel sizes."""
    _check_majorization_input(curve, k)
    lhs = descent_selmer_oracle(curve, d) ** k
    w = len(curve.omega_primes)
    # the rescaled curves have the same bad primes, so the same twist primes
    primes = _coprime_radical(curve, d)
    best = max(_kernel_size(c, primes) for c in selmer_collection(curve))
    return lhs <= 4 ** (k * w + k) * best ** k
