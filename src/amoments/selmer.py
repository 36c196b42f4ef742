"""2-Selmer machinery for quadratic twists of y^2 = (x-r1)(x-r2)(x-r3):
the Hilbert-symbol condition maps, the block condition matrices and their
diagonal twists, and an exact 2-descent oracle.

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
    # no __slots__: omega and omega_primes are cached in the instance __dict__

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

    @cached_property
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


# ---------------------------------------------------------------------------
# condition maps


def _twist_factors(curve: CurveData, t: int) -> arith.FactoredInt:
    """factor(t), after checking that t is a positive square-free twist
    coprime to the bad product."""
    if t <= 0 or (fac := arith.factor(t)).mobius == 0 or math.gcd(t, curve.omega) != 1:
        raise ValueError("twist must be positive, square-free and coprime to the bad product")
    return fac


def phi_v(curve: CurveData, t: int, v: int, x1: int, x2: int) -> tuple[int, int]:
    """The pair of Hilbert-symbol products testing the condition at v | t.
    Each component is a symbol in x1 times one in x2; a symbol (1, c)_v is 1
    and is not computed."""
    if t % v != 0:
        raise ValueError("place must divide the twist")
    if curve.omega % v == 0:
        raise ValueError("place divides the bad product")
    d12, d13 = curve.delta(1, 2), curve.delta(1, 3)
    d21, d23 = curve.delta(2, 1), curve.delta(2, 3)
    first = second = 1
    if x1 != 1:
        first = hilbert_symbol(x1, t * d12, v)
        second = hilbert_symbol(x1, d21 * d23, v)
    if x2 != 1:
        first *= hilbert_symbol(x2, d12 * d13, v)
        second *= hilbert_symbol(x2, t * d21, v)
    return sym_to_gf2(first), sym_to_gf2(second)


def selmer_condition_kernel(curve: CurveData, t: int) -> list[tuple[int, int]]:
    """All pairs of positive divisors of t passing every condition map.

    Over GF(2), phi_v(x1, x2) = phi_v(x1, 1) + phi_v(1, x2), so a pair passes
    exactly when its two halves have the same images at every v | t.  Each
    divisor's images on either side are computed once.
    """
    fac = _twist_factors(curve, t)
    primes = [p for p, _ in fac.factors]
    divs = fac.divisors()
    by_image: dict[tuple, list[int]] = {}
    for x2 in divs:
        by_image.setdefault(tuple(phi_v(curve, t, p, 1, x2) for p in primes), []).append(x2)
    out = [
        (x1, x2)
        for x1 in divs
        for x2 in by_image.get(tuple(phi_v(curve, t, p, x1, 1) for p in primes), ())
    ]
    return sorted(out)


# ---------------------------------------------------------------------------
# condition matrices


def _diag(primes: tuple[int, ...], c: int) -> int:
    """Bit i set where (c / p_i) = -1."""
    return _pack(tuple(sym_to_gf2(jacobi(c % p, p)) for p in primes))


def _selmer_bits(curve: CurveData, primes: tuple[int, ...], alpha: int) -> list[int]:
    """Rows of [[A, D], [D', B]]: A and B are the residue matrix of the primes
    with diagonals twisted by (alpha d21 / p_i) and (alpha d12 / p_i); D and
    D' are diagonal with entries (d12 d13 / p_i) and (d21 d23 / p_i)."""
    r = len(primes)
    d12, d13 = curve.delta(1, 2), curve.delta(1, 3)
    d21, d23 = curve.delta(2, 1), curve.delta(2, 3)
    res = residue_bits(primes, primes)
    a = twist_diagonal(res, _diag(primes, alpha * d21))
    b = twist_diagonal(res, _diag(primes, alpha * d12))
    d, d_prime = _diag(primes, d12 * d13), _diag(primes, d21 * d23)
    top = [row | (d & (1 << i)) << r for i, row in enumerate(a)]
    bottom = [row << r | (d_prime & (1 << i)) for i, row in enumerate(b)]
    return top + bottom


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

    # the generators are (q, 1) for q in first and (1, q) for q in second
    first = support(curve.delta(1, 2) * curve.delta(1, 3))
    second = support(curve.delta(2, 1) * curve.delta(2, 3))
    places: list = ["inf", 2]
    places += sorted(omega_odd | d_odd)
    rows: list[int] = []
    ncols = len(first) + len(second)
    for v in places:
        if v == 2 or v in omega_odd:
            key = (curve.roots(), v, local_coords(d, v))
            if key not in _PADIC_IMAGES:
                _PADIC_IMAGES[key] = _local_image(es, v)
            img = _PADIC_IMAGES[key]
        else:  # the torsion images fill it at once: nothing to keep
            img = _local_image(es, v)
        dim = _coords_dim(v)
        checks = Gf2Matrix(len(img), 2 * dim, list(img)).kernel_basis()
        # each support prime's class at v, once; (1, q) has it in the second slot
        coords = {q: _pack(local_coords(q, v)) for q in {*first, *second}}
        gen_coords = [coords[q] for q in first] + [coords[q] << dim for q in second]
        for h in checks:
            row = 0
            for idx, gc in enumerate(gen_coords):
                if (h & gc).bit_count() & 1:
                    row |= 1 << idx
            rows.append(row)
    rank = Gf2Matrix(len(rows), ncols, rows).rank()
    return 1 << (ncols - rank)


def _rescaled_max(curve: CurveData, primes: tuple[int, ...]) -> int:
    """The largest condition-kernel size on the twist primes over the rescaled
    collection: the root triples c (r1, r2, r3) for square-free c supported on
    the bad primes, both signs.

    Rescaling by c multiplies every root gap by c, and the twist primes are
    prime to c.  So D and D' keep their entries (c^2 d12 d13 / p_i), and the
    diagonals of A and B both gain (c / p_i): each rescaled matrix is a
    diagonal flip of the curve's own.  The c form a group generated by -1 and
    the bad primes, and so do the flips.
    """
    r = len(primes)
    bits = _selmer_bits(curve, primes, 1)
    flips = {0}
    for c in (-1, *curve.omega_primes):
        flips |= {f ^ _diag(primes, c) for f in flips}
    spread = 1 | 1 << r  # diagonal entry i of both r x r diagonal blocks
    return max(Gf2Matrix(2 * r, 2 * r, twist_diagonal(bits, f * spread)).kernel_size() for f in flips)


def _check_majorization_input(curve: CurveData) -> None:
    if math.gcd(math.gcd(curve.r1, curve.r2), curve.r3) != 1:
        raise ValueError("roots must have gcd 1 for the rescaling collection")
    # factored now, so a bad product out of factoring range is bad input
    # before any twist is checked
    curve.omega_primes


def check_majorization_selmer(curve: CurveData, d: int) -> bool:
    """Whether |Sel^2(E_d)| <= 4^(w(bad)+1) * max over the rescaled
    collection of the condition-kernel sizes.  Both sides are positive, so
    the bound on every k-th power holds exactly when this one does."""
    _check_majorization_input(curve)
    lhs = descent_selmer_oracle(curve, d)
    w = len(curve.omega_primes)
    # the rescaled curves have the same bad primes, so the same twist primes
    best = _rescaled_max(curve, _coprime_radical(curve, d))
    return lhs <= 4 ** (w + 1) * best
