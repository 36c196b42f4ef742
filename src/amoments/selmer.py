"""2-Selmer machinery for quadratic twists of y^2 = (x-r1)(x-r2)(x-r3):
local condition subgroups, the Hilbert-symbol condition maps, the block
condition matrices and their diagonal twists, and an exact 2-descent oracle.

The descent oracle is pure F2 linear algebra: global candidate classes
(b1, b2), restricted to the support forced by unramifiedness, are cut down
by the local images of E_d(Q_v)/2E_d(Q_v) at the finitely many places that
can obstruct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import arith
from .arith import hilbert_symbol, jacobi, local_coords, nonresidue, sym_to_gf2
from .gf2 import Gf2Matrix, residue_bits, twist_diagonal, twist_kernel_sizes

ORACLE_BOUND = 10 ** 4


@dataclass(frozen=True)
class CurveData:
    r1: int
    r2: int
    r3: int

    def __post_init__(self):
        rs = (self.r1, self.r2, self.r3)
        if len(set(rs)) != 3:
            raise ValueError("roots must be distinct")
        g = math.gcd(math.gcd(self.r1, self.r2), self.r3)
        if g > 1 and not arith.is_squarefree(g):
            raise ValueError("gcd of the roots must be square-free")

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


@dataclass(frozen=True)
class LocalConditions:
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


@dataclass(frozen=True)
class SelmerSystem:
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
# local solubility of descent torsors (used as a guaranteed fallback and by
# the test suite as an independent check)


def _valuation_capped(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


def _affine_solutions_mod_p(rows: list[list[int]], rhs: list[int], p: int):
    """All x in F_p^n with rows . x = rhs; yields tuples, or nothing."""
    n = len(rows[0])
    aug = [[v % p for v in row] + [r % p] for row, r in zip(rows, rhs)]
    pivots = []
    rank = 0
    for col in range(n):
        sel = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        aug[rank], aug[sel] = aug[sel], aug[rank]
        inv = pow(aug[rank][col], -1, p)
        aug[rank] = [v * inv % p for v in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(v - f * w) % p for v, w in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][n]:
            return
    free = [c for c in range(n) if c not in pivots]
    vals = [0] * len(free)
    while True:
        x = [0] * n
        for c, v in zip(free, vals):
            x[c] = v
        for r, col in enumerate(pivots):
            s = aug[r][n] - sum(aug[r][c] * x[c] for c in free)
            x[col] = s % p
        yield tuple(x)
        i = 0
        while i < len(free) and vals[i] == p - 1:
            vals[i] = 0
            i += 1
        if i == len(free):
            return
        vals[i] += 1


def _strip_content(coeffs: tuple[int, ...], p: int) -> tuple[int, ...]:
    v = min(_valuation_capped(c, p, 64) for c in coeffs if c)
    return tuple(c // p ** v for c in coeffs)


def torsor_solvable_qp(b1: int, b2: int, c1: int, c2: int, p: int) -> bool:
    """Q_p-solubility of b1 z1^2 - b2 z2^2 = c1 z0^2, b1 z1^2 - b1 b2 z3^2 = c2 z0^2.

    Each equation is first divided by its p-content (same variety, minimal
    reduction).  Projective Hensel tree: a primitive solution mod p^k with a
    2x2 Jacobian minor of valuation m < k/2 lifts; an empty level proves
    insolubility.  Children of a node are cut out by a linear system mod p.
    """
    # coefficient vectors over (z0, z1, z2, z3)
    A = _strip_content((-c1, b1, -b2, 0), p)
    B = _strip_content((-c2, b1, 0, -b1 * b2), p)

    def q(coeffs, z):
        return sum(c * x * x for c, x in zip(coeffs, z))

    def min_minor_val(z, cap):
        g1 = [2 * c * x for c, x in zip(A, z)]
        g2 = [2 * c * x for c, x in zip(B, z)]
        best = cap
        for i in range(4):
            for j in range(i + 1, 4):
                m = g1[i] * g2[j] - g1[j] * g2[i]
                best = min(best, _valuation_capped(m, p, cap))
        return best

    def canonical(z, mod):
        for x in z:
            if x % p:
                inv = pow(x, -1, mod)
                return tuple(y * inv % mod for y in z)
        raise AssertionError("non-primitive vector in torsor search")

    level = set()
    for z0 in range(p):
        for z1 in range(p):
            for z2 in range(p):
                for z3 in range(p):
                    z = (z0, z1, z2, z3)
                    if any(z) and q(A, z) % p == 0 and q(B, z) % p == 0:
                        level.add(canonical(z, p))
    k = 1
    prod = math.prod(c for c in A + B if c)
    depth_cap = 2 * _valuation_capped(4 * prod, p, 60) + 24
    while level:
        mod = p ** k
        nmod = mod * p
        nxt = set()
        for z in level:
            if 2 * min_minor_val(z, k) < k:
                return True
            g1 = [2 * c * x for c, x in zip(A, z)]
            g2 = [2 * c * x for c, x in zip(B, z)]
            r1 = (q(A, z) // mod) % p
            r2 = (q(B, z) // mod) % p
            for delta in _affine_solutions_mod_p([g1, g2], [-r1, -r2], p):
                w = tuple((zi + di * mod) % nmod for zi, di in zip(z, delta))
                nxt.add(canonical(w, nmod))
        level = nxt
        k += 1
        if k > depth_cap:
            raise AssertionError("torsor search exceeded its depth bound")
        if len(level) > 200000:
            raise AssertionError("torsor search width exploded")
    return False


# ---------------------------------------------------------------------------
# exact 2-descent oracle


def _torsion_pairs(es: tuple[int, int, int]):
    e1, e2, e3 = es
    return (
        ((e1 - e2) * (e1 - e3), e1 - e2),
        (e2 - e1, (e2 - e1) * (e2 - e3)),
        (e3 - e1, e3 - e2),
    )


def _image_basis_inf(es) -> list[int]:
    basis: list[int] = []
    for pair in _torsion_pairs(es):
        _gf2_insert(basis, _pair_coords(pair[0], pair[1], "inf"))
    s = sorted(es)
    for x in (s[2] + 1, Fraction(s[0] + s[1], 2)):
        fx = math.prod(Fraction(x) - e for e in es)
        if fx > 0:
            _gf2_insert(
                basis, _pair_coords(Fraction(x) - es[0], Fraction(x) - es[1], "inf")
            )
    if len(basis) != 1:
        raise AssertionError("real image has the wrong size")
    return basis


def _image_basis_padic(es, p: int) -> list[int]:
    target = 3 if p == 2 else 2
    basis: list[int] = []
    for pair in _torsion_pairs(es):
        _gf2_insert(basis, _pair_coords(pair[0], pair[1], p))
        if len(basis) == target:
            return basis
    # sample local points x near each branch point and at generic scales
    units = (1, 3, 5, 7, 9, 11, 13, 15) if p == 2 else tuple(range(1, min(p, 10)))
    for j in range(-6, 15):
        scale = Fraction(p ** j) if j >= 0 else Fraction(1, p ** (-j))
        for u in units:
            for su in (u, -u):
                t = su * scale
                for base in (es[0], es[1], es[2], 0):
                    x = base + t
                    fx = (x - es[0]) * (x - es[1]) * (x - es[2])
                    # a square f(x) in Q_p makes x the abscissa of a local point
                    if fx != 0 and not any(local_coords(fx, p)):
                        _gf2_insert(basis, _pair_coords(x - es[0], x - es[1], p))
                        if len(basis) == target:
                            return basis
    # guaranteed fallback: decide the remaining classes by torsor solubility
    reps = (1, 3, 5, 7, 2, 6, 10, 14) if p == 2 else (1, nonresidue(p), p, nonresidue(p) * p)
    c1, c2 = es[1] - es[0], es[2] - es[0]
    for b1 in reps:
        for b2 in reps:
            vec = _pair_coords(b1, b2, p)
            if _gf2_member(basis, vec):
                continue
            if torsor_solvable_qp(b1, b2, c1, c2, p):
                _gf2_insert(basis, vec)
                if len(basis) == target:
                    return basis
    raise AssertionError(f"local image at {p} has dimension {len(basis)} != {target}")


def _image_basis_ramified(es, p: int) -> list[int]:
    # odd p dividing the twist but not the bad product: the three torsion
    # images have valuation patterns (0,1), (1,0), (1,1), so they span
    basis: list[int] = []
    for pair in _torsion_pairs(es):
        _gf2_insert(basis, _pair_coords(pair[0], pair[1], p))
    if len(basis) != 2:
        raise AssertionError("ramified local image is not torsion-generated")
    return basis


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
        if v == "inf":
            img = _image_basis_inf(es)
        elif v == 2 or v in omega_odd:
            key = (curve.roots(), v, local_coords(d, v))
            img = _PADIC_IMAGES.get(key)
            if img is None:
                img = _PADIC_IMAGES[key] = tuple(_image_basis_padic(es, v))
        else:
            img = _image_basis_ramified(es, v)
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


def check_majorization_selmer(curve: CurveData, d: int, k: int = 1) -> bool:
    """Whether |Sel^2(E_d)|^k <= 4^(k*w(bad)+k) * max over the rescaled
    collection of the condition-kernel sizes."""
    if math.gcd(math.gcd(curve.r1, curve.r2), curve.r3) != 1:
        raise ValueError("roots must have gcd 1 for the rescaling collection")
    if k < 1:
        raise ValueError("need k >= 1")
    lhs = descent_selmer_oracle(curve, d) ** k
    w = len(curve.omega_primes)
    # the rescaled curves have the same bad primes, so the same twist primes
    primes = _coprime_radical(curve, d)
    best = max(_kernel_size(c, primes) for c in selmer_collection(curve))
    return lhs <= 4 ** (k * w + k) * best ** k
