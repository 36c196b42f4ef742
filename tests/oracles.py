"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the closed-form code paths they are checking.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def _valuation(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    v = 0
    while n % p == 0 and v < cap:
        n //= p
        v += 1
    return v


def _canonical(vec: tuple[int, ...], mod: int, p: int) -> tuple[int, ...]:
    # scale by the inverse of the first unit coordinate so that scalar
    # multiples collapse to one representative
    for x in vec:
        if x % p:
            inv = pow(x, -1, mod)
            return tuple(y * inv % mod for y in vec)
    raise ValueError("vector not primitive")


def conic_solvable_qp(a: int, b: int, c: int, p: int) -> bool:
    """Whether a x^2 + b y^2 + c z^2 = 0 has a nontrivial Q_p-point.

    Projective Hensel tree search: a primitive solution mod p^k with some
    partial derivative of valuation m and k > 2m lifts by Newton; with no
    solutions mod p^k the equation is insoluble.  Depth is bounded because
    every primitive vector has a derivative of valuation at most v_p(2abc).
    """
    coeffs = (a, b, c)
    cap = 2 * _valuation(2 * a * b * c, p, 64) + 2

    def q(v, mod):
        return (a * v[0] * v[0] + b * v[1] * v[1] + c * v[2] * v[2]) % mod

    level = set()
    for x in range(p):
        for y in range(p):
            for z in range(p):
                if (x or y or z) and q((x, y, z), p) == 0:
                    level.add(_canonical((x, y, z), p, p))
    k = 1
    while level:
        mod = p ** k
        nxt = set()
        for v in level:
            m = min(
                _valuation(2 * coeffs[i] * v[i] % (mod * p), p, k) for i in range(3)
            )
            if 2 * m < k:
                return True
            nmod = mod * p
            for dx in range(p):
                for dy in range(p):
                    for dz in range(p):
                        w = (v[0] + dx * mod, v[1] + dy * mod, v[2] + dz * mod)
                        if q(w, nmod) == 0:
                            nxt.add(_canonical(w, nmod, p))
        if k > cap:
            raise AssertionError("conic search exceeded its depth bound")
        level = nxt
        k += 1
    return False


def conic_solvable_real(a: int, b: int, c: int) -> bool:
    signs = {x > 0 for x in (a, b, c)}
    return len(signs) == 2


def hilbert_brute(a: int, b: int, v) -> int:
    """Hilbert symbol by direct solubility search for z^2 = a x^2 + b y^2."""
    if v == "inf" or v is math.inf:
        return 1 if conic_solvable_real(a, b, -1) else -1
    return 1 if conic_solvable_qp(a, b, -1, v) else -1


def kernel_brute(rows: list[int], cols: int) -> set[int]:
    """All vectors (as bitmasks) killed by the matrix, by exhaustive search."""
    out = set()
    for vec in range(1 << cols):
        if all(bin(row & vec).count("1") % 2 == 0 for row in rows):
            out.add(vec)
    return out


def brute_local_image(es, p) -> set:
    """Image of the local 2-descent map at p by complete grid enumeration.

    Every x in Q_p with f(x) = (x-e1)(x-e2)(x-e3) a nonzero square falls in
    one of these regimes, where W bounds the valuations of the root gaps:
    close to a root (x = e_i + u p^m with m <= 2W+3, or m large, when the
    other two factors are root gaps times squares), of large negative
    valuation (all factors are x times squares), or in between (classes
    determined by u mod p^(W+3)).  The grid covers one representative of
    every square-class pattern in each regime.
    """
    from fractions import Fraction

    from amoments.selmer import local_coords

    W = 0
    for i in range(3):
        for j in range(3):
            if i != j:
                diff = es[i] - es[j]
                v = 0
                while diff % p == 0:
                    diff //= p
                    v += 1
                W = max(W, v)
    prec = W + (5 if p == 2 else 3)
    units = [u for u in range(1, p ** prec) if u % p]
    image = set()

    def record(x):
        fx = (x - es[0]) * (x - es[1]) * (x - es[2])
        if fx == 0:
            return
        num = fx.numerator * fx.denominator if isinstance(fx, Fraction) else fx
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        if v % 2:
            return
        if p == 2:
            if num % 8 != 1:
                return
        elif pow(num % p, (p - 1) // 2, p) != 1:
            return
        image.add((local_coords(x - es[0], p), local_coords(x - es[1], p)))

    big = 2 * W + 6
    for base in sorted(set(es) | {0}):
        for m in range(-big, 2 * W + 4):
            scale = p ** m if m >= 0 else Fraction(1, p ** (-m))
            for u in units:
                for su in (u, -u):
                    record(base + su * scale)
        for u in units:
            for su in (u, -u):
                record(base + su * p ** big)
    return image


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
    v = min(_valuation(c, p, 64) for c in coeffs if c)
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
                best = min(best, _valuation(m, p, cap))
        return best

    level = set()
    for z0 in range(p):
        for z1 in range(p):
            for z2 in range(p):
                for z3 in range(p):
                    z = (z0, z1, z2, z3)
                    if any(z) and q(A, z) % p == 0 and q(B, z) % p == 0:
                        level.add(_canonical(z, p, p))
    k = 1
    prod = math.prod(c for c in A + B if c)
    depth_cap = 2 * _valuation(4 * prod, p, 60) + 24
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
                nxt.add(_canonical(w, nmod, p))
        level = nxt
        k += 1
        if k > depth_cap:
            raise AssertionError("torsor search exceeded its depth bound")
        if len(level) > 200000:
            raise AssertionError("torsor search width exploded")
    return False


def class_group_by_orders(delta: int, narrow: bool = False) -> tuple[int, ...]:
    """Cyclic orders d1 | d2 | ... (nontrivial) of the class group of a
    fundamental discriminant (the narrow group when narrow and delta > 0),
    read from the orders of its classes.  Each order comes from repeated
    generic composition and reduction, so no power map, no squaring table
    and no genus theory is used.  A real class is a cycle of reduced forms
    under the generic reduction step rho; an ordinary real class is a narrow
    class joined with its product by the negated principal form."""
    from amoments import quadforms as qf

    if delta < 0:
        identity = {qf.principal_form_neg(delta)}
        classes = qf.reduced_forms_neg(delta)

        def reduce(f):
            return qf._reduce_neg(*f)
    else:
        sD = math.isqrt(delta)

        def reduce(f):
            return qf._reduce_pos(*f, delta, sD)

        def cycle(f):
            out = [f]
            while (g := qf._rho_pos(out[-1], delta, sD)) != f:
                out.append(g)
            return out

        b0 = delta & 1
        s = reduce((-1, b0, (delta - b0 * b0) // 4))
        identity = set(cycle(reduce((1, b0, (b0 * b0 - delta) // 4))))
        if not narrow:
            identity |= set(cycle(s))
        classes, seen = [], set()
        for f in qf.reduced_forms_pos(delta):
            if f not in seen:
                classes.append(f)
                seen.update(cycle(f))
                if not narrow:
                    seen.update(cycle(reduce(qf._compose(f, s, delta))))

    orders = []
    for f in classes:
        g, k = f, 1
        while reduce(g) not in identity:
            if k == len(classes):
                raise AssertionError(f"a class of {delta} has no order dividing h")
            g, k = reduce(qf._compose(g, f, delta)), k + 1
        orders.append(k)
    # for each p | h, r_j = log_p(#G[p^j] / #G[p^(j-1)]) cyclic factors have
    # p-part at least p^j, and #G[p^j] counts the classes of order dividing p^j
    h = len(orders)
    primes = [p for p in range(2, h + 1) if h % p == 0 and all(p % q for q in range(2, p))]
    ranks = {}
    for p in primes:
        ranks[p], prev, j = [], 1, 1
        while (cnt := sum(1 for o in orders if p ** j % o == 0)) > prev:
            r, ratio = 0, cnt // prev
            while ratio > 1:
                ratio //= p
                r += 1
            ranks[p].append(r)
            prev, j = cnt, j + 1
    rank = max((r[0] for r in ranks.values()), default=0)
    return tuple(sorted(
        math.prod(p ** sum(1 for r in rs if r >= t) for p, rs in ranks.items()) for t in range(1, rank + 1)
    ))


def fundamental_unit_norm(delta: int) -> int:
    """Norm of the fundamental unit of the real field of fundamental
    discriminant delta, from the continued fraction of
    (delta mod 2 + sqrt(delta))/2: norm = (-1)^(period length)."""
    from amoments import arith

    if delta <= 0 or not arith.is_fundamental_discriminant(delta):
        raise ValueError("need a positive fundamental discriminant")
    s = math.isqrt(delta)
    P, Q = delta % 2, 2
    seen: dict[tuple[int, int], int] = {}
    k = 0
    while (P, Q) not in seen:
        seen[(P, Q)] = k
        m = P + s
        a = m // Q
        if Q < 0 and m % Q == 0:
            a -= 1
        P2 = a * Q - P
        Q2 = (delta - P2 * P2) // Q
        P, Q = P2, Q2
        k += 1
    period = k - seen[(P, Q)]
    return -1 if period % 2 else 1


def _omega_if_squarefree(n: int) -> int | None:
    """omega(n) by trial division, or None when a square divides n."""
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return None
            count += 1
        p += 1
    return count + (n > 1)


def oscillation_brute(X: int, z: int, scheme: str) -> int:
    """Sum of w(m1) w(m2) (m1/m2) over the ordered pairs of odd square-free
    m1, m2 > z with m1 m2 <= X, one Jacobi symbol per pair; w is 1 (mu2) or
    2^omega (tau), read off trial factoring."""
    from amoments.arith import jacobi

    weights = {}
    for m in range(z + 1, X // (z + 1) + 1):
        om = _omega_if_squarefree(m) if m % 2 else None
        if om is not None:
            weights[m] = 1 if scheme == "mu2" else 2 ** om
    total = 0
    for m1, w1 in weights.items():
        for m2, w2 in weights.items():  # increasing
            if m1 * m2 > X:
                break
            total += w1 * w2 * jacobi(m1, m2)
    return total


# ---------------------------------------------------------------------------
# helpers that only the tests reach, kept out of the package so that every
# line of it runs in some command


def field_label(delta: int) -> int:
    """The square-free m with discriminant(m) == delta."""
    from amoments.arith import is_fundamental_discriminant

    if not is_fundamental_discriminant(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    return delta if delta % 4 == 1 else delta // 4


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """x mod m1*m2 with x = r1 (m1), x = r2 (m2); moduli must be coprime."""
    from amoments.arith import ext_gcd

    g, s, _ = ext_gcd(m1, m2)
    if g != 1:
        raise ValueError("moduli not coprime")
    return (r1 + (r2 - r1) * s % m2 * m1) % (m1 * m2)


def nonresidue(p: int) -> int:
    """The least quadratic non-residue modulo an odd prime p."""
    from amoments.arith import jacobi

    return next(x for x in range(2, p) if jacobi(x, p) == -1)


def bijection_B(pair: tuple[int, int]) -> int:
    """The label 1..4 of a class-setting index block."""
    from amoments.moments import _B_TABLE

    return _B_TABLE[pair]


def selmer_first_moment_direct(curve, X: int):
    """The first selmer moment summed directly over the twists up to X."""
    from amoments import moments

    return moments._direct_profile("selmer", X, 1, moments.weight_by_name("one"), curve)[X]


def g_from_eps(a: int, eps: tuple[int, ...]) -> int:
    """g(a, alpha) with the twist class given directly as a GF(2) vector."""
    from amoments import redei

    qs = redei._odd_primes_of_squarefree_part(a)
    if len(eps) != len(qs):
        raise ValueError("twist-class vector has the wrong length")
    return redei._twisted_matrix(qs, eps).kernel_size()


def alpha_realizing(a: int, eps: tuple[int, ...]) -> int:
    """Some alpha coprime to a whose residue classes realize eps."""
    from amoments import redei

    qs = redei._odd_primes_of_squarefree_part(a)
    if len(eps) != len(qs):
        raise ValueError("twist-class vector has the wrong length")
    alpha, mod = 1, 1
    for q, e in zip(qs, eps):
        alpha = crt_pair(alpha, mod, nonresidue(q) if e else 1, q)
        mod *= q
    while math.gcd(alpha, a) != 1:
        alpha += mod
    return alpha


# ---------------------------------------------------------------------------
# 2-Selmer helpers that only the tests reach


def condition_kernel_brute(curve, t: int) -> list[tuple[int, int]]:
    """The condition kernel by testing every pair of positive divisors of t
    against every condition map phi_v."""
    from amoments import arith
    from amoments.selmer import phi_v

    fac = arith.factor(t)
    primes = [p for p, _ in fac.factors]
    divs = fac.divisors()
    return sorted(
        (x1, x2)
        for x1 in divs
        for x2 in divs
        if all(phi_v(curve, t, p, x1, x2) == (0, 0) for p in primes)
    )


def _gf2_member(basis: list[int], vec: int) -> bool:
    for b in basis:
        vec = min(vec, vec ^ b)
    return vec == 0


class LocalConditions(NamedTuple):
    """The subgroup of (Q_v*/sq)^2 cutting out the Selmer condition at v."""

    v: int
    ramified: bool
    pairs: tuple[tuple[int, int], ...]

    def contains(self, x1, x2) -> bool:
        from amoments.selmer import _gf2_insert, _pair_coords, local_coords

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


def local_conditions(curve, d: int, v: int) -> LocalConditions:
    """L_{d,v} for a finite place v not dividing the bad product."""
    from amoments.selmer import _twist_factors

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


class SelmerSystem(NamedTuple):
    curve: object
    t: int
    primes: tuple[int, ...]
    twist: int
    matrix: object


def build_selmer_matrix(curve, t: int, alpha: int | None = None) -> SelmerSystem:
    """Block matrix [[A, D], [D', B]] whose right kernel is the condition
    kernel inside the positive-divisor space; kernel coordinates are the
    exponent vectors of (x1, x2)."""
    from amoments.gf2 import Gf2Matrix
    from amoments.selmer import _selmer_bits, _twist_factors

    primes = tuple(p for p, _ in _twist_factors(curve, t).factors)
    a = 1 if alpha is None else alpha
    if math.gcd(a, t) != 1:
        raise ValueError("matrix twist must be coprime to the twist parameter")
    r = len(primes)
    return SelmerSystem(curve, t, primes, a, Gf2Matrix(2 * r, 2 * r, _selmer_bits(curve, primes, a)))


def f_r(curve, d: int) -> int:
    """Kernel size of the condition matrix after the extension rules
    (signs, square parts and bad primes are stripped)."""
    from amoments.selmer import _coprime_radical, _kernel_size

    return _kernel_size(curve, _coprime_radical(curve, d))


def g_r(curve, d: int, alpha: int) -> int:
    """Twisted kernel size; periodic in alpha modulo the reduced twist."""
    from amoments.selmer import _coprime_radical, _kernel_size

    if math.gcd(d, alpha) != 1:
        raise ValueError("need coprime twist parameters")
    return _kernel_size(curve, _coprime_radical(curve, d), alpha)


def selmer_collection(curve) -> list:
    """Root triples rescaled by square-free integers supported on the bad
    primes, both signs."""
    from amoments.selmer import CurveData

    out = []
    subsets = [1]
    for p in curve.omega_primes:
        subsets += [s * p for s in subsets]
    for s in subsets:
        for c in (s, -s):
            out.append(CurveData(c * curve.r1, c * curve.r2, c * curve.r3))
    return out
