"""Binary-quadratic-form class groups: the independent ground truth for
class-group torsion.

Imaginary discriminants use the bijection between reduced forms and classes;
real discriminants use cycles of reduced forms under the reduction operator
(narrow classes), with the ordinary group the quotient by the class of the
negated principal form.  `class_group` builds that quotient explicitly and
reads invariants off torsion counts; it is the reference for the |D|-range
sweeps (`torsion_sweep`), which read narrow and ordinary torsion counts off
one squaring map per discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import arith

DISC_BOUND = 10 ** 7

Form = tuple[int, int, int]


# ---------------------------------------------------------------------------
# composition and reduction


def _compose(f1: Form, f2: Form, D: int) -> Form:
    """Gauss composition; the result is primitive of discriminant D, unreduced."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    d0, x0, y0 = arith.ext_gcd(a1, a2)
    d, u, z = arith.ext_gcd(d0, s)
    x = x0 * u
    y = y0 * u
    # x*a1 + y*a2 + z*s = d = gcd(a1, a2, s)
    a3 = a1 * a2 // (d * d)
    num = x * a1 * b2 + y * a2 * b1 + z * ((b1 * b2 + D) // 2)
    b3 = (num // d) % (2 * abs(a3))
    c3 = (b3 * b3 - D) // (4 * a3)
    return a3, b3, c3


def _square(a: int, b: int, c: int, D: int) -> Form:
    """f * f for a primitive form f = (a, b, c) of discriminant D, unreduced,
    from one extended gcd (the duplication step of Shanks' NUDUPL; Cohen,
    GTM 138, 5.4).  With d = gcd(a, b) = x*a + y*b and A = a/d, the square is
    (A^2, B, .) where B = b + 2A*k and k = -c*y mod A makes B^2 = D mod 4A^2."""
    d, _, y = arith.ext_gcd(a, b)
    A = a // d
    B = b + 2 * A * (-c * y % A)
    a3 = A * A
    return a3, B, (B * B - D) // (4 * a3)


def _reduce_neg(a: int, b: int, c: int) -> Form:
    """Canonical reduced representative, D < 0 (so a, c > 0)."""
    while True:
        if b > a or b <= -a:
            D = b * b - 4 * a * c
            b = b % (2 * a)
            if b > a:
                b -= 2 * a
            c = (b * b - D) // (4 * a)
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def _pos_window(t: int, a: int, sD: int) -> int:
    """Normalized residue of t mod 2|a|: in (-|a|, |a|] when |a| > sqrt(D),
    else in (sD - 2|a|, sD]."""
    m = 2 * abs(a)
    r = t % m
    if abs(a) > sD:
        if r > abs(a):
            r -= m
    else:
        # shift into (sD - m, sD]
        r += ((sD - r) // m) * m
    return r


def _is_reduced_pos(a: int, b: int, c: int, D: int) -> bool:
    if b <= 0:
        return False
    if b * b >= D:
        return False
    t = 2 * abs(a)
    if (t + b) ** 2 <= D:
        return False
    if t > b and (t - b) ** 2 >= D:
        return False
    return True


def _rho_pos(f: Form, D: int, sD: int) -> Form:
    a, b, c = f
    r = _pos_window(-b, c, sD)
    return c, r, (r * r - D) // (4 * c)


def _reduce_pos(a: int, b: int, c: int, D: int, sD: int) -> Form:
    b2 = _pos_window(b, a, sD)
    c = (b2 * b2 - D) // (4 * a)
    f = (a, b2, c)
    for _ in range(4 * max(abs(a), 2).bit_length() + 16):
        if _is_reduced_pos(*f, D):
            return f
        f = _rho_pos(f, D, sD)
    raise AssertionError(f"reduction did not terminate for disc {D}")


# ---------------------------------------------------------------------------
# reduced-form enumeration


def _divisors_trial(n: int) -> list[int]:
    divs = [1]
    m = n
    for p in arith.small_primes(math.isqrt(n)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            divs += [d * p ** i for d in divs for i in range(1, e + 1)]
    if m > 1:
        divs += [d * m for d in divs]
    return divs


def reduced_forms_neg(D: int) -> list[Form]:
    """All reduced primitive forms of fundamental discriminant D < 0."""
    forms = []
    blim = math.isqrt(-D // 3)
    for b in range(D & 1, blim + 1, 2):
        N = (b * b - D) // 4
        for a in _divisors_trial(N):
            if a < b or a * a > N:
                continue
            c = N // a
            forms.append((a, b, c))
            if 0 < b < a and a < c:
                forms.append((a, -b, c))
    forms.sort()
    return forms


def principal_form_neg(D: int) -> Form:
    b = D & 1
    return (1, b, (b * b - D) // 4)


def reduced_forms_pos(D: int) -> list[Form]:
    """All reduced forms of fundamental discriminant D > 0 (both signs of a)."""
    sD = math.isqrt(D)
    forms = []
    for b in range(2 - (D & 1), sD + 1, 2):
        M = (D - b * b) // 4
        for a_abs in _divisors_trial(M):
            if a_abs * a_abs > M:
                continue
            for aa in (a_abs, M // a_abs):
                # need sqrt(D) - b < 2*aa < sqrt(D) + b, exactly
                t = 2 * aa
                if (t + b) ** 2 <= D:
                    continue
                if t > b and (t - b) ** 2 >= D:
                    continue
                for a in (aa, -aa):
                    forms.append((a, b, -M // a))
                if aa * aa == M:
                    break
    forms = sorted(set(forms))
    return forms


# ---------------------------------------------------------------------------
# abstract finite abelian structure from torsion counts


class _Group:
    """Finite abelian group on indices 0..n-1 with a composition callback."""

    def __init__(self, n: int, op, e: int):
        self.n = n
        self.op = op
        self.e = e

    def power(self, x: int, k: int) -> int:
        """x^k by binary powering, with no squaring past the top bit of k
        and no composition with e."""
        acc = None
        base = x
        while k:
            if k & 1:
                acc = base if acc is None else self.op(acc, base)
            k >>= 1
            if k:
                base = self.op(base, base)
        return self.e if acc is None else acc

    def invariants(self) -> tuple[int, ...]:
        """Cyclic orders d1 | d2 | ... (nontrivial), from torsion counts."""
        parts: dict[int, list[int]] = {}
        for p, _ in arith.factor(self.n).factors if self.n > 1 else ():
            # a_j = log_p of the j-th torsion-count jump; its conjugate
            # partition gives the p-power cyclic orders
            jumps = []
            prev = 1
            pw = list(range(self.n))
            while True:
                pw = [self.power(x, p) for x in pw]
                cnt = sum(1 for x in pw if x == self.e)
                if cnt == prev:
                    break
                a = 0
                ratio = cnt // prev
                while ratio > 1:
                    ratio //= p
                    a += 1
                jumps.append(a)
                prev = cnt
            lam = [sum(1 for a in jumps if a >= i) for i in range(1, max(jumps) + 1)] if jumps else []
            parts[p] = sorted(lam, reverse=True)
        rank = max((len(v) for v in parts.values()), default=0)
        out = []
        for t in range(rank):
            d = 1
            for p, lam in parts.items():
                if t < len(lam):
                    d *= p ** lam[t]
            out.append(d)
        out.sort()
        return tuple(out)


def _torsion_counts(sq: dict, K: tuple, ns: tuple[int, ...]) -> tuple[int, ...]:
    """#(G/K)[n] for each n = 2^j or 3 * 2^j, for the finite abelian group G
    given by its squaring map sq (element -> its square) and a subgroup K of
    order 1 or 2, given as a tuple of its distinct elements.

    The cosets xK with (xK)^(2^j) = K are the x with x^(2^j) in K, |K| of
    them per coset.  K has no element of order 3, so #(G/K)[3] = #G[3], and
    x^3 = e exactly when x^4 = x.  #(G/K)[3 * 2^j] = #(G/K)[3] * #(G/K)[2^j].
    """
    vs = []
    for n in ns:
        v = (n & -n).bit_length() - 1
        if n < 1 or n >> v not in (1, 3):
            raise ValueError(f"torsion order {n} is not of the form 2^a or 3*2^a")
        vs.append(v)
    need3 = len(sq) % 3 == 0 and any(n >> v == 3 for n, v in zip(ns, vs))
    elements = images = list(sq)
    c2 = [1]
    c3 = 1
    for j in range(1, max([*vs, 2 if need3 else 0]) + 1):
        images = [sq[x] for x in images]
        c2.append(sum(map(images.count, K)) // len(K))
        if j == 2 and need3:
            c3 = sum(1 for x, y in zip(elements, images) if x == y)
    return tuple(c2[v] * (c3 if n >> v == 3 else 1) for n, v in zip(ns, vs))


def _group_neg(D: int) -> tuple[list[Form], _Group]:
    forms = reduced_forms_neg(D)
    index = {f: i for i, f in enumerate(forms)}
    e = index[principal_form_neg(D)]

    def op(i: int, j: int) -> int:
        return index[_reduce_neg(*_compose(forms[i], forms[j], D))]

    return forms, _Group(len(forms), op, e)


class _PosNarrow:
    """Cycle bookkeeping for a real discriminant's narrow class group."""

    def __init__(self, D: int):
        self.D = D
        self.sD = math.isqrt(D)
        forms = reduced_forms_pos(D)
        self.cycle_id: dict[Form, int] = {}
        n = 0
        for f in forms:
            if f in self.cycle_id:
                continue
            g = f
            while g not in self.cycle_id:
                self.cycle_id[g] = n
                g = _rho_pos(g, D, self.sD)
            n += 1
        self.n = n
        b0 = D & 1
        self.e = self._class_of((1, b0, (b0 * b0 - D) // 4))
        neg1 = self._class_of((-1, b0, (D - b0 * b0) // 4))
        self.negated_principal = neg1

    def _class_of(self, f: Form) -> int:
        return self.cycle_id[_reduce_pos(*f, self.D, self.sD)]

    def reps(self) -> list[Form]:
        rep: dict[int, Form] = {}
        for f, i in self.cycle_id.items():
            if i not in rep or f < rep[i]:
                rep[i] = f
        return [rep[i] for i in range(self.n)]

    def group(self) -> _Group:
        reps = self.reps()

        def op(i: int, j: int) -> int:
            return self._class_of(_compose(reps[i], reps[j], self.D))

        return _Group(self.n, op, self.e)


def _quotient_by_involution(g: _Group, s: int) -> _Group:
    """Quotient of g by the order-2 subgroup {e, s}."""
    canon = [min(x, g.op(x, s)) for x in range(g.n)]
    reps = sorted(set(canon))
    pos = {r: i for i, r in enumerate(reps)}

    def op(i: int, j: int) -> int:
        return pos[canon[g.op(reps[i], reps[j])]]

    return _Group(len(reps), op, pos[canon[g.e]])


# ---------------------------------------------------------------------------
# public surface


@dataclass(frozen=True)
class FormClassGroup:
    disc: int
    narrow: bool
    invariants: tuple[int, ...]
    h: int

    def torsion(self, n: int) -> int:
        if n < 1:
            raise ValueError("need n >= 1")
        return math.prod(math.gcd(n, d) for d in self.invariants)

    @property
    def rk4(self) -> int:
        two = self.torsion(2)
        four = self.torsion(4)
        return (four // two).bit_length() - 1


def _check_disc(delta: int) -> None:
    if not arith.is_fundamental_discriminant(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    if abs(delta) > DISC_BOUND:
        raise ValueError(f"|disc| exceeds the configured bound {DISC_BOUND}")


def class_group(delta: int, narrow: bool = False) -> FormClassGroup:
    """Exact class group of the given fundamental discriminant."""
    _check_disc(delta)
    return _class_group(delta, narrow)


def _class_group(delta: int, narrow: bool) -> FormClassGroup:
    """class_group for a delta known to be fundamental and within DISC_BOUND."""
    if delta < 0:
        _, g = _group_neg(delta)
        return FormClassGroup(delta, narrow, g.invariants(), g.n)
    ctx = _PosNarrow(delta)
    g = ctx.group()
    if not narrow and ctx.negated_principal != ctx.e:
        g = _quotient_by_involution(g, ctx.negated_principal)
    return FormClassGroup(delta, narrow, g.invariants(), g.n)


def h_torsion(delta: int, n: int) -> int:
    """Number of n-torsion elements of the ordinary class group."""
    return class_group(delta, narrow=False).torsion(n)


def fundamental_unit_norm(delta: int) -> int:
    """Norm of the fundamental unit, from the continued fraction of
    (delta mod 2 + sqrt(delta))/2: norm = (-1)^(period length)."""
    if delta <= 0:
        raise ValueError("need a positive discriminant")
    _check_disc(delta)
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


# ---------------------------------------------------------------------------
# sweep workers (picklable, deterministic)


# A reduced form (a, b, c) of a discriminant D < 0 is kept as the packed key
# a * _KEY + b, with c = (b^2 - D) / 4a; |b| <= a < _KEY / 2 for every
# |D| <= DISC_BOUND.
_KEY = 1 << 16


def torsion_sweep(lo_abs: int, hi_abs: int, torsion_ns: tuple[int, ...], sign: int) -> list[tuple]:
    """Rows (|delta|, omega(delta), narrow class number h+, narrow counts
    #Cl+[n], ordinary counts #Cl[n]) for the fundamental delta of the given
    sign with lo_abs <= |delta| <= hi_abs, sorted by |delta|, with counts for
    each n = 2^a or 3*2^a in torsion_ns.  They come from neg_torsion_sweep or
    pos_narrow_sweep, whichever the module binds when called."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    sweep = neg_torsion_sweep if sign < 0 else pos_narrow_sweep
    return sweep(lo_abs, hi_abs, torsion_ns)


def neg_torsion_sweep(
    lo_abs: int, hi_abs: int, torsion_ns: tuple[int, ...] = (2, 3, 4)
) -> list[tuple]:
    """torsion_sweep rows for fundamental delta < 0 with lo_abs <= |delta| <= hi_abs,
    sorted by |delta|.  The ordinary and narrow groups agree, so the last two
    slots hold the same counts.

    The reduced forms of the whole range are tabulated in one pass over
    (a, b, c) with 0 <= b <= a <= c and lo_abs <= 4ac - b^2 <= hi_abs, bucketed
    by discriminant; only fundamental discriminants keep a bucket, and their
    forms are all primitive.  The form (a, -b, c), reduced when
    0 < b < a < c, is the inverse of (a, b, c), so only b >= 0 is stored and
    squared, and the square of the inverse is the inverse of the square.
    """
    lo = max(lo_abs, 3)
    if hi_abs < lo:
        return []
    omegas = {-delta: om for delta, om in arith.fundamental_discriminants(lo, hi_abs, -1)}
    buckets: list[list[int] | None] = [None] * (hi_abs - lo + 1)
    for absd in omegas:
        buckets[absd - lo] = []
    for a in range(1, math.isqrt(hi_abs // 3) + 1):
        step = 4 * a
        for b in range(a + 1):
            # |D| of the smallest c >= a with 4ac - b^2 >= lo; c + 1 adds 4a
            n = step * max(a, -(-(lo + b * b) // step)) - b * b
            if n <= hi_abs:
                key = a * _KEY + b
                for bucket in buckets[n - lo :: step]:
                    if bucket is not None:
                        bucket.append(key)
    rows = []
    for absd, om in omegas.items():
        sq: dict[int, int] = {}
        for key in buckets[absd - lo]:
            a, b = divmod(key, _KEY)
            c = (b * b + absd) // (4 * a)
            A, B, C = _reduce_neg(*_square(a, b, c, -absd))
            s = A * _KEY + B
            sq[key] = s
            if 0 < b < a < c:
                sq[key - 2 * b] = s - 2 * B if 0 < abs(B) < A < C else s
        buckets[absd - lo] = None  # free each bucket once its discriminant is done
        counts = _torsion_counts(sq, (_KEY + (absd & 1),), torsion_ns)
        rows.append((absd, om, len(sq), counts, counts))
    return rows


def pos_narrow_sweep(lo: int, hi: int, torsion_ns: tuple[int, ...] = (2, 4)) -> list[tuple]:
    """torsion_sweep rows for fundamental delta > 0 with lo <= delta <= hi, sorted by
    delta.

    Both count tuples come from the squaring map of the narrow group Cl+.
    The ordinary group Cl is Cl+ / K for K = {e, s}, s the class of the
    negated principal form (s = e when the fundamental unit has norm -1).
    """
    rows = []
    for delta, om in arith.fundamental_discriminants(lo, hi, 1):
        ctx = _PosNarrow(delta)
        reps = ctx.reps()
        sq = {i: ctx._class_of(_square(*f, delta)) for i, f in enumerate(reps)}
        narrow = _torsion_counts(sq, (ctx.e,), torsion_ns)
        s = ctx.negated_principal
        counts = narrow if s == ctx.e else _torsion_counts(sq, (ctx.e, s), torsion_ns)
        rows.append((delta, om, ctx.n, narrow, counts))
    return rows


# ---------------------------------------------------------------------------
# on-disk cache of computed invariants


def cache_save(path: str, entries: dict[tuple[int, bool], tuple[int, ...]]) -> None:
    keys = sorted(entries, key=lambda k: (abs(k[0]), k[0], k[1]))
    with open(path, "w") as fh:
        for delta, narrow in keys:
            inv = ",".join(str(d) for d in entries[(delta, narrow)])
            fh.write(f"{delta}\t{int(narrow)}\t{inv}\n")


def cache_load(path: str) -> dict[tuple[int, bool], tuple[int, ...]]:
    out: dict[tuple[int, bool], tuple[int, ...]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            delta_s, narrow_s, inv_s = line.split("\t")
            inv = tuple(int(x) for x in inv_s.split(",")) if inv_s else ()
            out[(int(delta_s), bool(int(narrow_s)))] = inv
    return out
