"""Binary-quadratic-form class groups: the independent ground truth for
class-group torsion.

Imaginary discriminants use the bijection between reduced forms and classes;
real discriminants use cycles of reduced forms under the reduction operator
(narrow classes), with the ordinary group the quotient by the class of the
negated principal form.  One reader, `_invariants`, takes a group's structure
from its power maps; a Sylow part of prime order p is Z/p and needs none.
`class_group`, the per-discriminant reference, feeds it generic compositions
and the explicit quotient over reduced forms found by divisor enumeration;
the |D|-range sweeps (`torsion_sweep`, and `classgroup --dmax` in the CLI)
feed it, or the torsion counts, one tabulated squaring map per discriminant.
They tabulate the reduced forms of a whole range in one pass, bucketed by
discriminant: for D < 0 over 0 <= b <= a <= c with |D| = 4ac - b^2, for
D > 0 over (b, |a|) with D = b^2 + 4|a||c|, where a form with ac < 0 and
b > 0 is reduced exactly when ||a| - |c|| < b."""

from __future__ import annotations

import math
from array import array
from collections import deque
from functools import partial
from itertools import islice
from typing import NamedTuple

from . import arith

DISC_BOUND = 10 ** 7

Form = tuple[int, int, int]

# A reduced form (a, b, c) of a discriminant D is kept as the packed key
# a * _KEY + b, with c = (b^2 - D) / 4a.  For every |D| <= DISC_BOUND,
# |b| <= a < _KEY / 2 when D < 0, and |a|, b < sqrt(D) < _KEY / 2 when D > 0,
# where 0 < b makes b = key & (_KEY - 1).
_KEY = 1 << 16


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


def _is_reduced_pos(a: int, b: int, c: int) -> bool:
    """0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b, for D = b^2 - 4ac > 0 not a
    square: b < sqrt(D) needs ac < 0, and then D = b^2 + 4|a||c| makes the
    second condition ||a| - |c|| < b (see _pos_forms)."""
    return b > 0 and a * c < 0 and abs(abs(a) - abs(c)) < b


def _rho_pos(f: Form, D: int, sD: int) -> Form:
    a, b, c = f
    r = _pos_window(-b, c, sD)
    return c, r, (r * r - D) // (4 * c)


def _reduce_pos(a: int, b: int, c: int, D: int, sD: int) -> Form:
    b2 = _pos_window(b, a, sD)
    c = (b2 * b2 - D) // (4 * a)
    f = (a, b2, c)
    for _ in range(4 * max(abs(a), 2).bit_length() + 16):
        if _is_reduced_pos(*f):
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
# finite abelian structure from power maps


def _power(x, k: int, sq: dict, mul):
    """x^k for k >= 1 by binary powering: squares from sq, products from mul,
    with no product past the top bit of k."""
    acc = None
    while True:
        if k & 1:
            acc = x if acc is None else mul(acc, x)
        k >>= 1
        if not k:
            return acc
        x = sq[x]


def _power_counts(pw: dict, K: tuple):
    """#{x : pw^j(x) in K} / #K for j = 1, 2, ... (endless), for a power map
    pw (element -> its p-th power) and a subgroup K given as a tuple of its
    distinct elements: the cosets xK with (xK)^(p^j) = K, #K of them each."""
    images = list(pw)
    while True:
        images = [pw[x] for x in images]
        yield sum(map(images.count, K)) // len(K)


def _invariants(sq: dict, mul, K: tuple) -> tuple[int, ...]:
    """Cyclic orders d1 | d2 | ... (nontrivial) of G/K, for the finite abelian
    group G given by its squaring map sq (element -> its square; the keys are
    the elements), a composition mul, and a subgroup K of order 1 or 2.

    The p-part is cyclic of order p when p divides #G/#K once.  For each
    other p | #G/#K the p-power map is built once and iterated: the j-th
    jump of the counts #(G/K)[p^j] is p^(a_j), and the conjugate partition of
    (a_1, a_2, ...) gives the p-power cyclic orders (Cohen, GTM 138, 2.4)."""
    n = len(sq) // len(K)
    parts: dict[int, list[int]] = {}
    for p, k in arith.factor(n).factors if n > 1 else ():
        if k == 1:
            parts[p] = [1]  # a group of order p is cyclic (Lagrange)
            continue
        pw = sq if p == 2 else {x: _power(x, p, sq, mul) for x in sq}
        jumps = []
        prev = 1
        for cnt in _power_counts(pw, K):
            if cnt == prev:
                break
            a = 0
            ratio = cnt // prev
            while ratio > 1:
                ratio //= p
                a += 1
            jumps.append(a)
            prev = cnt
        parts[p] = [sum(1 for a in jumps if a >= i) for i in range(1, max(jumps) + 1)]
    rank = max(map(len, parts.values()), default=0)
    return tuple(sorted(
        math.prod(p ** lam[t] for p, lam in parts.items() if t < len(lam)) for t in range(rank)
    ))


def _torsion_counts(sq: dict, K: tuple, ns: tuple[int, ...]) -> tuple[int, ...]:
    """#(G/K)[n] for each n = 2^j or 3 * 2^j, for G and K as in _invariants.

    K has no element of order 3, so #(G/K)[3] = #G[3], and x^3 = e exactly
    when x^4 = x.  #(G/K)[3 * 2^j] = #(G/K)[3] * #(G/K)[2^j].
    """
    vs = []
    for n in ns:
        v = (n & -n).bit_length() - 1
        if n < 1 or n >> v not in (1, 3):
            raise ValueError(f"torsion order {n} is not of the form 2^a or 3*2^a")
        vs.append(v)
    c2 = [1, *islice(_power_counts(sq, K), max(vs))]
    c3 = 1
    if len(sq) % 3 == 0 and any(n >> v == 3 for n, v in zip(ns, vs)):
        c3 = sum(1 for x, y in sq.items() if sq[y] == x)
    return tuple(c2[v] * (c3 if n >> v == 3 else 1) for n, v in zip(ns, vs))


class _PosNarrow:
    """Cycle bookkeeping for a real discriminant's narrow class group: the
    classes are the cycle indices i, reps[i] a reduced form of cycle i and
    neg[i] the cycle of its negated forms (-a, b, -c), the class of s * x for
    s the class of the negated principal form.  The reduced forms come as the
    packed keys of those with a > 0 (by default from reduced_forms_pos);
    cycle_id maps the key of every reduced form, a of either sign, to its
    cycle."""

    def __init__(self, D: int, keys=None):
        if keys is None:
            keys = [a * _KEY + b for a, b, _ in reduced_forms_pos(D) if a > 0]
        self.D = D
        sD = self.sD = math.isqrt(D)
        cycle_id: dict[int, int] = {}
        self.cycle_id = cycle_id
        self.reps: list[Form] = []
        self.neg: list[int] = []
        for key in keys:
            if key in cycle_id:
                continue
            i = len(self.reps)
            a0, b0 = divmod(key, _KEY)
            c0 = (b0 * b0 - D) // (4 * a0)
            cycle = []
            k, b, c = key, b0, c0
            while True:
                cycle.append(k)
                # rho of a reduced form: |c| < sqrt(D), so the new b is the
                # residue of -b mod 2|c| in (sqrt(D) - 2|c|, sqrt(D))
                r = sD - (sD + b) % (2 * abs(c))
                k = c * _KEY + r
                if k == key:
                    break
                b, c = r, (r * r - D) // (4 * c)
            cycle_id.update(dict.fromkeys(cycle, i))
            self.reps.append((a0, b0, c0))
            if 2 * b0 - key in cycle_id:  # the cycle holds its negated forms
                self.neg.append(i)
            else:
                # the key of (-a, b, -c) is 2b - key
                cycle_id.update(dict.fromkeys([2 * (x & _KEY - 1) - x for x in cycle], i + 1))
                self.reps.append((-a0, b0, -c0))
                self.neg += [i + 1, i]
        b0 = D & 1
        self.e = self._class_of((1, b0, (b0 * b0 - D) // 4))
        self.negated_principal = self._class_of((-1, b0, (D - b0 * b0) // 4))

    def _class_of(self, f: Form) -> int:
        a, b, _ = _reduce_pos(*f, self.D, self.sD)
        return self.cycle_id[a * _KEY + b]

    def mul(self, i: int, j: int) -> int:
        return self._class_of(_compose(self.reps[i], self.reps[j], self.D))


# ---------------------------------------------------------------------------
# public surface


class FormClassGroup(NamedTuple):
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
    """Exact class group of the given fundamental discriminant, composed with
    the generic _compose; the ordinary group of a real delta is the explicit
    quotient of Cl+ by {e, s}, s the class of the negated principal form."""
    _check_disc(delta)
    if delta < 0:
        e = principal_form_neg(delta)

        def mul(f: Form, g: Form) -> Form:
            return _reduce_neg(*_compose(f, g, delta))

        elements = reduced_forms_neg(delta)
    else:
        ctx = _PosNarrow(delta)
        # Cl+, or Cl = Cl+ / {e, s} with each coset {x, xs} kept as its least index
        s = ctx.negated_principal
        canon = [x if narrow else min(x, ctx.mul(x, s)) for x in range(len(ctx.reps))]
        e, elements = canon[ctx.e], sorted(set(canon))

        def mul(x: int, y: int) -> int:
            return canon[ctx.mul(x, y)]

    sq = {x: mul(x, x) for x in elements}
    return FormClassGroup(delta, narrow, _invariants(sq, mul, (e,)), len(sq))


# ---------------------------------------------------------------------------
# sweep workers (picklable, deterministic)


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


def _count_rows(tables, torsion_ns: tuple[int, ...]) -> list[tuple]:
    """torsion_sweep rows from (delta, omega, sq, mul, e, s) tables: Cl+ with
    K = {e}, and Cl = Cl+ / {e, s}."""
    rows = []
    for delta, om, sq, _, e, s in tables:
        narrow = _torsion_counts(sq, (e,), torsion_ns)
        counts = narrow if s == e else _torsion_counts(sq, (e, s), torsion_ns)
        rows.append((abs(delta), om, len(sq), narrow, counts))
    return rows


def neg_torsion_sweep(
    lo_abs: int, hi_abs: int, torsion_ns: tuple[int, ...] = (2, 3, 4)
) -> list[tuple]:
    """torsion_sweep rows for fundamental delta < 0 with lo_abs <= |delta| <= hi_abs,
    sorted by |delta|.  The ordinary and narrow groups agree, so the last two
    slots hold the same counts."""
    return _count_rows(_neg_tables(lo_abs, hi_abs), torsion_ns)


def pos_narrow_sweep(lo: int, hi: int, torsion_ns: tuple[int, ...] = (2, 4)) -> list[tuple]:
    """torsion_sweep rows for fundamental delta > 0 with lo <= delta <= hi, sorted by
    delta.  Both count tuples come from the squaring map of the narrow group
    Cl+; the ordinary group Cl is Cl+ / K for K = {e, s}, s the class of the
    negated principal form (s = e when the fundamental unit has norm -1)."""
    return _count_rows(_pos_tables(lo, hi), torsion_ns)


def _unpack_neg(key: int, D: int) -> Form:
    """The form of a packed key; b < 0 borrows from a, so shift before divmod."""
    a, b = divmod(key + _KEY // 2, _KEY)
    b -= _KEY // 2
    return a, b, (b * b - D) // (4 * a)


def _mul_neg(D: int, x: int, y: int) -> int:
    a, b, _ = _reduce_neg(*_compose(_unpack_neg(x, D), _unpack_neg(y, D), D))
    return a * _KEY + b


def _neg_tables(lo_abs: int, hi_abs: int):
    """(delta, omega, sq, mul, e, e) for each fundamental delta < 0 with
    lo_abs <= |delta| <= hi_abs, by |delta|: the classes are packed keys, sq
    their squares by NUDUPL.

    The reduced forms of the whole range are tabulated in one pass over
    (a, b, c) with 0 <= b <= a <= c and lo_abs <= 4ac - b^2 <= hi_abs, bucketed
    by discriminant; only fundamental discriminants keep a bucket, and their
    forms are all primitive.  The form (a, -b, c), reduced when
    0 < b < a < c, is the inverse of (a, b, c), so only b >= 0 is stored and
    squared, and the square of the inverse is the inverse of the square.
    """
    lo = max(lo_abs, 3)
    if hi_abs < lo:
        return
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
        e = _KEY + (absd & 1)
        yield -absd, om, sq, partial(_mul_neg, -absd), e, e


def _pos_forms(lo: int, hi: int):
    """(delta, omega, keys) for each fundamental delta > 0 with lo <= delta <= hi,
    by delta: keys holds the packed reduced forms (a, b, c) of delta with a > 0.

    With A = |a| and C = |c|, a form with ac < 0 has delta = b^2 + 4AC, and it
    is reduced (0 < b < sqrt(delta) and |sqrt(delta) - 2A| < b) exactly when
    b > 0 and |A - C| < b: squaring |sqrt(delta) - 2A| < b gives A + C <
    sqrt(delta), and squaring that gives (A - C)^2 < b^2.  The condition and
    delta are symmetric in A and C, so the forms of the whole range are
    tabulated in one pass over (b, A) with C in [A, A + b), stepping delta by
    4A: each pair stores the keys of (A, b, -C) and (C, b, -A), bucketed by
    discriminant as in _neg_tables.  Each (A, b, -C) stands for (-A, b, C) too.
    """
    lo = max(lo, 5)
    if hi < lo:
        return
    omegas = dict(arith.fundamental_discriminants(lo, hi, 1))
    # a 32-bit key suffices: |a|, b < sqrt(DISC_BOUND) < 2^12; other
    # discriminants share a bucket that keeps nothing
    sink = deque(maxlen=0)
    buckets: list = [sink] * (hi - lo + 1)
    for delta in omegas:
        buckets[delta - lo] = array("i")
    for b in range(1, math.isqrt(hi - 4) + 1):
        bb = b * b
        # A from the least with 4A(A + b - 1) >= lo - b^2 (C = A + b - 1 at
        # its largest) to the greatest with 4A^2 <= hi - b^2 (C = A)
        t = (b - 1) ** 2 + max(lo - bb, 0)
        r = math.isqrt(t)
        A_lo = max(1, (r + (r * r < t) - b + 2) // 2)
        for A in range(A_lo, math.isqrt((hi - bb) // 4) + 1):
            step = 4 * A
            key = A * _KEY + b
            # C from the least with delta >= lo to the greatest with delta <= hi
            C = max(A, -((bb - lo) // step))
            top = min(A + b - 1, (hi - bb) // step)
            if C > top:
                continue
            if C == A:
                # (A, b, -A) is its own mirror
                buckets[bb + step * A - lo].append(key)
                C += 1
            row = buckets[bb + step * C - lo : bb + step * top - lo + 1 : step]
            for bucket, mirror in zip(row, range(C * _KEY + b, (top + 1) * _KEY, _KEY)):
                bucket.append(key)
                bucket.append(mirror)
    for delta, om in omegas.items():
        keys = buckets[delta - lo]
        buckets[delta - lo] = None  # free each bucket once its discriminant is done
        yield delta, om, keys


def _pos_tables(lo: int, hi: int):
    """(delta, omega, sq, mul, e, s) for each fundamental delta > 0 with
    lo <= delta <= hi: the narrow classes are _PosNarrow cycle indices of the
    forms of _pos_forms, sq their squares by NUDUPL.  A class and its product
    with s (s^2 = e) have the same square, so each pair is squared once."""
    for delta, om, keys in _pos_forms(lo, hi):
        ctx = _PosNarrow(delta, keys)
        sq: dict[int, int] = {}
        for i, f in enumerate(ctx.reps):
            j = ctx.neg[i]
            sq[i] = sq[j] if j < i else ctx._class_of(_square(*f, delta))
        yield delta, om, sq, ctx.mul, ctx.e, ctx.negated_principal


# ---------------------------------------------------------------------------
# on-disk files: the cache of computed invariants


def cache_save(path: str, entries: dict[tuple[int, bool], tuple[int, ...]]) -> None:
    keys = sorted(entries, key=lambda k: (abs(k[0]), k[0], k[1]))
    lines = (f"{d}\t{int(nw)}\t{','.join(map(str, entries[(d, nw)]))}\n" for d, nw in keys)
    arith.write_replacing(path, "".join(lines))


def cache_load(path: str) -> dict[tuple[int, bool], tuple[int, ...]]:
    out: dict[tuple[int, bool], tuple[int, ...]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                delta_s, narrow_s, inv_s = line.split("\t")
                inv = tuple(int(x) for x in inv_s.split(",")) if inv_s else ()
                out[(int(delta_s), bool(int(narrow_s)))] = inv
            except ValueError:
                raise ValueError(
                    f"{path}, line {lineno}: not a 'delta<TAB>narrow<TAB>invariants' cache line"
                ) from None
    return out
