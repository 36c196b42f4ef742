"""Exact character-sum machinery: the first-moment identity, detector
expansions of twisted kernel sizes, the index calculus behind the k-th
moment expansions, unlinked-set extremals, oscillation sums and the
desk-scale torsion-sum experiments.

All identity checks run in exact rational arithmetic; floating point only
appears in the large-X statistical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import arith, density, quadforms, redei, selmer
from .arith import jacobi

# ---------------------------------------------------------------------------
# multiplicative weights


@dataclass(frozen=True)
class Weight:
    """A nonnegative multiplicative weight, evaluated through omega on the
    square-free arguments these sums range over."""

    name: str
    base: Fraction  # value at a prime

    def of_omega(self, w: int) -> Fraction:
        return self.base ** w

    def at_prime(self, p: int) -> Fraction:
        return self.base


def weight_by_name(name: str) -> Weight:
    if name in ("one", "1"):
        return Weight("one", Fraction(1))
    if name in ("two-omega", "2^omega"):
        return Weight("two-omega", Fraction(2))
    if name == "tau":
        return Weight("tau", Fraction(2))
    if name.startswith("kappa:"):
        try:
            kappa = Fraction(name.split(":", 1)[1])
        except ZeroDivisionError:
            raise ValueError(f"weight {name!r} divides by zero") from None
        if kappa < 0:
            raise ValueError("weight base must be nonnegative")
        return Weight(name, kappa)
    raise ValueError(f"unknown weight {name!r}")


# ---------------------------------------------------------------------------
# index calculus: blocks, linkage forms, parity operators

_B_TABLE = {(0, 0): 1, (0, 1): 2, (1, 1): 3, (1, 0): 4}
_B_INV = {v: k for k, v in _B_TABLE.items()}

# labels whose detector term carries the twist sign, as F_2^4 tuples
_SELMER_TWISTED = {
    (1, 0, 1, 1),
    (1, 0, 0, 1),
    (1, 1, 1, 0),
    (0, 1, 1, 0),
    (1, 1, 0, 1),
    (0, 1, 1, 1),
}

# paper-normalized class pairs and the literal symbol occurrences
_CLASS_PAIRS_PAPER = {(1, 4), (3, 2)}
_CLASS_PAIRS_EXACT = {(3, 1), (4, 1), (1, 3), (2, 3)}


def bijection_B(pair: tuple[int, int]) -> int:
    return _B_TABLE[pair]


def block_size(setting: str) -> int:
    if setting == "class":
        return 2
    if setting == "selmer":
        return 4
    raise ValueError("setting must be 'class' or 'selmer'")


def index_vectors(setting: str, k: int) -> list[tuple[int, ...]]:
    return [tuple(v) for v in product((0, 1), repeat=block_size(setting) * k)]


def _blocks(setting: str, k: int, u: tuple[int, ...]):
    b = block_size(setting)
    return [u[b * i : b * (i + 1)] for i in range(k)]


def psi(u4: tuple[int, ...], v4: tuple[int, ...]) -> int:
    """Bilinear form on F_2^4 recording a symbol occurrence (1-based
    coordinates: v1(u4 + v4) + v3(u2 + v2))."""
    return (v4[0] * (u4[3] + v4[3]) + v4[2] * (u4[1] + v4[1])) % 2


def phi(setting: str, k: int, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Blockwise linkage form, in the paper-normalized convention."""
    if len(u) != len(v) or len(u) != block_size(setting) * k:
        raise ValueError("index vectors must have length (block size) * k")
    if setting == "class":
        total = 0
        for bu, bv in zip(_blocks("class", k, u), _blocks("class", k, v)):
            if (_B_TABLE[bu], _B_TABLE[bv]) in _CLASS_PAIRS_PAPER:
                total ^= 1
        return total
    return sum(psi(bu, bv) for bu, bv in zip(_blocks("selmer", k, u), _blocks("selmer", k, v))) % 2


def phi_exact(setting: str, k: int, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """The literal symbol occurrences of the expansion (no reciprocity
    normalization); agrees with phi in the selmer setting."""
    if setting == "selmer":
        return phi(setting, k, u, v)
    total = 0
    for bu, bv in zip(_blocks("class", k, u), _blocks("class", k, v)):
        if (_B_TABLE[bu], _B_TABLE[bv]) in _CLASS_PAIRS_EXACT:
            total ^= 1
    return total


def s1_parity(setting: str, k: int, u: tuple[int, ...]) -> int:
    if setting == "class":
        return sum(1 for b in _blocks("class", k, u) if _B_TABLE[b] == 1) % 2
    return sum(1 for b in _blocks("selmer", k, u) if b in _SELMER_TWISTED) % 2


def P_quadratic(w: tuple[int, ...]) -> int:
    """Quadratic form with P(u + v) = phi(u,v) + phi(v,u) in the class case."""
    k = len(w) // 2
    return sum(w[2 * j] * (w[2 * j] + w[2 * j + 1]) for j in range(k)) % 2


def check_P_identity(k: int) -> bool:
    if k > 4:
        raise ValueError("exhaustive check supports k <= 4")
    for u in index_vectors("class", k):
        for v in index_vectors("class", k):
            s = tuple((a + b) % 2 for a, b in zip(u, v))
            if P_quadratic(s) != (phi("class", k, u, v) + phi("class", k, v, u)) % 2:
                return False
    return True


def max_unlinked(setting: str, k: int) -> tuple[int, list[tuple[int, ...]]]:
    """Exact maximum size of a pairwise-unlinked set, with a witness.

    Branch and bound over the compatibility graph; the returned size is the
    true maximum (the search is exhaustive up to the greedy bound pruning).
    """
    if setting == "class" and k > 3:
        raise ValueError("class search supports k <= 3")
    if setting == "selmer" and k > 2:
        raise ValueError("selmer search supports k <= 2")
    vecs = index_vectors(setting, k)
    n = len(vecs)
    compat = [0] * n
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            if i != j and phi(setting, k, u, v) == 0 and phi(setting, k, v, u) == 0:
                compat[i] |= 1 << j
    # self-links never occur (phi(u,u) = 0), so this is max clique
    best_size = 0
    best_set: list[int] = []

    def grow(current: list[int], cand: int):
        nonlocal best_size, best_set
        if len(current) > best_size:
            best_size = len(current)
            best_set = current[:]
        while cand:
            if len(current) + bin(cand).count("1") <= best_size:
                return
            i = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            grow(current + [i], cand & compat[i])

    grow([], (1 << n) - 1)
    return best_size, [vecs[i] for i in best_set]


# ---------------------------------------------------------------------------
# square-free enumeration helpers


def odd_squarefree_with_primes(X: int, coprime_to: int = 1) -> list[tuple[int, tuple[int, ...]]]:
    """(m, prime tuple) for odd square-free m <= X coprime to the given modulus."""
    spf = arith.spf_cached(X)
    out = []
    for m in range(1, X + 1, 2):
        if math.gcd(m, coprime_to) != 1:
            continue
        fac = arith.factor_by_spf(m, spf)
        if all(e == 1 for _, e in fac):
            out.append((m, tuple(p for p, _ in fac)))
    return out


# ---------------------------------------------------------------------------
# first moment, both settings


def first_moment_lhs(X: int, weight: Weight) -> Fraction:
    """Sum over odd square-free m <= X of F(m) times the averaged twisted
    kernel size."""
    return first_moment_lhs_profile(X, weight)[X]


def first_moment_lhs_profile(X: int, weight: Weight) -> list[Fraction]:
    if X > 10 ** 4:
        raise ValueError("exact mode supports X <= 10^4")
    return _direct_profile("class", X, 1, weight, None)


def first_moment_rhs(X: int, weight: Weight) -> Fraction:
    return first_moment_rhs_profile(X, weight)[X]


def first_moment_rhs_profile(X: int, weight: Weight) -> list[Fraction]:
    """Triple divisor sum with a single residue symbol between the first
    two parts, cumulative in the product cutoff."""
    if X > 10 ** 4:
        raise ValueError("exact mode supports X <= 10^4")
    sf = odd_squarefree_with_primes(X)
    sets = {m: frozenset(ps) for m, ps in sf}
    out = [Fraction(0)] * (X + 1)
    for d, _ in sf:
        for e, _ in sf:
            if d * e > X:
                break
            if not sets[d].isdisjoint(sets[e]):
                continue
            sym = jacobi(d % e, e) if e > 1 else 1
            de = d * e
            deset = sets[d] | sets[e]
            for f, _ in sf:
                if de * f > X:
                    break
                if not deset.isdisjoint(sets[f]):
                    continue
                w = len(sets[d]) + len(sets[e]) + len(sets[f])
                out[de * f] += weight.of_omega(w) * sym / (1 << w)
    acc = Fraction(0)
    for m in range(X + 1):
        acc += out[m]
        out[m] = acc
    return out


# ---------------------------------------------------------------------------
# selmer detector and its expansion


def selmer_detector(
    curve: selmer.CurveData,
    m: int,
    eps: tuple[int, ...],
    split: tuple[int, int, int, int],
) -> Fraction:
    """Product of the four local detector factors; 1 exactly when the
    divisor quadruple encodes a kernel vector of the twisted matrix."""
    if math.prod(split) != m:
        raise ValueError("split must multiply to m")
    primes = tuple(p for p, _ in arith.factor(m).factors)
    t = {p: (-1) ** e for p, e in zip(primes, eps)}
    d12, d13 = curve.delta(1, 2), curve.delta(1, 3)
    d21, d23 = curve.delta(2, 1), curve.delta(2, 3)
    d31, d32 = curve.delta(3, 1), curve.delta(3, 2)
    D1, D2, D3, D4 = split
    total = Fraction(1)
    for p in primes:
        if D1 % p == 0:
            val = (
                1
                + t[p] * jacobi(d31 * D3 * D4 % p, p)
                + t[p] * jacobi(d32 * D2 * D4 % p, p)
                + jacobi(d31 * d32 * D2 * D3 % p, p)
            )
        elif D2 % p == 0:
            val = (
                1
                + t[p] * jacobi(d21 * D3 * D4 % p, p)
                + jacobi(d21 * d23 * D1 * D3 % p, p)
                + t[p] * jacobi(d23 * D1 * D4 % p, p)
            )
        elif D3 % p == 0:
            val = (
                1
                + jacobi(d12 * d13 * D1 * D2 % p, p)
                + t[p] * jacobi(d12 * D2 * D4 % p, p)
                + t[p] * jacobi(d13 * D1 * D4 % p, p)
            )
        else:
            val = (
                1
                + jacobi(D1 * D2 % p, p)
                + jacobi(D1 * D3 % p, p)
                + jacobi(D2 * D3 % p, p)
            )
        total *= Fraction(val, 4)
        if total == 0:
            return total
    return total


def _selmer_label_content(curve: selmer.CurveData, label: tuple[int, ...]) -> int:
    d12, d13 = curve.delta(1, 2), curve.delta(1, 3)
    d21, d23 = curve.delta(2, 1), curve.delta(2, 3)
    d31, d32 = curve.delta(3, 1), curve.delta(3, 2)
    table = {
        (1, 0, 1, 1): d31,
        (1, 0, 0, 1): d32,
        (0, 0, 1, 1): d31 * d32,
        (1, 1, 1, 0): d21,
        (0, 1, 1, 0): d23,
        (1, 1, 0, 0): d21 * d23,
        (1, 1, 0, 1): d12,
        (0, 1, 1, 1): d13,
        (1, 1, 1, 1): d12 * d13,
    }
    return table.get(label, 1)


# ---------------------------------------------------------------------------
# the tuple-sum engine behind the k-th moment expansions


def moment_indices(setting: str, k: int) -> list[tuple[int, ...]]:
    """Indices surviving the twist-class average (even parity of the
    twisted positions)."""
    return [u for u in index_vectors(setting, k) if s1_parity(setting, k, u) == 0]


def _expansion_profile(
    setting: str,
    X: int,
    k: int,
    weight: Weight,
    curve: selmer.CurveData | None,
    exact_form: bool,
    class_filter=None,
) -> list[Fraction]:
    """Cumulative-in-X tuple sums over coprime square-free tuples.

    exact_form selects the literal symbol occurrences (class setting); the
    paper-normalized form is used by the fixed-class sums.  class_filter, if
    given, receives the residue tuple of (D_u) and gates the contribution.
    """
    U = moment_indices(setting, k)
    nU = len(U)
    b = block_size(setting)
    link = phi_exact if exact_form else phi
    phi_mat = [[link(setting, k, u, v) for v in U] for u in U]
    if setting == "selmer":
        if curve is None:
            raise ValueError("selmer expansion needs a curve")
        coprime_to = 2 * curve.omega
        contents = [
            math.prod(_selmer_label_content(curve, blk) for blk in _blocks("selmer", k, u))
            for u in U
        ]
    else:
        coprime_to = 2
        contents = [1] * nU
    out = [Fraction(0)] * (X + 1)
    for m, primes in odd_squarefree_with_primes(X, coprime_to):
        w = len(primes)
        norm = weight.of_omega(w) / Fraction(b ** (k * w))
        for assign in product(range(nU), repeat=w):
            D = [1] * nU
            for p, slot in zip(primes, assign):
                D[slot] *= p
            term = 1
            for i in range(nU):
                Di = D[i]
                if Di == 1:
                    continue
                if contents[i] != 1:
                    term *= jacobi(contents[i] % Di, Di)
                    if term == 0:
                        break
                row = phi_mat[i]
                for j in range(nU):
                    if row[j] and D[j] != 1:
                        term *= jacobi(D[i] % D[j], D[j])
            if term:
                if class_filter is not None and not class_filter(D):
                    continue
                out[m] += norm * term
    acc = Fraction(0)
    for m in range(X + 1):
        acc += out[m]
        out[m] = acc
    return out


def _twist_families(X: int, curve: selmer.CurveData | None):
    """(m, omega(m), kernel sizes over the twist classes of m) for the odd
    square-free m <= X: class-group twists, or with a curve the selmer twists
    of the m coprime to the bad product."""
    coprime_to = 1 if curve is None else 2 * curve.omega
    for m, primes in odd_squarefree_with_primes(X, coprime_to):
        sizes = redei.all_kernel_sizes(m) if curve is None else selmer.g_r_all_eps(curve, m)
        yield m, len(primes), sizes


def _direct_profile(
    setting: str, X: int, k: int, weight: Weight, curve: selmer.CurveData | None
) -> list[Fraction]:
    """Cumulative direct moment: F(m) times the twist-class average of the
    k-th power of the twisted kernel size."""
    if setting == "class":
        curve = None
    elif curve is None:
        raise ValueError("selmer moment needs a curve")
    out = [Fraction(0)] * (X + 1)
    for m, om, sizes in _twist_families(X, curve):
        out[m] = weight.of_omega(om) * Fraction(sum(s ** k for s in sizes), len(sizes))
    acc = Fraction(0)
    for m in range(X + 1):
        acc += out[m]
        out[m] = acc
    return out


def kth_moment_identity_profile(
    setting: str,
    X: int,
    k: int,
    weight: Weight,
    curve: selmer.CurveData | None = None,
) -> tuple[list[Fraction], list[Fraction]]:
    if X > 200 or not 0 <= k <= 2:
        raise ValueError("identity check supports X <= 200 and 0 <= k <= 2")
    direct = _direct_profile(setting, X, k, weight, curve)
    expansion = _expansion_profile(setting, X, k, weight, curve, exact_form=True)
    return direct, expansion


def kth_moment_identity_check(
    setting: str,
    X: int,
    k: int,
    weight: Weight,
    curve: selmer.CurveData | None = None,
) -> bool:
    direct, expansion = kth_moment_identity_profile(setting, X, k, weight, curve)
    return direct == expansion


def selmer_first_moment_expand(curve: selmer.CurveData, X: int) -> Fraction:
    """The averaged detector expansion of the first selmer moment."""
    if X > 2000:
        raise ValueError("expansion supports X <= 2000")
    return _expansion_profile("selmer", X, 1, weight_by_name("one"), curve, True)[X]


def selmer_first_moment_direct(curve: selmer.CurveData, X: int) -> Fraction:
    return _direct_profile("selmer", X, 1, weight_by_name("one"), curve)[X]


# ---------------------------------------------------------------------------
# fixed-congruence-class sums (paper-normalized form)


def S_moment(
    setting: str,
    X: int,
    k: int,
    classes: tuple[int, ...],
    weight: Weight,
    curve: selmer.CurveData | None = None,
) -> Fraction:
    """Tuple sum restricted to one vector of invertible residue classes
    (mod 4 in the class setting, mod 8 * bad product in the selmer setting),
    in the reciprocity-normalized form."""
    if X > 500:
        raise ValueError("fixed-class sums support X <= 500")
    U = moment_indices(setting, k)
    if len(classes) != len(U):
        raise ValueError(f"need {len(U)} residue classes")
    mod = 4 if setting == "class" else 8 * abs(curve.omega)
    if any(math.gcd(c, mod) != 1 for c in classes):
        raise ValueError("classes must be invertible")

    def gate(D: list[int]) -> bool:
        return all(d % mod == c % mod for d, c in zip(D, classes))

    return _expansion_profile(
        setting, X, k, weight, curve, exact_form=False, class_filter=gate
    )[X]


def class_sign(k: int, classes: tuple[int, ...]) -> int:
    """Reciprocity sign linking the literal expansion to the normalized
    fixed-class sums: a flip costs -1 exactly when both classes are 3 mod 4."""
    U = moment_indices("class", k)
    sign = 1
    for i in range(len(U)):
        for j in range(i + 1, len(U)):
            c = (phi_exact("class", k, U[i], U[j]) + phi("class", k, U[i], U[j])) % 2
            if c and classes[i] % 4 == 3 and classes[j] % 4 == 3:
                sign = -sign
    return sign


def signed_class_decomposition(X: int, k: int, weight: Weight) -> tuple[Fraction, Fraction]:
    """(direct moment, sum over residue classes of sign * fixed-class sum)."""
    U = moment_indices("class", k)
    direct = _direct_profile("class", X, k, weight, None)[X]
    total = Fraction(0)
    for classes in product((1, 3), repeat=len(U)):
        total += class_sign(k, classes) * S_moment("class", X, k, classes, weight)
    return direct, total


# ---------------------------------------------------------------------------
# pre-average expansion (exhibits the parity vanishing rule)


def class_pre_average_expansion(X: int, k: int, weight: Weight) -> Fraction:
    """Literal expansion before the twist-class average: every index of
    F_2^(2k) carries a variable and the twisted positions carry signs."""
    if X > 40 or k > 2:
        raise ValueError("pre-average expansion is exhaustive; X <= 40, k <= 2")
    allU = index_vectors("class", k)
    nU = len(allU)
    phi_mat = [[phi_exact("class", k, u, v) for v in allU] for u in allU]
    s1_count = [sum(1 for b in _blocks("class", k, u) if _B_TABLE[b] == 1) for u in allU]
    total = Fraction(0)
    for m, primes in odd_squarefree_with_primes(X):
        w = len(primes)
        norm = weight.of_omega(w) / Fraction(2 ** (w * (k + 1)))
        for eps in product((1, -1), repeat=w):
            tmap = dict(zip(primes, eps))
            for assign in product(range(nU), repeat=w):
                D = [1] * nU
                tfac = 1
                for p, slot in zip(primes, assign):
                    D[slot] *= p
                    if s1_count[slot] % 2:
                        tfac *= tmap[p]
                term = tfac
                for i in range(nU):
                    if D[i] == 1:
                        continue
                    row = phi_mat[i]
                    for j in range(nU):
                        if row[j] and D[j] != 1:
                            term *= jacobi(D[i] % D[j], D[j])
                total += norm * term
    return total


# ---------------------------------------------------------------------------
# oscillation experiment


def oscillation_tasks(X: int, z_list: list[int], scheme: str, chunk: int) -> list[tuple]:
    """Chunk tasks (X, z, lo, hi, scheme) of the oscillation sums: for each
    distinct z, the outer variable m1 over (z, X // (z + 1)] in ranges of at
    most `chunk`."""
    if not 2 <= X <= 10 ** 7:
        raise ValueError("supports 2 <= X <= 10^7")
    if scheme not in ("mu2", "tau"):
        raise ValueError("scheme must be 'mu2' or 'tau'")
    if min(z_list) < 1:
        raise ValueError("z must be positive")
    return [
        (X, z, lo, hi, scheme)
        for z in dict.fromkeys(z_list)
        for lo, hi in arith.split_ranges(z + 1, X // (z + 1), chunk)
    ]


# square-free table of the last X, so each process sieves once per X
_CHARSUM_SIEVES: dict[int, bytearray] = {}


def oscillation_chunk(X: int, z: int, lo: int, hi: int, scheme: str) -> int:
    """Sum of w(m1) w(m2) (m1/m2) over odd square-free m1 in [lo, hi] and
    m2, both above z, with m1 m2 <= X; w is 1 (mu2) or 2^omega (tau)."""
    if X not in _CHARSUM_SIEVES:
        _CHARSUM_SIEVES.clear()
        _CHARSUM_SIEVES[X] = arith.squarefree_sieve(X)
    sf = _CHARSUM_SIEVES[X]
    spf = arith.spf_cached(X) if scheme == "tau" else None
    jac = jacobi
    total = 0
    m1 = max(lo, z + 1)
    if m1 % 2 == 0:
        m1 += 1
    start2 = z + 1 + ((z + 1) % 2 == 0)
    while m1 <= hi:
        if m1 * (z + 1) <= X and sf[m1]:
            w1 = 1 if scheme == "mu2" else 1 << len(arith.factor_by_spf(m1, spf))
            lim = X // m1
            for m2 in range(start2, lim + 1, 2):
                if sf[m2]:
                    if scheme == "mu2":
                        total += w1 * jac(m1 % m2, m2)
                    else:
                        total += (
                            w1
                            * (1 << len(arith.factor_by_spf(m2, spf)))
                            * jac(m1 % m2, m2)
                        )
        m1 += 2
    return total


def oscillation_reduce(X: int, z_list: list[int], scheme: str, tasks: list[tuple], parts: list[int]) -> list[dict]:
    """One row per z: the sum, |sum| * z^(1/20) / (X log^3 X), and the decay
    exponent of |sum| ~ z^(-t) fitted across the grid (None below two
    nonzero sums)."""
    sums = dict.fromkeys(z_list, 0)
    for (_, z, _, _, _), part in zip(tasks, parts):
        sums[z] += part
    rows = [
        {"X": X, "z": z, "scheme": scheme, "sum": sums[z],
         "normalized": abs(sums[z]) * z ** (1 / 20) / (X * math.log(X) ** 3)}
        for z in z_list
    ]
    pts = [(math.log(r["z"]), math.log(abs(r["sum"]))) for r in rows if r["sum"]]
    slope = None
    if len(pts) >= 2:
        n = len(pts)
        mx = sum(x for x, _ in pts) / n
        my = sum(y for _, y in pts) / n
        den = sum((x - mx) ** 2 for x, _ in pts)
        if den:
            slope = sum((x - mx) * (y - my) for x, y in pts) / den
    for row in rows:
        row["fitted_exponent"] = slope
    return rows


def oscillation_experiment(X: int, z_list: list[int], scheme: str = "mu2") -> list[dict]:
    """Bilinear residue-symbol sums over odd square-free pairs above z.

    Reports |sum| * z^(1/20) / (X log^3 X) on the z grid plus a fitted decay
    exponent across the grid.
    """
    tasks = oscillation_tasks(X, z_list, scheme, X)
    return oscillation_reduce(X, z_list, scheme, tasks, [oscillation_chunk(*t) for t in tasks])


# ---------------------------------------------------------------------------
# torsion-sum experiments


@dataclass(frozen=True)
class MomentReport:
    experiment: str
    setting: str
    X: int
    k: int
    sign: int
    weight: str
    value: object
    normalized: float

    def csv_row(self) -> str:
        v = self.value
        if isinstance(v, Fraction):
            v = f"{v.numerator}/{v.denominator}"
        return (
            f"{self.experiment},{self.setting},{self.X},{self.k},"
            f"{'+' if self.sign > 0 else '-'},{self.weight},{v},{self.normalized:.15g}"
        )


CSV_HEADER = "experiment,setting,X,k,sign,weight,value,normalized"


def theorem12_chunk(lo: int, hi: int, k: int, sign: int) -> tuple[int, int]:
    """(exact torsion sum, majorant sum) over fundamental discriminants of
    the given sign with lo <= |delta| <= hi, for the ordinary class group:
    #Cl[3 * 2^k] against #Cl[3] * 2^omega * 2^(k * rk4)."""
    exact = 0
    majorant = 0
    for _, om, _, _, (c2, c3, c4, c2k) in quadforms.torsion_sweep(lo, hi, (2, 3, 4, 2 ** k), sign):
        rk4 = (c4 // c2).bit_length() - 1
        exact += c3 * c2k
        majorant += c3 * 2 ** om * 2 ** (k * rk4)
    return exact, majorant


def theorem12_tasks(X_list: list[int], k: int, sign: int, chunk: int) -> list[tuple]:
    """Chunk tasks (lo, hi, k, sign) of theorem12_experiment: |delta| from 3
    to max(X_list) in ranges of at most `chunk`, cut at every X."""
    if max(X_list) > 10 ** 6 or min(X_list) < 2:
        raise ValueError("oracle supports 2 <= X <= 10^6")
    if k < 0:
        raise ValueError("need k >= 0")
    return [(lo, hi, k, sign) for lo, hi in arith.split_ranges(3, max(X_list), chunk, X_list)]


def theorem12_reduce(X_list: list[int], k: int, sign: int, tasks: list[tuple], parts: list) -> list[MomentReport]:
    """Cumulative exact and majorant sums at each X from the chunk parts."""
    out = []
    exact = majorant = 0
    i = 0
    for X in sorted(X_list):
        while i < len(tasks) and tasks[i][1] <= X:
            exact += parts[i][0]
            majorant += parts[i][1]
            i += 1
        norm = X * math.log(X)
        out.append(
            MomentReport("t12-exact", "class", X, k, sign, "one", exact, exact / norm)
        )
        out.append(
            MomentReport("t12-majorant", "class", X, k, sign, "one", majorant, majorant / norm)
        )
    return out


def theorem12_experiment(X_list: list[int], k: int, sign: int = -1) -> list[MomentReport]:
    """Exact torsion sums against the 3-torsion * two-part majorant,
    normalized by X log X."""
    tasks = theorem12_tasks(X_list, k, sign, max(X_list))
    return theorem12_reduce(X_list, k, sign, tasks, [theorem12_chunk(*t) for t in tasks])


_SIEVE_PRIME_BOUND = 3000


def _factor_rough(n: int) -> list[int]:
    """Prime divisors of n, assuming n has no factor below the sieve bound."""
    if n == 1:
        return []
    if arith.is_prime(n):
        return [n]
    return [p for p, _ in arith.factor(n).factors]


@lru_cache(maxsize=16)
def _roots_below(P, bound: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(p, roots of P mod p) for every prime p <= bound, computed once per
    process and shared by every chunk of a sweep."""
    return tuple(
        (p, tuple(density.roots_mod_p(P, p))) for p in arith.small_primes(bound) if p <= bound
    )


def polynomial_radical_sweep(P, lo: int, hi: int, omega_val: int) -> list[tuple[int, tuple[int, ...]]]:
    """(t, increasing primes of P(t) not dividing omega_val) for lo <= t <= hi,
    P(t) != 0.

    Small primes are removed by stepping the roots of P mod p through the
    range; the leftover cofactors carry no small factor and go straight to
    primality testing and rho splitting.
    """
    ts = list(range(lo, hi + 1))
    vals = [P.eval((t,)) for t in ts]
    primes: list[list[int]] = [[] for _ in ts]
    rem = [abs(v) for v in vals]
    for p, roots in _roots_below(P, _SIEVE_PRIME_BOUND):
        keep = omega_val % p != 0
        for r in roots:
            start = lo + ((r - lo) % p)
            for t in range(start, hi + 1, p):
                i = t - lo
                if rem[i] and rem[i] % p == 0:
                    while rem[i] % p == 0:
                        rem[i] //= p
                    if keep:
                        primes[i].append(p)
    return [
        (t, tuple(primes[i] + [p for p in _factor_rough(rem[i]) if omega_val % p]))
        for i, t in enumerate(ts)
        if vals[i]
    ]


def theorem11_chunk(P, lo: int, hi: int, curve: selmer.CurveData, k: int) -> int:
    """Sum of the condition-kernel majorant over one inclusive t range."""
    return sum(
        selmer._kernel_size(curve, primes) ** k
        for _, primes in polynomial_radical_sweep(P, lo, hi, curve.omega)
    )


def theorem11_tasks(P, curve: selmer.CurveData, B_list: list[int], k: int, chunk: int) -> list[tuple]:
    """Chunk tasks (P, lo, hi, curve, k) of theorem11_experiment: t from
    -max(B) to max(B) in ranges of at most `chunk`, cut at every -B and B."""
    if max(B_list) > 10 ** 4 or min(B_list) < 0 or P.nvars != 1 or P.degree() > 3:
        raise ValueError("supports one variable, degree <= 3, 0 <= B <= 10^4")
    if k < 0:
        raise ValueError("need k >= 0")
    B = max(B_list)
    cuts = [-b - 1 for b in B_list] + list(B_list)
    return [(P, lo, hi, curve, k) for lo, hi in arith.split_ranges(-B, B, chunk, cuts)]


def theorem11_reduce(B_list: list[int], k: int, tasks: list[tuple], parts: list[int]) -> list[MomentReport]:
    """The majorant sum over -B <= t <= B for each B from the chunk parts."""
    out = []
    for B in sorted(B_list):
        total = sum(part for (_, lo, hi, _, _), part in zip(tasks, parts) if -B <= lo and hi <= B)
        out.append(
            MomentReport("t11-majorant", "selmer", B, k, 1, "one", total, total / (2 * B + 1))
        )
    return out


def theorem11_experiment(P, curve: selmer.CurveData, B_list: list[int], k: int = 1) -> list[MomentReport]:
    """Averages of the selmer majorant along one polynomial fibration,
    normalized by the count of lattice points (2B+1)."""
    tasks = theorem11_tasks(P, curve, B_list, k, 2 * max(B_list) + 1)
    return theorem11_reduce(B_list, k, tasks, [theorem11_chunk(*t) for t in tasks])


def weighted_moment_profile(
    X: int, ks: tuple[int, ...], weight: Weight, curve: selmer.CurveData | None = None
) -> dict[int, MomentReport]:
    """Weighted moments with the power-of-average twist statistic for
    several exponents in one sweep, normalized by X/log X times the Euler
    factor product: class-group twists, or with a curve its selmer twists."""
    if X < 2:
        raise ValueError("need X >= 2")
    if X > arith.PRIME_TABLE_BOUND:
        raise ValueError(f"the Euler product needs X <= {arith.PRIME_TABLE_BOUND}")
    totals = {k: Fraction(0) for k in ks}
    for _, om, sizes in _twist_families(X, curve):
        avg = Fraction(sum(sizes), len(sizes))
        fm = weight.of_omega(om)
        for k in ks:
            totals[k] += fm * avg ** k
    euler = 1.0
    for p in arith.small_primes(X):
        if p > X:
            break
        euler *= 1 + float(weight.at_prime(p)) / p
    scale = X / math.log(X) * euler
    setting = "class" if curve is None else "selmer"
    return {
        k: MomentReport(
            "weighted-moment", setting, X, k, 1, weight.name, totals[k], float(totals[k]) / scale
        )
        for k in ks
    }


def weighted_moment_report(
    X: int, k: int, weight: Weight, curve: selmer.CurveData | None = None
) -> MomentReport:
    return weighted_moment_profile(X, (k,), weight, curve)[k]
