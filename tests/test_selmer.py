import itertools
import math
import random
from fractions import Fraction

import pytest

from amoments import arith, selmer
from amoments.selmer import (
    CurveData,
    build_selmer_matrix,
    check_majorization_selmer,
    descent_selmer_oracle,
    f_r,
    g_r,
    g_r_all_eps,
    local_conditions,
    local_coords,
    phi_v,
    selmer_condition_kernel,
    torsor_solvable_qp,
)

RNG = random.Random(0x5E1)

CURVES = [CurveData(0, 1, -1), CurveData(0, 1, 2), CurveData(0, 2, 5)]


def test_curve_data():
    c = CurveData(0, 1, 2)
    assert c.delta(1, 2) == -1 and c.delta(3, 1) == 2
    assert c.omega == -4
    assert c.omega_primes == (2,)
    assert CurveData(0, 2, 5).omega_primes == (2, 3, 5)
    with pytest.raises(ValueError):
        CurveData(1, 1, 2)
    with pytest.raises(ValueError):
        CurveData(4, 8, 12)


def classes_mod_squares(pairs, v):
    return {
        (local_coords(x1, v), local_coords(x2, v)) for x1, x2 in pairs
    }


def test_local_conditions_example():
    cond = local_conditions(CurveData(0, 1, 2), 5, 5)
    assert cond.ramified
    assert cond.pairs == ((1, 1), (2, -5), (5, -1), (10, 5))
    # four distinct classes forming a subgroup
    cls = classes_mod_squares(cond.pairs, 5)
    assert len(cls) == 4
    for (a1, a2), (b1, b2) in itertools.product(cond.pairs, repeat=2):
        prod_class = (local_coords(a1 * b1, 5), local_coords(a2 * b2, 5))
        assert prod_class in cls
    assert cond.contains(2, -5) and cond.contains(10, 5)
    assert cond.contains(2 * 49, -5 * 9)  # squares are invisible
    assert cond.contains(2, 5)  # -1 is a 5-adic square, so (2,5) = (2,-5)
    assert not cond.contains(2, 1)
    assert not cond.contains(1, 5)


def test_local_conditions_unramified_branch():
    cond = local_conditions(CurveData(0, 1, 2), 5, 7)
    assert not cond.ramified
    assert cond.contains(3, -6)
    assert not cond.contains(7, 1)
    with pytest.raises(ValueError):
        local_conditions(CurveData(0, 1, 2), 5, 2)
    with pytest.raises(ValueError):
        local_conditions(CurveData(0, 1, 2), 10, 5)


def test_local_conditions_subgroups_of_order_four_and_self_dual():
    for curve in CURVES:
        for v in (p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97) if curve.omega % p):
            cond = local_conditions(curve, v, v)
            cls = classes_mod_squares(cond.pairs, v)
            assert len(cls) == 4
            # isotropic under ((x1,x2),(y1,y2)) -> (x1,y2)_v (x2,y1)_v
            for (a1, a2), (b1, b2) in itertools.product(cond.pairs, repeat=2):
                pairing = arith.hilbert_symbol(a1, b2, v) * arith.hilbert_symbol(a2, b1, v)
                assert pairing == 1
            # the orthogonal complement is the subgroup itself
            u = next(x for x in range(2, v) if arith.jacobi(x, v) == -1)
            reps = [1, u, v, u * v]
            ortho = set()
            for y1, y2 in itertools.product(reps, repeat=2):
                if all(
                    arith.hilbert_symbol(a1, y2, v) * arith.hilbert_symbol(a2, y1, v) == 1
                    for a1, a2 in cond.pairs
                ):
                    ortho.add((local_coords(y1, v), local_coords(y2, v)))
            assert ortho == cls


def test_phi_v_basics():
    curve = CurveData(0, 1, 2)
    assert phi_v(curve, 5, 5, 1, 1) == (0, 0)
    # the listed condition classes all lie in the kernel
    for x1, x2 in local_conditions(curve, 5, 5).pairs:
        assert phi_v(curve, 5, 5, x1, x2) == (0, 0)
    with pytest.raises(ValueError):
        phi_v(curve, 5, 3, 1, 1)


def test_phi_v_linearity():
    for curve in CURVES:
        t = 35 if math.gcd(35, curve.omega) == 1 else 77
        for v in (p for p, _ in arith.factor(t).factors):
            for _ in range(40):
                x1, x2 = RNG.choice([-1, 1]) * RNG.randint(1, 50), RNG.choice([-1, 1]) * RNG.randint(1, 50)
                y1, y2 = RNG.choice([-1, 1]) * RNG.randint(1, 50), RNG.choice([-1, 1]) * RNG.randint(1, 50)
                a = phi_v(curve, t, v, x1, x2)
                b = phi_v(curve, t, v, y1, y2)
                c = phi_v(curve, t, v, x1 * y1, x2 * y2)
                assert c == ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)


def test_selmer_matrix_example():
    sys = build_selmer_matrix(CurveData(0, 1, 2), 5)
    m = sys.matrix
    assert m.rows == 2 and m.cols == 2
    assert [[m.entry(i, j) for j in range(2)] for i in range(2)] == [[0, 1], [0, 0]]
    assert m.kernel_size() == 2
    assert build_selmer_matrix(CurveData(0, 1, 2), 1).matrix.kernel_size() == 1


def test_selmer_matrix_square_twist_is_untwisted():
    curve = CurveData(0, 1, -1)
    t = 15
    alpha = 4  # square mod 3 and mod 5
    assert build_selmer_matrix(curve, t, alpha).matrix == build_selmer_matrix(curve, t).matrix


def test_condition_kernel_examples():
    curve = CurveData(0, 1, -1)
    assert selmer_condition_kernel(curve, 1) == [(1, 1)]
    for t in (3, 5, 7, 11):
        size = len(selmer_condition_kernel(curve, t))
        assert size == build_selmer_matrix(curve, t).matrix.kernel_size()
        assert size & (size - 1) == 0  # power of two


def test_matrix_kernel_matches_condition_kernel_sweep():
    for curve in CURVES:
        for t in range(1, 151):
            if not arith.is_squarefree(t) or math.gcd(t, curve.omega) != 1:
                continue
            pairs = selmer_condition_kernel(curve, t)
            sys = build_selmer_matrix(curve, t)
            assert sys.matrix.kernel_size() == len(pairs), (curve, t)
            # the kernel vectors decode to exactly the passing divisor pairs
            primes = sys.primes
            r = len(primes)
            decoded = set()
            span = {0}
            for vec in sys.matrix.kernel_basis():
                span |= {s ^ vec for s in span}
            for vec in span:
                x1 = math.prod(p for i, p in enumerate(primes) if (vec >> i) & 1)
                x2 = math.prod(p for i, p in enumerate(primes) if (vec >> (r + i)) & 1)
                decoded.add((x1, x2))
            assert decoded == set(pairs), (curve, t)


def full_space_kernel_size(curve, t):
    """|K| over the full support space (square-free pairs of either sign
    supported on the bad product times t), via linearity of the condition
    maps on the generators -1 and the support primes."""
    gens = [-1] + [p for p, _ in arith.factor(curve.omega).factors] + [
        p for p, _ in arith.factor(t).factors
    ]
    tprimes = [p for p, _ in arith.factor(t).factors]
    rows_bits = []
    ncols = 2 * len(gens)
    for side in (0, 1):
        for g in gens:
            pair = (g, 1) if side == 0 else (1, g)
            bits = []
            for v in tprimes:
                bits.extend(phi_v(curve, t, v, *pair))
            rows_bits.append(bits)
    # stack per-place condition coordinates as a matrix over the generators
    from amoments.gf2 import Gf2Matrix

    nrows = 2 * len(tprimes)
    mat_bits = []
    for r in range(nrows):
        acc = 0
        for c in range(ncols):
            acc |= rows_bits[c][r] << c
        mat_bits.append(acc)
    return Gf2Matrix(nrows, ncols, mat_bits).kernel_size()


def test_index_bound_full_space():
    # |K| over the full support space is within 4^(w+1) of the positive-divisor kernel
    for curve in CURVES:
        w = len(curve.omega_primes)
        for t in range(1, 501):
            if not arith.is_squarefree(t) or math.gcd(t, curve.omega) != 1:
                continue
            big_kernel = full_space_kernel_size(curve, t)
            small = len(selmer_condition_kernel(curve, t))
            assert small <= big_kernel <= 4 ** (w + 1) * small, (curve, t)


def test_full_space_kernel_matches_enumeration():
    # the linear-algebra route agrees with direct pair enumeration
    for curve in CURVES[:2]:
        for t in (1, 7, 11, 77):
            if math.gcd(t, curve.omega) != 1:
                continue
            support = [p for p, _ in arith.factor(curve.omega).factors] + [
                p for p, _ in arith.factor(t).factors
            ]
            elements = [1]
            for p in support:
                elements += [e * p for e in elements]
            elements += [-e for e in elements]
            tprimes = [p for p, _ in arith.factor(t).factors]
            direct = sum(
                1
                for x1 in elements
                for x2 in elements
                if all(phi_v(curve, t, v, x1, x2) == (0, 0) for v in tprimes)
            )
            assert direct == full_space_kernel_size(curve, t), (curve, t)


def test_f_r_examples_and_extension_rules():
    curve = CurveData(0, 1, 2)
    assert f_r(curve, 1) == 1 and f_r(curve, -1) == 1
    assert f_r(curve, 5) == 2
    for d in (3, 5, 21, 55):
        assert f_r(curve, d) == f_r(curve, -d)
        assert f_r(curve, d) == f_r(curve, d * 9)
        assert f_r(curve, d) == f_r(curve, d * 2)  # 2 divides the bad product
    with pytest.raises(ValueError):
        f_r(curve, 0)


def test_g_r_examples():
    curve = CurveData(0, 1, -1)
    assert g_r(curve, 1, 17) == 1
    for d in (5, 7, 15, 21):
        assert g_r(curve, d, 1) == f_r(curve, d)
        t = math.prod(selmer._coprime_radical(curve, d))
        for _ in range(10):
            alpha = RNG.randint(1, 200)
            if math.gcd(alpha, d) != 1 or math.gcd(alpha + t, d) != 1:
                continue
            assert g_r(curve, d, alpha) == g_r(curve, d, alpha + t)
    with pytest.raises(ValueError):
        g_r(curve, 15, 3)


def test_g_r_all_eps_matches_explicit_twists():
    curve = CurveData(0, 1, 2)
    m = 15
    sizes = g_r_all_eps(curve, m)
    primes = (3, 5)
    for mask in range(4):
        # build an alpha realizing the residue pattern
        alpha, mod = 1, 1
        for i, q in enumerate(primes):
            want = -1 if (mask >> i) & 1 else 1
            res = next(x for x in range(1, q) if arith.jacobi(x, q) == want)
            alpha = arith.crt_pair(alpha, mod, res, q)
            mod *= q
        if alpha == 0:
            alpha = mod
        while math.gcd(alpha, m) != 1:
            alpha += mod
        assert sizes[mask] == g_r(curve, m, alpha), mask


def test_each_twist_is_factored_once(monkeypatch):
    calls = []
    factor = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or factor(n))
    curve = CurveData(0, 1, 2)
    t = 3 * 5 * 7 * 11
    for fn in (f_r, selmer_condition_kernel, g_r_all_eps, build_selmer_matrix):
        calls.clear()
        fn(curve, t)
        assert calls == [t], fn.__name__
    # once in the descent oracle, once for the whole rescaled collection
    # (its curves share the bad primes, so they share the twist primes)
    calls.clear()
    check_majorization_selmer(CurveData(0, 1, -1), 105)
    assert calls.count(105) == 2


def test_descent_oracle_factors_the_twist_once(monkeypatch):
    calls = []
    factor = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or factor(n))
    curve = CurveData(0, 1, 2)
    descent_selmer_oracle(curve, 1155)
    # the supports come from the primes of d and of the bad product
    assert calls == [1155, curve.omega]
    calls.clear()
    descent_selmer_oracle(curve, 1155)
    assert calls == [1155]


def brute_selmer_size(curve, d):
    """Independent |Sel^2|: everywhere-local solubility of all torsors."""
    es = tuple(d * r for r in curve.roots())
    c1, c2 = es[1] - es[0], es[2] - es[0]
    n1 = (es[0] - es[1]) * (es[0] - es[2])
    n2 = (es[1] - es[0]) * (es[1] - es[2])
    supp1 = [-1, 2] + [p for p, _ in arith.factor(n1).factors if p != 2]
    supp2 = [-1, 2] + [p for p, _ in arith.factor(n2).factors if p != 2]
    b1s = [1]
    for q in supp1:
        b1s += [b * q for b in b1s]
    b2s = [1]
    for q in supp2:
        b2s += [b * q for b in b2s]
    places = sorted(
        {2}
        | {p for p, _ in arith.factor(d).factors if p != 2}
        | {p for p in curve.omega_primes if p != 2}
    )
    count = 0
    for b1 in b1s:
        for b2 in b2s:
            # real solubility: some x with correct signs on all three factors
            s = sorted(es)
            real_ok = False
            for x in (Fraction(s[0] + s[1], 2), Fraction(s[2] + 1)):
                sg1 = 1 if x > es[0] else -1
                sg2 = 1 if x > es[1] else -1
                sg3 = 1 if x > es[2] else -1
                if sg1 * sg2 * sg3 > 0 and sg1 * b1 > 0 and sg2 * b2 > 0:
                    real_ok = True
            if b1 > 0 and b2 > 0 and b1 * b2 > 0:
                real_ok = True  # point at infinity handles the trivial signs
            if not real_ok:
                ok = False
            else:
                ok = all(torsor_solvable_qp(b1, b2, c1, c2, p) for p in places)
            if ok:
                count += 1
    return count


def test_descent_oracle_known_values():
    curve = CurveData(0, 1, -1)  # y^2 = x^3 - x
    assert descent_selmer_oracle(curve, 1) == 4
    assert descent_selmer_oracle(curve, -1) == 4
    # 5, 6, 7 are congruent numbers whose twists have rank 1 and trivial
    # 2-part of Sha, so |Sel^2| = 2^(1+2); for d=5 the generator (-4, 6)
    # and the relation delta(45,300) = delta(-4,6)+delta(T3) pin rank 1
    assert descent_selmer_oracle(curve, 5) == 8
    assert descent_selmer_oracle(curve, 6) == 8
    assert descent_selmer_oracle(curve, 7) == 8
    with pytest.raises(ValueError):
        descent_selmer_oracle(curve, 12)
    with pytest.raises(ValueError):
        descent_selmer_oracle(curve, 0)


def test_descent_oracle_against_brute_torsor_search():
    curve = CurveData(0, 1, -1)
    for d in (1, 3, 5, -2):
        assert descent_selmer_oracle(curve, d) == brute_selmer_size(curve, d), d
    curve2 = CurveData(0, 1, 2)
    for d in (1, 5, -1):
        assert descent_selmer_oracle(curve2, d) == brute_selmer_size(curve2, d), d


def test_local_images_against_grid_enumeration():
    from oracles import brute_local_image
    from amoments.selmer import _image_basis_padic, _pair_coords

    cases = [
        ((0, 5, -5), 5),        # place dividing the twist and root gaps
        ((0, 5, -5), 2),
        ((0, 7, -7), 7),        # the configuration the torsor tree chokes on
        ((0, 7, -7), 2),
        ((0, 1, 2), 2),
        ((0, 6, 15), 3),        # place dividing the bad product
        ((0, 6, 15), 5),
        ((0, -3, 9), 3),
        ((2, 10, 21), 2),
    ]
    for es, p in cases:
        brute = brute_local_image(es, p)
        basis = _image_basis_padic(es, p)
        span = {0}
        for v in basis:
            span |= {s ^ v for s in span}
        computed = set()
        d = 3 if p == 2 else 2
        for vec in span:
            c1 = tuple((vec >> i) & 1 for i in range(d))
            c2 = tuple((vec >> (d + i)) & 1 for i in range(d))
            computed.add((c1, c2))
        assert computed == brute, (es, p)


def test_descent_oracle_power_of_two_and_contains_torsion():
    for curve in CURVES:
        for d in (1, 2, 3, 5, 6, 7, 10, -1, -3, 11, 13, 15):
            if not arith.is_squarefree(d):
                continue
            size = descent_selmer_oracle(curve, d)
            assert size >= 4 and size & (size - 1) == 0, (curve, d)


def test_descent_oracle_within_selmer_condition_bound():
    # Sel^2(E_d) embeds in the condition-matrix bound with the W/W' index
    curve = CurveData(0, 1, -1)
    w = len(curve.omega_primes)
    for d in (1, 3, 5, 7, 11, 13, 15, 21):
        lhs = descent_selmer_oracle(curve, d)
        assert lhs <= 4 ** (w + 1) * f_r(curve, d), d


def test_majorization_selmer_examples_and_sweep():
    curve = CurveData(0, 1, -1)
    assert check_majorization_selmer(curve, 1, 1)
    for d in range(-60, 61):
        if d == 0 or not arith.is_squarefree(d):
            continue
        assert check_majorization_selmer(curve, d, 1), d
    for d in (-35, 21, 30):
        assert check_majorization_selmer(curve, d, 2), d


def test_submatrix_majorization_f_vs_g():
    for curve in CURVES:
        for _ in range(150):
            m = RNG.randint(1, 300)
            n = RNG.randint(1, 300)
            if math.gcd(m, n) != 1:
                continue
            fm = f_r(curve, m * n)
            gm = g_r(curve, m, n) if math.gcd(m, n) == 1 else None
            assert fm <= gm * 4 ** arith.omega(n), (curve, m, n)


# twists of the memo tests: every square-free d with |d| <= 300
MEMO_TWISTS = [d for a in range(1, 301) for d in (a, -a) if arith.is_squarefree(d)]


def _span(basis):
    span = {0}
    for vec in basis:
        span |= {s ^ vec for s in span}
    return span


def _memo_places(curve):
    return [2] + [p for p in curve.omega_primes if p != 2]


@pytest.fixture(scope="module")
def memo_run():
    """Oracle values over MEMO_TWISTS from an empty cache, with the cache
    they leave behind."""
    selmer._PADIC_IMAGES.clear()
    values = {(c, d): descent_selmer_oracle(c, d) for c in CURVES for d in MEMO_TWISTS}
    return values, dict(selmer._PADIC_IMAGES)


def test_padic_image_memo_matches_fresh_computation(memo_run):
    from amoments.selmer import _image_basis_padic

    _, cache = memo_run
    # each key was filled by the first twist of its class; recompute it from
    # the last one, so classes with two or more members compare different d
    checked = set()
    for curve in CURVES:
        for d in reversed(MEMO_TWISTS):
            for v in _memo_places(curve):
                key = (curve.roots(), v, local_coords(d, v))
                if key in checked:
                    continue
                checked.add(key)
                es = tuple(d * r for r in curve.roots())
                assert _span(cache[key]) == _span(_image_basis_padic(es, v)), key
    assert checked == set(cache)


def test_padic_image_memo_size(memo_run):
    _, cache = memo_run
    for curve in CURVES:
        for v in _memo_places(curve):
            keys = [k for k in cache if k[:2] == (curve.roots(), v)]
            assert len(keys) <= (8 if v == 2 else 4), (curve, v)
            reached = {local_coords(d, v) for d in MEMO_TWISTS}
            assert {k[2] for k in keys} == reached, (curve, v)


def test_descent_oracle_independent_of_cache_state_and_order(memo_run):
    values, _ = memo_run
    # warm cache, same order
    assert {key: descent_selmer_oracle(*key) for key in values} == values
    # cleared cache, reverse order
    selmer._PADIC_IMAGES.clear()
    assert {key: descent_selmer_oracle(*key) for key in reversed(values)} == values
