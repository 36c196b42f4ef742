import math
import random

import pytest
from oracles import class_group_by_orders, fundamental_unit_norm

from amoments import arith, cli, quadforms
from amoments.quadforms import (
    FormClassGroup,
    _compose,
    _reduce_neg,
    class_group,
    neg_torsion_sweep,
    pos_narrow_sweep,
    reduced_forms_neg,
)

RNG = random.Random(0xF0)


def test_class_group_examples():
    g = class_group(-23)
    assert g.invariants == (3,) and g.h == 3
    g = class_group(-56)
    assert g.invariants == (4,) and g.h == 4
    g = class_group(5)
    assert g.invariants == () and g.h == 1


def test_class_group_rejects():
    with pytest.raises(ValueError):
        class_group(-18)
    with pytest.raises(ValueError):
        class_group(-(10 ** 7) - 3)


def test_reduced_forms_neg_23():
    assert reduced_forms_neg(-23) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]


def test_composition_laws_random_neg():
    for delta in (-23, -56, -71, -120, -231, -479, -1003, -3299):
        if not arith.is_fundamental_discriminant(delta):
            continue
        forms = reduced_forms_neg(delta)
        e = quadforms.principal_form_neg(delta)
        for _ in range(60):
            f1 = RNG.choice(forms)
            f2 = RNG.choice(forms)
            f3 = RNG.choice(forms)
            a, b, c = _compose(f1, f2, delta)
            assert b * b - 4 * a * c == delta
            assert math.gcd(math.gcd(a, b), c) == 1
            p12 = _reduce_neg(a, b, c)
            p21 = _reduce_neg(*_compose(f2, f1, delta))
            assert p12 == p21
            lhs = _reduce_neg(*_compose(p12, f3, delta))
            rhs = _reduce_neg(*_compose(f1, _reduce_neg(*_compose(f2, f3, delta)), delta))
            assert lhs == rhs
            assert _reduce_neg(*_compose(f1, e, delta)) == f1
            inv = (f1[0], -f1[1], f1[2])
            assert _reduce_neg(*_compose(f1, inv, delta)) == e


def test_known_class_numbers_neg():
    known = {
        -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -24: 2,
        -31: 3, -39: 4, -47: 5, -71: 7, -84: 4, -95: 8, -103: 5, -120: 4,
        -163: 1, -231: 12, -311: 19, -404: 14, -479: 25, -1003: 4, -4027: 9,
    }
    for delta, h in known.items():
        assert class_group(delta).h == h, delta


def test_known_structures_neg():
    # groups with non-cyclic structure
    assert class_group(-84).invariants == (2, 2)
    assert class_group(-120).invariants == (2, 2)
    assert class_group(-231).invariants == (2, 6)
    assert class_group(-3299).invariants == (3, 9)
    assert class_group(-3896).invariants == (3, 12)


def test_h_torsion_examples():
    assert class_group(-23).torsion(3) == 3
    assert class_group(-56).torsion(4) == 4
    for delta in (-23, -56, 5, 12):
        assert class_group(delta).torsion(1) == 1


def test_fundamental_unit_norm():
    assert fundamental_unit_norm(5) == -1
    assert fundamental_unit_norm(12) == 1
    assert fundamental_unit_norm(8) == -1
    with pytest.raises(ValueError):
        fundamental_unit_norm(-8)


def test_unit_norm_against_pell_small():
    # norm is -1 iff x^2 - delta*y^2 = -4 is soluble; minimal solutions for
    # delta <= 100 all have y <= 1200
    for delta, _ in arith.fundamental_discriminants(3, 100, 1):
        soluble = any(
            math.isqrt(delta * y * y - 4) ** 2 == delta * y * y - 4
            for y in range(1, 2001)
        )
        assert (fundamental_unit_norm(delta) == -1) == soluble, delta


def test_unit_norm_structural_criteria():
    for delta, _ in arith.fundamental_discriminants(3, 2000, 1):
        norm = fundamental_unit_norm(delta)
        if any(p % 4 == 3 for p, _ in arith.factor(delta).factors):
            # -4 is a non-square mod such a prime, so norm -1 is impossible
            assert norm == 1, delta
        elif delta % 2 == 1 and arith.is_prime(delta):
            assert norm == -1, delta
    # first discriminant with norm +1 despite all prime factors = 1 mod 4;
    # the unit (43 + 3*sqrt(205))/2 has norm +1 and minimal y
    assert fundamental_unit_norm(205) == 1


def test_narrow_vs_ordinary():
    for delta, _ in arith.fundamental_discriminants(3, 500, 1):
        narrow = class_group(delta, narrow=True)
        ordinary = class_group(delta, narrow=False)
        if fundamental_unit_norm(delta) == -1:
            assert narrow.h == ordinary.h
        else:
            assert narrow.h == 2 * ordinary.h
        # 3-torsion is blind to the index-2 quotient
        assert narrow.torsion(3) == ordinary.torsion(3)


def test_narrow_equals_ordinary_for_negative():
    for delta in (-23, -56, -84, -231):
        assert class_group(delta, narrow=True) == FormClassGroup(
            delta, True, class_group(delta).invariants, class_group(delta).h
        )


def test_known_real_class_numbers():
    known_h = {5: 1, 8: 1, 12: 1, 13: 1, 40: 2, 60: 2, 65: 2, 85: 2, 229: 3, 401: 5, 577: 7}
    for delta, h in known_h.items():
        assert class_group(delta).h == h, delta


def test_genus_theory_small():
    for delta, _ in arith.fundamental_discriminants(3, 2000, -1):
        g = class_group(delta)
        assert g.torsion(2) == 2 ** (arith.omega(delta) - 1), delta


def test_analytic_class_number_formula_sample():
    # Dirichlet: h = w/(2|D|) * |sum a*chi(a)| for D < 0
    rng = random.Random(3)
    discs = [d for d, _ in arith.fundamental_discriminants(3, 20000, -1)]
    for delta in rng.sample(discs, 100):
        w = 6 if delta == -3 else 4 if delta == -4 else 2
        s = sum(a * arith.kronecker(delta, a) for a in range(1, abs(delta)))
        analytic = w * abs(s) / (2 * abs(delta))
        h = class_group(delta).h
        assert abs(analytic - h) < 0.01 * h + 1e-9, delta


def test_monotone_two_power_ratio_chain():
    for delta, _ in [*arith.fundamental_discriminants(3, 3000, -1), *arith.fundamental_discriminants(3, 600, 1)]:
        g = class_group(delta)
        hs = [g.torsion(2 ** t) for t in range(5)]
        for t in range(1, 4):
            assert hs[t + 1] * hs[t - 1] <= hs[t] * hs[t], delta


def test_rk4_property():
    g = class_group(-56)  # Z/4
    assert g.rk4 == 1
    assert class_group(-23).rk4 == 0
    assert class_group(-84).rk4 == 0


def _sweep_expected(lo, hi, ns, sign=-1):
    """Sweep rows built from class_group, one discriminant at a time: narrow
    counts from the narrow group, ordinary counts from its explicit quotient."""
    rows = []
    for absd in range(max(lo, 1), hi + 1):
        delta = sign * absd
        if not arith.is_fundamental_discriminant(delta):
            continue
        narrow = class_group(delta, narrow=True)
        ordinary = class_group(delta, narrow=False)
        rows.append((
            absd,
            arith.omega(delta),
            narrow.h,
            tuple(narrow.torsion(n) for n in ns),
            tuple(ordinary.torsion(n) for n in ns),
        ))
    return rows


def test_neg_torsion_sweep_consistency():
    ns = (2, 3, 4, 8, 6, 12, 1)
    assert not arith.is_fundamental_discriminant(-1000)
    assert not arith.is_fundamental_discriminant(-3300)
    # the whole range, chunk-shaped ranges: lo inside the range, lo = hi
    # (fundamental and not), lo not fundamental, lo below 3, an empty range
    for lo, hi in ((3, 400), (1501, 2300), (3299, 3299), (3896, 3896), (3300, 3300), (1000, 1999),
                   (1, 40), (10, 9)):
        assert neg_torsion_sweep(lo, hi, ns) == _sweep_expected(lo, hi, ns), (lo, hi)
    assert neg_torsion_sweep(3300, 3300, ns) == neg_torsion_sweep(1, 2, ns) == neg_torsion_sweep(0, -5, ns) == []


def test_pos_narrow_sweep_consistency():
    # 12, 60 and 205 have a fundamental unit of norm +1, so Cl is a proper
    # quotient of Cl+ there
    for delta in (12, 60, 205):
        assert fundamental_unit_norm(delta) == 1
        assert class_group(delta, narrow=True).h == 2 * class_group(delta).h
    for lo, hi, ns in ((3, 300, (2, 4)), (3, 1500, (3,)), (3, 1500, (2, 4, 8)), (700, 1500, (3,)),
                       (3, 1500, (2, 3, 4, 8, 6, 12, 24, 1)), (12, 12, (2, 4, 8, 6, 12, 24)),
                       (60, 60, (2, 4, 8, 6, 12, 24)), (205, 205, (2, 4, 8, 6, 12, 24))):
        assert pos_narrow_sweep(lo, hi, ns) == _sweep_expected(lo, hi, ns, sign=1), (lo, ns)


def test_torsion_sweep_picks_the_sweep_by_sign():
    ns = (2, 3, 4)
    assert quadforms.torsion_sweep(100, 900, ns, -1) == neg_torsion_sweep(100, 900, ns)
    assert quadforms.torsion_sweep(100, 900, ns, 1) == pos_narrow_sweep(100, 900, ns)
    with pytest.raises(ValueError):
        quadforms.torsion_sweep(100, 900, ns, 0)


def test_neg_torsion_sweep_chunks_concatenate():
    ns = (2, 3, 4, 2)
    whole = neg_torsion_sweep(3, 6000, ns)
    for chunk in (1, 97, 1000, 2500):
        parts = []
        for lo, hi in arith.split_ranges(3, 6000, chunk, (4000,)):
            parts += neg_torsion_sweep(lo, hi, ns)
        assert parts == whole, chunk


def test_pos_narrow_sweep_chunks_concatenate():
    ns = (2, 3, 4)
    # from 3, and from above 3 with every cut off round numbers
    for lo, hi, cut, chunks in ((3, 3000, 2000, (1, 97, 1000, 2500)), (1237, 4211, 2999, (7, 389, 1000))):
        whole = pos_narrow_sweep(lo, hi, ns)
        for chunk in chunks:
            parts = []
            for a, b in arith.split_ranges(lo, hi, chunk, (cut,)):
                parts += pos_narrow_sweep(a, b, ns)
            assert parts == whole, (lo, chunk)


def test_tabulated_real_forms_match_reference():
    # every positive fundamental delta <= 2 * 10^4, over ranges whose ends
    # are off round numbers, and a narrow range far from 0, where the walk
    # over (b, |a|) starts well above |a| = 1; a key with a > 0 stands for
    # (a, b, c) and (-a, b, -c)
    bounds = ((1, 4), (5, 5), (6, 977), (978, 4099), (4100, 13001), (13002, 2 * 10 ** 4))
    tables = [t for lo, hi in bounds for t in quadforms._pos_forms(lo, hi)]
    assert [t[:2] for t in tables] == list(arith.fundamental_discriminants(3, 2 * 10 ** 4, 1))
    far = list(quadforms._pos_forms(999001, 999400))
    assert [t[:2] for t in far] == list(arith.fundamental_discriminants(999001, 999400, 1))
    tables += far
    for delta, _, keys in tables:
        forms = []
        for key in keys:
            a, b = divmod(key, quadforms._KEY)
            c = (b * b - delta) // (4 * a)
            forms += [(a, b, c), (-a, b, -c)]
        assert sorted(forms) == quadforms.reduced_forms_pos(delta), delta


def test_class_group_matches_order_oracle():
    # the structure reader (and its shortcut for Sylow parts of prime order)
    # against invariants read from class orders alone, for every fundamental
    # |delta| <= 3000; the narrow group of an imaginary field is the ordinary one
    for sign in (-1, 1):
        for delta, _ in arith.fundamental_discriminants(3, 3000, sign):
            for narrow in (False, True):
                want = class_group_by_orders(delta, narrow)
                assert class_group(delta, narrow).invariants == want, (delta, narrow)
    for delta, narrow, want in ((-4027, False, (3, 3)), (-3299, False, (3, 9)), (2981, False, (3,)),
                                (2981, True, (6,))):
        assert class_group(delta, narrow).invariants == class_group_by_orders(delta, narrow) == want


def test_neg_torsion_sweep_rejects_other_orders():
    with pytest.raises(ValueError):
        neg_torsion_sweep(3, 100, (2, 5))


def test_square_matches_composition():
    for delta in (-3, -4, -23, -56, -84, -231, -479, -3299, -3896, -9959, -10007, -88520, -99995):
        assert arith.is_fundamental_discriminant(delta)
        for f in reduced_forms_neg(delta):
            assert _reduce_neg(*quadforms._square(*f, delta)) == _reduce_neg(*_compose(f, f, delta)), (delta, f)
    for delta in (5, 12, 40, 60, 65, 229, 577, 1705):
        ctx = quadforms._PosNarrow(delta)
        for f in quadforms.reduced_forms_pos(delta):
            assert ctx._class_of(quadforms._square(*f, delta)) == ctx._class_of(_compose(f, f, delta)), (delta, f)


def test_group_power_equals_repeated_op():
    # the sweeps' tables: packed keys (with negative b) or cycle indices
    for delta in (-3299, -3896, -231, 229, 1705):
        tables = quadforms._neg_tables(-delta, -delta) if delta < 0 else quadforms._pos_tables(delta, delta)
        [(_, _, sq, mul, e, _)] = tables
        for x in sq:
            acc = x
            for k in range(1, 10):
                assert quadforms._power(x, k, sq, mul) == acc, (delta, x, k)
                acc = mul(acc, x)
            assert mul(x, e) == x


def test_classgroup_sweep_matches_class_group(monkeypatch):
    # every fundamental delta with |delta| <= 10^4 (imaginary) and <= 3000
    # (real), through the classgroup worker on chunks off round numbers
    real_tables = quadforms._pos_tables
    monkeypatch.setattr(quadforms, "_pos_tables", lambda lo, hi: real_tables(lo, min(hi, 3000)))
    bounds = ((3, 977), (978, 2999), (3000, 3001), (3002, 7919), (7920, 10 ** 4))
    discs = [*arith.fundamental_discriminants(3, 3000, 1), *arith.fundamental_discriminants(3, 10 ** 4, -1)]
    ordinary = {delta: class_group(delta).invariants for delta, _ in discs}
    for narrow in (False, True):
        rows = [row for lo, hi in bounds for row in cli._w_classgroup(lo, hi, narrow)]
        assert [row[0] for row in rows] == sorted(ordinary, key=lambda d: (abs(d), -d))
        for delta, flag, inv in rows:
            want = class_group(delta, True).invariants if narrow and delta > 0 else ordinary[delta]
            assert (flag, tuple(inv)) == (int(narrow), want), (delta, narrow)


def test_cache_roundtrip(tmp_path):
    entries = {
        (-23, False): (3,),
        (5, False): (),
        (-56, True): (4,),
        (60, True): (2, 2) if class_group(60, narrow=True).invariants == (2, 2) else class_group(60, narrow=True).invariants,
    }
    path = tmp_path / "cls.tsv"
    quadforms.cache_save(str(path), entries)
    assert quadforms.cache_load(str(path)) == entries
    lines = path.read_text().splitlines()
    assert lines == sorted(lines, key=lambda ln: abs(int(ln.split("\t")[0])))
