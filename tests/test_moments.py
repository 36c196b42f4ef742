import math
import random
from fractions import Fraction
from itertools import product

import pytest

from amoments import arith, moments, quadforms, redei, selmer
from amoments.density import poly_from_string
from amoments.moments import (
    MomentReport,
    P_quadratic,
    S_moment,
    bijection_B,
    check_P_identity,
    class_pre_average_expansion,
    first_moment_lhs,
    first_moment_lhs_profile,
    first_moment_rhs,
    first_moment_rhs_profile,
    kth_moment_identity_check,
    max_unlinked,
    moment_indices,
    oscillation_experiment,
    phi,
    phi_exact,
    s1_parity,
    selmer_detector,
    selmer_first_moment_direct,
    selmer_first_moment_expand,
    signed_class_decomposition,
    theorem11_experiment,
    theorem12_experiment,
    weight_by_name,
    weighted_moment_report,
)

RNG = random.Random(0xA11CE)

ONE = weight_by_name("one")


def test_bijection():
    assert bijection_B((0, 0)) == 1
    assert bijection_B((0, 1)) == 2
    assert bijection_B((1, 1)) == 3
    assert bijection_B((1, 0)) == 4


def test_weights():
    assert weight_by_name("2^omega").of_omega(3) == 8
    assert weight_by_name("tau").of_omega(2) == 4
    assert weight_by_name("kappa:3/2").of_omega(2) == Fraction(9, 4)
    with pytest.raises(ValueError):
        weight_by_name("bogus")


def test_phi_examples():
    assert phi("class", 1, (0, 0), (1, 0)) == 1  # pair (1, 4)
    assert phi("class", 1, (1, 1), (0, 1)) == 1  # pair (3, 2)
    assert phi("class", 1, (0, 0), (0, 1)) == 0
    assert phi("selmer", 1, (1, 0, 0, 0), (0, 0, 0, 1)) == 0
    for u in moments.index_vectors("class", 2):
        assert phi("class", 2, u, u) == 0
        assert phi_exact("class", 2, u, u) == 0
    with pytest.raises(ValueError):
        phi("class", 1, (0, 0, 0), (0, 0, 0))


def test_s1_parity():
    assert s1_parity("class", 1, (0, 0)) == 1
    assert s1_parity("class", 1, (1, 0)) == 0
    assert s1_parity("class", 2, (0, 0, 0, 0)) == 0
    assert s1_parity("selmer", 1, (1, 0, 1, 1)) == 1
    assert s1_parity("selmer", 1, (0, 0, 1, 1)) == 0


def test_P_identity():
    for k in (1, 2, 3, 4):
        assert check_P_identity(k)
    assert P_quadratic((0, 0)) == 0


def test_linked_symmetrization_matches_exact_form():
    # the normalized and literal forms have the same symmetrization
    for setting, k in (("class", 1), ("class", 2), ("selmer", 1)):
        vecs = moments.index_vectors(setting, k)
        for _ in range(300):
            u = RNG.choice(vecs)
            v = RNG.choice(vecs)
            lhs = (phi(setting, k, u, v) + phi(setting, k, v, u)) % 2
            rhs = (phi_exact(setting, k, u, v) + phi_exact(setting, k, v, u)) % 2
            assert lhs == rhs


def test_max_unlinked():
    for k in (1, 2, 3):
        size, witness = max_unlinked("class", k)
        assert size == 2 ** k, k
        for u in witness:
            for v in witness:
                assert phi("class", k, u, v) == 0
    size, witness = max_unlinked("selmer", 1)
    assert size == 4
    with pytest.raises(ValueError):
        max_unlinked("class", 4)


def test_max_unlinked_selmer_k2():
    size, witness = max_unlinked("selmer", 2)
    assert size == 16
    assert len(set(witness)) == 16
    for u in witness:
        for v in witness:
            assert phi("selmer", 2, u, v) == 0


def test_first_moment_spot_values():
    assert first_moment_lhs(3, ONE) == Fraction(5, 2)
    assert first_moment_rhs(3, ONE) == Fraction(5, 2)
    assert first_moment_lhs(1, ONE) == 1
    assert first_moment_rhs(1, ONE) == 1


def test_first_moment_identity_small():
    for name in ("one", "2^omega", "tau", "kappa:3/2"):
        w = weight_by_name(name)
        lhs = first_moment_lhs_profile(120, w)
        rhs = first_moment_rhs_profile(120, w)
        assert lhs == rhs, name


def test_selmer_detector_matches_kernel_membership():
    for curve in (selmer.CurveData(0, 1, -1), selmer.CurveData(0, 1, 2)):
        for m in (1, 5, 7, 35, 105):
            if math.gcd(m, curve.omega) != 1:
                continue
            primes = tuple(p for p, _ in arith.factor(m).factors)
            r = len(primes)
            sizes = selmer.g_r_all_eps(curve, m)
            for mask in range(1 << r):
                eps = tuple((mask >> i) & 1 for i in range(r))
                sys = selmer.build_selmer_matrix(
                    curve, m, _alpha_for(primes, eps, m)
                )
                total = Fraction(0)
                for split in _ordered_splits(primes):
                    det = selmer_detector(curve, m, eps, split)
                    assert det in (0, 1)
                    vec = _split_to_vector(primes, split)
                    in_kernel = sys.matrix.mul_vec(vec) == 0
                    assert (det == 1) == in_kernel, (curve, m, eps, split)
                    total += det
                assert total == selmer.g_r(curve, m, _alpha_for(primes, eps, m))
                assert total == sizes[mask]


def _alpha_for(primes, eps, m):
    alpha, mod = 1, 1
    for q, e in zip(primes, eps):
        want = -1 if e else 1
        res = next(x for x in range(1, q) if arith.jacobi(x, q) == want)
        alpha = arith.crt_pair(alpha, mod, res, q)
        mod *= q
    alpha = alpha or 1
    while math.gcd(alpha, m) != 1:
        alpha += mod
    return alpha


def _ordered_splits(primes):
    for assign in product(range(4), repeat=len(primes)):
        ds = [1, 1, 1, 1]
        for p, slot in zip(primes, assign):
            ds[slot] *= p
        yield tuple(ds)


def _split_to_vector(primes, split):
    x1 = split[0] * split[1]
    x2 = split[0] * split[2]
    r = len(primes)
    vec = 0
    for i, p in enumerate(primes):
        if x1 % p == 0:
            vec |= 1 << i
        if x2 % p == 0:
            vec |= 1 << (r + i)
    return vec


def test_selmer_first_moment_expand():
    for curve in (
        selmer.CurveData(0, 1, -1),
        selmer.CurveData(0, 1, 2),
        selmer.CurveData(0, 2, 5),
    ):
        assert selmer_first_moment_expand(curve, 1) == 1
        assert selmer_first_moment_expand(curve, 300) == selmer_first_moment_direct(
            curve, 300
        ), curve


def test_kth_moment_identity():
    assert kth_moment_identity_check("class", 60, 1, ONE)
    assert kth_moment_identity_check("class", 40, 2, weight_by_name("2^omega"))
    assert kth_moment_identity_check(
        "selmer", 40, 1, ONE, selmer.CurveData(0, 1, -1)
    )
    with pytest.raises(ValueError):
        kth_moment_identity_check("class", 500, 1, ONE)


def test_pre_average_expansion_matches_restricted():
    # the twisted positions only survive the average when their variables
    # are trivial, so the pre-average sum collapses to the restricted one
    for k in (1, 2):
        pre = class_pre_average_expansion(40, k, ONE)
        direct = moments._direct_profile("class", 40, k, ONE, None)[40]
        assert pre == direct, k


def test_S_moment_trivial_and_triangle():
    U = moment_indices("class", 1)
    ones = tuple(1 for _ in U)
    assert S_moment("class", 1, 1, ones, ONE) == 1
    for classes in product((1, 3), repeat=len(U)):
        if classes != ones:
            assert S_moment("class", 1, 1, classes, ONE) == 0
    # term-wise triangle bound
    for classes in product((1, 3), repeat=len(U)):
        val = abs(S_moment("class", 30, 1, classes, ONE))
        bound = Fraction(0)
        for m, primes in moments.odd_squarefree_with_primes(30):
            w = len(primes)
            bound += Fraction(len(U) ** w, 2 ** w)
        assert val <= bound


def test_signed_class_decomposition():
    direct, total = signed_class_decomposition(60, 1, ONE)
    assert direct == total
    direct, total = signed_class_decomposition(30, 2, ONE)
    assert direct == total


def test_oscillation_degenerate_and_small():
    rows = oscillation_experiment(1000, [1000, 2000])
    assert all(r["sum"] == 0 for r in rows)
    rows = oscillation_experiment(10 ** 4, [10])
    assert abs(rows[0]["sum"]) * 5 < 10 ** 4
    with pytest.raises(ValueError):
        oscillation_experiment(10 ** 8, [10])


def test_theorem12_small_against_direct_tabulation():
    reports = theorem12_experiment([100], 1, -1)
    exact = next(r for r in reports if r.experiment == "t12-exact")
    maj = next(r for r in reports if r.experiment == "t12-majorant")
    direct = 0
    majorant = 0
    for delta, _ in arith.fundamental_discriminants(3, 100, -1):
        g = quadforms.class_group(delta)
        direct += g.torsion(6)
        majorant += g.torsion(3) * 2 ** arith.omega(delta) * 2 ** g.rk4
    assert exact.value == direct
    assert maj.value == majorant
    assert maj.value >= exact.value


def test_theorem12_majorant_dominates_pointwise():
    reports = theorem12_experiment([200, 400], 1, -1)
    by_x = {}
    for r in reports:
        by_x.setdefault(r.X, {})[r.experiment] = r.value
    for X, vals in by_x.items():
        assert vals["t12-majorant"] >= vals["t12-exact"], X


def test_theorem12_positive_sign():
    groups = [
        (quadforms.class_group(d), om) for d, om in arith.fundamental_discriminants(3, 1500, 1)
    ]
    for k in (1, 2, 3):
        reports = theorem12_experiment([1500], k, 1)
        exact = next(r for r in reports if r.experiment == "t12-exact")
        maj = next(r for r in reports if r.experiment == "t12-majorant")
        assert exact.value == sum(g.torsion(3 * 2 ** k) for g, _ in groups), k
        assert maj.value == sum(g.torsion(3) * 2 ** om * 2 ** (k * g.rk4) for g, om in groups), k


def test_theorem11_small_against_direct():
    P = poly_from_string("t")
    curve = selmer.CurveData(0, 1, -1)
    reports = theorem11_experiment(P, curve, [50], 1)
    direct = sum(
        selmer.f_r(curve, t) for t in range(-50, 51) if t != 0
    )
    assert reports[0].value == direct
    assert reports[0].normalized >= 1 - 0.05
    P2 = poly_from_string("t^2+1")
    rep2 = theorem11_experiment(P2, curve, [40], 1)
    direct2 = sum(selmer.f_r(curve, t * t + 1) for t in range(-40, 41))
    assert rep2[0].value == direct2


def test_moment_report_csv():
    rep = MomentReport("t12-exact", "class", 100, 1, -1, "one", Fraction(5, 2), 0.125)
    assert rep.csv_row() == "t12-exact,class,100,1,-,one,5/2,0.125"


def test_weighted_moment_report_smoke():
    rep = weighted_moment_report(500, 1, weight_by_name("2^omega"))
    assert rep.value > 0
    assert 0 < rep.normalized < 100


def test_weighted_moment_bounded_across_scales():
    # normalized weighted moments stay in a narrow band as X grows
    w = weight_by_name("2^omega")
    norms = {1: [], 2: []}
    for X in (10 ** 3, 10 ** 4, 10 ** 5):
        reps = moments.weighted_moment_profile(X, (1, 2), w)
        for k in (1, 2):
            norms[k].append(reps[k].normalized)
    for k in (1, 2):
        vals = norms[k]
        assert all(0.05 < v < 20 for v in vals), vals
        assert max(vals) / min(vals) < 1.5, vals


def test_theorem11_doubling_stability():
    P = poly_from_string("t")
    curve = selmer.CurveData(0, 1, -1)
    reports = theorem11_experiment(P, curve, [1000, 2000], 1)
    n1, n2 = reports[0].normalized, reports[1].normalized
    assert abs(n2 - n1) / n1 < 0.30, (n1, n2)