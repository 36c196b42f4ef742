"""Acceptance criteria, one test per criterion, at the stated scales.

Each test prints `ACCEPTANCE nn <name>: PASS|FAIL` (run pytest with -s to
see the lines as they stream).  The multi-hour full tier of criterion 9 is
gated behind AMOMENTS_FULL=1; its CI tier always runs.
"""

import math
import os
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from amoments import arith, cli, moments, quadforms, redei, selmer
from amoments.moments import weight_by_name

THREADS = str(os.cpu_count() or 2)


@contextmanager
def report(n, name):
    try:
        yield
        print(f"ACCEPTANCE {n:02d} {name}: PASS", flush=True)
    except BaseException:
        print(f"ACCEPTANCE {n:02d} {name}: FAIL", flush=True)
        raise


@pytest.fixture(scope="module")
def t12_runs(tmp_path_factory):
    """The criterion-10 experiment, run through the harness three ways:
    1 worker, 8 workers, and a kill-resume cycle (shared with criterion 12)."""
    tmp = tmp_path_factory.mktemp("t12")
    base = ["--chunk", "5000", "experiment", "t12", "--x-list", "10000,100000", "--k", "1", "--sign", "neg"]
    out1 = tmp / "threads1.csv"
    out8 = tmp / "threads8.csv"
    resumed = tmp / "resumed.csv"
    cp = tmp / "resume.ckpt"
    assert cli.main(["--out", str(out8), "--threads", "8"] + base) == 0
    assert cli.main(["--out", str(out1), "--threads", "1"] + base) == 0
    partial = tmp / "partial.csv"
    assert (
        cli.main(
            ["--out", str(partial), "--threads", "8", "--checkpoint", str(cp), "--max-chunks", "3"]
            + base
        )
        == 0
    )
    assert not partial.exists()
    assert cli.main(["--out", str(resumed), "--threads", "8", "--checkpoint", str(cp)] + base) == 0
    return out1.read_bytes(), out8.read_bytes(), resumed.read_bytes()


def test_criterion_01_redei_stevenhagen_agreement(tmp_path):
    with report(1, "Redei/Stevenhagen agreement (neg 1e5, pos 1e4)"):
        out = tmp_path / "redei.csv"
        code = cli.main(
            [
                "--out", str(out), "--threads", THREADS, "--chunk", "4000",
                "verify", "redei", "--dmax", "100000", "--sign", "both", "--dmax-pos", "10000",
            ]
        )
        text = out.read_text()
        assert code == 0, text
        assert "redei_agreement_neg,100000,PASS" in text
        assert "redei_agreement_pos,10000,PASS" in text
        assert "redei_mismatches_neg,100000,0" in text
        assert "redei_mismatches_pos,10000,0" in text
        assert "genus_violations,100000,0" in text
        checked = int(
            next(ln for ln in text.splitlines() if ln.startswith("redei_checked_neg")).split(",")[2]
        )
        assert checked == sum(1 for _ in arith.fundamental_discriminants(3, 100000, -1))


def test_criterion_02_detector_kernel_identity():
    with report(2, "detector = twisted kernel size for odd square-free a <= 3000"):
        checked = 0
        for a in range(1, 3001, 2):
            if not arith.is_squarefree(a):
                continue
            r = len(redei.build_twisted(a, 1).odd_primes)
            for mask in range(1 << r):
                eps = tuple((mask >> i) & 1 for i in range(r))
                alpha = redei.alpha_realizing(a, eps)
                assert redei.g_detector(a, eps) == redei.g_twisted(a, alpha), (a, eps)
                checked += 1
        assert checked == 4839  # every (a, eps) pair with odd square-free a <= 3000


def test_criterion_03_first_moment_identity():
    with report(3, "first-moment identity, X <= 500, weights {1, 2^w, tau}"):
        for name in ("one", "2^omega", "tau"):
            w = weight_by_name(name)
            lhs = moments.first_moment_lhs_profile(500, w)
            rhs = moments.first_moment_rhs_profile(500, w)
            assert lhs == rhs, name
        assert moments.first_moment_lhs(3, weight_by_name("one")) == Fraction(5, 2)
        assert moments.first_moment_rhs(3, weight_by_name("one")) == Fraction(5, 2)


def test_criterion_04_kth_moment_expansion():
    with report(4, "k-th moment = character-sum expansion (class k<=2, selmer k=1)"):
        one = weight_by_name("one")
        d, e = moments.kth_moment_identity_profile("class", 200, 1, one)
        assert d == e
        d, e = moments.kth_moment_identity_profile("class", 60, 2, one)
        assert d == e
        for curve in (selmer.CurveData(0, 1, -1), selmer.CurveData(0, 1, 2), selmer.CurveData(0, 2, 5)):
            d, e = moments.kth_moment_identity_profile("selmer", 60, 1, one, curve)
            assert d == e, curve


def test_criterion_05_selmer_matrix_vs_local_conditions():
    with report(5, "condition-matrix kernel = Hilbert-symbol kernel, t <= 2000"):
        for curve in (selmer.CurveData(0, 1, -1), selmer.CurveData(0, 1, 2), selmer.CurveData(0, 2, 5)):
            checked = 0
            for t in range(1, 2001):
                if not arith.is_squarefree(t) or math.gcd(t, curve.omega) != 1:
                    continue
                lhs = selmer.build_selmer_matrix(curve, t).matrix.kernel_size()
                rhs = len(selmer.selmer_condition_kernel(curve, t))
                assert lhs == rhs, (curve, t)
                checked += 1
            assert checked > 500, curve


def test_criterion_06_descent_oracle_majorization():
    with report(6, "descent oracle <= 4^(w+1) * collection majorant, |d| <= 2000"):
        curve = selmer.CurveData(0, 1, -1)
        assert selmer.descent_selmer_oracle(curve, 1) == 4
        checked = 0
        for a in range(1, 2001):
            for d in (a, -a):
                if not arith.is_squarefree(d):
                    continue
                assert selmer.check_majorization_selmer(curve, d, 1), d
                checked += 1
        assert checked > 2000


def test_criterion_07_majorization_inequalities():
    with report(7, "matrix majorization on 1000 random coprime pairs (k in {1,2})"):
        rng = random.Random(0xACCE)
        done = 0
        while done < 1000:
            m = rng.choice([-1, 1]) * rng.randint(1, 10 ** 4)
            n = rng.choice([-1, 1]) * rng.randint(1, 10 ** 4)
            m, n = arith.squarefree_part(m), arith.squarefree_part(n)
            if m == 0 or n == 0 or math.gcd(m, n) != 1:
                continue
            for k in (1, 2):
                assert redei.check_majorization_class(m, n, k), (m, n, k)
            done += 1
        curves = [selmer.CurveData(0, 1, -1), selmer.CurveData(0, 1, 2), selmer.CurveData(0, 2, 5)]
        done = 0
        while done < 1000:
            m = rng.randint(1, 3000)
            n = rng.randint(1, 3000)
            if math.gcd(m, n) != 1:
                continue
            curve = rng.choice(curves)
            fmn = selmer.f_r(curve, m * n)
            gmn = selmer.g_r(curve, m, n)
            for k in (1, 2):
                assert fmn ** k <= gmn ** k * 4 ** (k * arith.omega(n)), (curve, m, n, k)
            done += 1


def test_criterion_08_unlinked_extremals():
    with report(8, "unlinked extremals 2^k / 4^k and the quadratic-form identity"):
        for k in (1, 2, 3):
            size, witness = moments.max_unlinked("class", k)
            assert size == 2 ** k and len(witness) == size, k
        for k in (1, 2):
            size, witness = moments.max_unlinked("selmer", k)
            assert size == 4 ** k and len(witness) == size, k
        for k in (1, 2, 3, 4):
            assert moments.check_P_identity(k), k


def _h3_ratio(x: int, tmp_dir, m: int = 1) -> float:
    from amoments import density

    out = tmp_dir / f"h3_{x}_{m}.csv"
    code = cli.main(
        ["--out", str(out), "--threads", THREADS, "--chunk", "8000"]
        + ["density", "h3level", "--x", str(x), "--m", str(m), "--sign", "neg"]
    )
    assert code == 0
    row = next(ln for ln in out.read_text().splitlines() if ln.startswith("h3_sum,"))
    total = int(row.split(",")[2])
    return total / float(3 * x * density.delta(m) / math.pi ** 2)


def test_criterion_09_h3_level_ci_tier(tmp_path):
    with report(9, "h3 level of distribution (CI tier X = 1e5, +-40%)"):
        r4 = _h3_ratio(10 ** 4, tmp_dir=tmp_path)
        r5 = _h3_ratio(10 ** 5, tmp_dir=tmp_path)
        assert abs(r5 - 1) <= 0.40, r5
        assert abs(r5 - 1) < abs(r4 - 1), (r4, r5)


@pytest.mark.skipif(os.environ.get("AMOMENTS_FULL") != "1", reason="multi-hour full tier; set AMOMENTS_FULL=1")
def test_criterion_09_h3_level_full_tier(tmp_path):
    with report(9, "h3 level of distribution (full tier X = 1e6, +-30%, m in {1,3,5})"):
        r4 = _h3_ratio(10 ** 4, tmp_dir=tmp_path)
        r6 = _h3_ratio(10 ** 6, tmp_dir=tmp_path)
        assert abs(r6 - 1) <= 0.30, r6
        assert abs(r6 - 1) < abs(r4 - 1), (r4, r6)
        for m in (3, 5):
            rm = _h3_ratio(10 ** 6, m=m, tmp_dir=tmp_path)
            assert 0.7 <= rm <= 1.3, (m, rm)


def _parse_t12(blob: bytes) -> dict:
    vals = {}
    for ln in blob.decode().splitlines()[1:]:
        exp, _, x, _, _, _, value, normalized = ln.split(",")
        vals[(exp, int(x))] = (int(value), float(normalized))
    return vals


def test_criterion_10_torsion_sum_stability(t12_runs):
    with report(10, "h6 sums at X in {1e4, 1e5}: stable ratio, majorant dominates"):
        vals = _parse_t12(t12_runs[0])
        n4 = vals[("t12-exact", 10 ** 4)][1]
        n5 = vals[("t12-exact", 10 ** 5)][1]
        assert max(n4, n5) / min(n4, n5) < 1.5, (n4, n5)
        for x in (10 ** 4, 10 ** 5):
            assert vals[("t12-majorant", x)][0] >= vals[("t12-exact", x)][0], x


def test_criterion_11_oscillation_decay(tmp_path):
    with report(11, "normalized oscillation non-increasing on z in {10,100,1000} at X = 1e6"):
        out = tmp_path / "charsum.csv"
        code = cli.main(
            [
                "--out", str(out), "--threads", THREADS, "--chunk", "20000",
                "charsum", "--x", "1000000", "--z", "10,100,1000",
            ]
        )
        text = out.read_text()
        assert code == 0, text
        norms = [
            float(ln.split(",")[5])
            for ln in text.splitlines()[1:]
            if ln.startswith("charsum,")
        ]
        assert len(norms) == 3
        assert norms[0] >= norms[1] >= norms[2], norms


def test_criterion_12_determinism_and_resume(t12_runs):
    with report(12, "byte-identical outputs across workers {1,8} and kill-resume"):
        bytes1, bytes8, bytes_resumed = t12_runs
        assert bytes1 == bytes8
        assert bytes1 == bytes_resumed
