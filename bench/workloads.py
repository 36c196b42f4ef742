"""The four benchmark workloads: seeded CLI command sequences and their checks.

A workload seed draws only the CLI parameters (bounds, curve, weight, z grid,
interruption point), each from a band narrow enough that the work stays about
the same.  The program receives only the generated command lines, never the
seed.

Every plan is a list of steps; a step is the argument list of one
`amoments` invocation without `--threads`, which the runner prepends.  Each
step writes its CSV with `--out <file>` relative to the step's working
directory.  `Plan.check(outputs, reference)` returns (name, ok) pairs for the
verdict rows and for the item counts, which are computed here from the inputs
alone with an independent sieve, not by the program.

Known defects of the measured commit that the workloads route around:
- `--checkpoint` on a multi-phase command (`verify redei --sign both`,
  `verify selmer --descent-dmax`, `charsum` with two or more z) always exits 2
  ("checkpoint belongs to a different configuration"), because the second
  phase reopens the file whose header names the first phase.  So
  checkpoint-resume uses the single-phase `classgroup --dmax` sweep.
- Resuming with a different `--chunk` silently reuses chunk indices from the
  old partition, so checkpoint-resume resumes with the same `--chunk`.
- A `charsum` z with z >= sqrt(X) gives an empty phase (sum 0), so the z grid
  is drawn strictly below sqrt(X).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

# acceptance curves of `verify selmer`, each with the (tmax, descent dmax) that
# gives it about the same CPU time and the same number of twists checked
CURVES = {"0,1,-1": (300, 120), "0,1,2": (300, 120), "0,2,5": (680, 80)}
WEIGHTS = ("one", "2^omega", "tau")


@dataclass
class Plan:
    """One workload instance: the steps to run and how to check them."""

    name: str
    seed: int
    params: dict
    steps: list[dict]
    items: int
    item_unit: str
    checker: Callable[[dict, dict, dict], list[tuple[str, bool]]]
    # steps run once, untimed, to produce a reference output
    reference: list[dict] = field(default_factory=list)

    def check(self, outputs: dict[str, str | None], reference: dict[str, str | None]) -> list[tuple[str, bool]]:
        return self.checker(self.params, outputs, reference)


def _cmd(out: str, *argv: str, pre: tuple[str, ...] = ()) -> dict:
    """A step: global flags `pre`, then `--out out`, then the subcommand."""
    return {"argv": [*pre, "--out", out, *argv], "out": out}


def _jitter(rng: random.Random, base: int, frac: float = 0.01) -> int:
    return base + rng.randint(-int(base * frac), int(base * frac))


# ---------------------------------------------------------------------------
# independent counts (sieves written here, not taken from the program)


def _squarefree(limit: int) -> bytearray:
    t = bytearray([1]) * (limit + 1)
    t[0] = 0
    for q in range(2, math.isqrt(limit) + 1):
        t[q * q :: q * q] = bytes(len(range(q * q, limit + 1, q * q)))
    return t


def _fundamental(n_abs: int, sign: int, sf: bytearray) -> bool:
    """Is sign * n_abs a fundamental discriminant?"""
    d = sign * n_abs
    if d % 4 == 1:
        return bool(sf[n_abs])
    if n_abs % 4:
        return False
    m = d // 4
    return m % 4 in (2, 3) and bool(sf[abs(m)])


def count_fundamental(lo: int, hi: int, sign: int) -> int:
    """Fundamental discriminants d of the given sign with lo <= |d| <= hi."""
    sf = _squarefree(hi)
    return sum(_fundamental(n, sign, sf) for n in range(max(lo, 3), hi + 1))


def fundamental_list(hi: int, sign: int) -> list[int]:
    sf = _squarefree(hi)
    return [sign * n for n in range(3, hi + 1) if _fundamental(n, sign, sf)]


def curve_omega(curve: str) -> int:
    r1, r2, r3 = (int(x) for x in curve.split(","))
    return 2 * (r1 - r2) * (r1 - r3) * (r2 - r3)


def count_odd_squarefree(X: int, coprime_to: int = 1) -> int:
    sf = _squarefree(X)
    return sum(1 for m in range(1, X + 1, 2) if sf[m] and math.gcd(m, coprime_to) == 1)


def count_charsum_pairs(X: int, z: int) -> int:
    """Square-free odd pairs (m1, m2) with m1, m2 > z and m1 * m2 <= X that
    the character-sum double loop visits."""
    sf = _squarefree(X)
    odd_sf = [0] * (X + 1)
    for m in range(z + 1, X + 1):
        odd_sf[m] = sf[m] & m & 1
    below = list(accumulate(odd_sf))
    pairs = 0
    for m1 in range(z + 1, X // (z + 1) + 1):
        if odd_sf[m1]:
            pairs += below[X // m1]
    return pairs


# ---------------------------------------------------------------------------
# CSV helpers


def _rows(text: str | None) -> list[list[str]]:
    if not text:
        return []
    return [ln.split(",") for ln in text.splitlines()[1:]]


def _value(text: str | None, quantity: str, parameter: str) -> str | None:
    for row in _rows(text):
        if row[:2] == [quantity, parameter]:
            return row[2]
    return None


def _moment_row(text: str | None) -> list[str]:
    rows = _rows(text)
    return rows[0] if len(rows) == 1 else []


# ---------------------------------------------------------------------------
# classgroup-sweep: verify redei --sign both, then experiment t12 --sign neg


def classgroup_sweep(seed: int) -> Plan:
    rng = random.Random(seed)
    dmax = _jitter(rng, 8000)
    dmax_pos = _jitter(rng, 1500)
    x_hi = _jitter(rng, 8000)
    x_lo = rng.randint(x_hi // 4, x_hi // 2)
    p = {
        "dmax": dmax, "dmax_pos": dmax_pos, "x_list": [x_lo, x_hi],
        "checked_neg": count_fundamental(3, dmax, -1), "checked_pos": count_fundamental(3, dmax_pos, 1),
    }
    steps = [
        _cmd("redei.csv", "verify", "redei", "--dmax", str(dmax), "--sign", "both", "--dmax-pos", str(dmax_pos)),
        _cmd("t12.csv", "experiment", "t12", "--x-list", f"{x_lo},{x_hi}", "--sign", "neg"),
    ]
    items = p["checked_neg"] + p["checked_pos"] + count_fundamental(3, x_hi, -1)
    return Plan("classgroup-sweep", seed, p, steps, items, "fundamental discriminants checked",
                _check_classgroup_sweep)


def _check_classgroup_sweep(p, out, ref):
    redei, t12 = out.get("redei.csv"), out.get("t12.csv")
    d, dp = str(p["dmax"]), str(p["dmax_pos"])
    checks = [
        ("redei_agreement_neg", _value(redei, "redei_agreement_neg", d) == "PASS"),
        ("redei_agreement_pos", _value(redei, "redei_agreement_pos", dp) == "PASS"),
        ("genus_violations", _value(redei, "genus_violations", d) == "0"),
        ("redei_checked_neg", _value(redei, "redei_checked_neg", d) == str(p["checked_neg"])),
        ("redei_checked_pos", _value(redei, "redei_checked_pos", dp) == str(p["checked_pos"])),
    ]
    rows = _rows(t12)
    ok = len(rows) == 4
    for x in p["x_list"]:
        exact = [r for r in rows if r[0] == "t12-exact" and r[2] == str(x)]
        major = [r for r in rows if r[0] == "t12-majorant" and r[2] == str(x)]
        ok = ok and len(exact) == len(major) == 1 and int(exact[0][6]) <= int(major[0][6])
    checks.append(("t12_exact_below_majorant", ok))
    return checks


# ---------------------------------------------------------------------------
# selmer-descent: verify selmer --tmax T --descent-dmax D on one curve


def selmer_descent(seed: int) -> Plan:
    rng = random.Random(seed)
    curve = rng.choice(sorted(CURVES))
    tmax_base, dmax_base = CURVES[curve]
    tmax, dmax = _jitter(rng, tmax_base), _jitter(rng, dmax_base)
    omega = curve_omega(curve)
    sf = _squarefree(max(tmax, dmax))
    kernel = sum(1 for t in range(1, tmax + 1) if sf[t] and math.gcd(t, omega) == 1)
    descent = 2 * sum(sf[a] for a in range(1, dmax + 1))
    p = {"curve": curve, "tmax": tmax, "dmax": dmax, "kernel_checked": kernel, "descent_checked": descent}
    steps = [
        _cmd("selmer.csv", "verify", "selmer", "--tmax", str(tmax), "--curve", curve, "--descent-dmax", str(dmax)),
    ]
    return Plan("selmer-descent", seed, p, steps, kernel + descent, "twists checked", _check_selmer_descent)


def _check_selmer_descent(p, out, ref):
    text = out.get("selmer.csv")
    t, d = str(p["tmax"]), str(p["dmax"])
    return [
        ("selmer_kernel_identity", _value(text, "selmer_kernel_identity", t) == "PASS"),
        ("descent_majorization", _value(text, "descent_majorization", d) == "PASS"),
        ("selmer_kernel_checked", _value(text, "selmer_kernel_checked", t) == str(p["kernel_checked"])),
        ("descent_checked", _value(text, "descent_checked", d) == str(p["descent_checked"])),
    ]


# ---------------------------------------------------------------------------
# moment-lab: moment class/selmer, k-moment identity in both settings, charsum


def moment_lab(seed: int) -> Plan:
    rng = random.Random(seed)
    weight = rng.choice(WEIGHTS)
    curve = rng.choice(sorted(CURVES))
    x_class = _jitter(rng, 5000)
    x_selmer = _jitter(rng, 400)
    x_id_class = rng.randint(58, 62)
    x_id_selmer = rng.randint(28, 32)
    x_cs = _jitter(rng, 250000)
    # z = 8, 9, 10 leave the same square-free odd m > z, so the same work
    z1 = rng.randint(8, 10)
    z2 = rng.randint(66, 74)
    if z2 * z2 >= x_cs:
        raise ValueError("charsum z must stay below sqrt(X)")
    p = {
        "weight": weight, "curve": curve, "x_class": x_class, "x_selmer": x_selmer,
        "x_id_class": x_id_class, "x_id_selmer": x_id_selmer, "x_charsum": x_cs, "z": [z1, z2],
    }
    steps = [
        _cmd("moment_class.csv", "moment", "class", "--x", str(x_class), "--k", "2", "--weight", weight),
        _cmd("moment_selmer.csv", "moment", "selmer", "--x", str(x_selmer), "--curve", curve),
        _cmd("kmoment_class.csv", "identity", "k-moment", "--setting", "class", "--x", str(x_id_class), "--k", "2"),
        _cmd("kmoment_selmer.csv", "identity", "k-moment", "--setting", "selmer", "--x", str(x_id_selmer),
             "--curve", curve),
        _cmd("charsum.csv", "charsum", "--x", str(x_cs), "--z", f"{z1},{z2}"),
    ]
    cop = 2 * curve_omega(curve)
    items = (
        count_odd_squarefree(x_class)
        + count_odd_squarefree(x_selmer, cop)
        + 2 * count_odd_squarefree(x_id_class)
        + 2 * count_odd_squarefree(x_id_selmer, cop)
        + count_charsum_pairs(x_cs, z1)
        + count_charsum_pairs(x_cs, z2)
    )
    return Plan("moment-lab", seed, p, steps, items, "square-free m (and charsum pairs) visited",
                _check_moment_lab)


_WEIGHT_LABELS = {"one": "one", "2^omega": "two-omega", "tau": "tau"}


def _check_moment_lab(p, out, ref):
    mc = _moment_row(out.get("moment_class.csv"))
    ms = _moment_row(out.get("moment_selmer.csv"))
    charsum = _rows(out.get("charsum.csv"))
    checks = [
        ("moment_class_row", mc[:6] == ["weighted-moment", "class", str(p["x_class"]), "2", "+",
                                        _WEIGHT_LABELS[p["weight"]]]),
        ("moment_selmer_row", ms[:6] == ["weighted-moment", "selmer", str(p["x_selmer"]), "1", "+", "one"]),
        ("k_moment_class", _value(out.get("kmoment_class.csv"), "k_moment", f"class:{p['x_id_class']}:2") == "EQUAL"),
        ("k_moment_selmer",
         _value(out.get("kmoment_selmer.csv"), "k_moment", f"selmer:{p['x_id_selmer']}:1") == "EQUAL"),
    ]
    sums = [r for r in charsum if r[0] == "charsum"]
    checks.append((
        "charsum_rows",
        [r[3] for r in sums] == [str(z) for z in p["z"]] and all(int(r[4]) != 0 for r in sums),
    ))
    return checks


# ---------------------------------------------------------------------------
# checkpoint-resume: interrupted classgroup sweep, resume, cached lookup


def checkpoint_resume(seed: int) -> Plan:
    rng = random.Random(seed)
    dmax = _jitter(rng, 3000)
    chunk = 100
    n_chunks = len(range(3, dmax + 1, chunk))
    stop = rng.randint(n_chunks // 4, 3 * n_chunks // 4)
    discs = fundamental_list(dmax, -1) + fundamental_list(dmax, 1)
    delta = rng.choice(sorted(discs))
    p = {"dmax": dmax, "chunk": chunk, "max_chunks": stop, "n_chunks": n_chunks, "delta": delta,
         "rows": len(discs)}
    flags = ("--chunk", str(chunk), "--checkpoint", "sweep.ckpt")
    steps = [
        _cmd("partial.csv", "classgroup", "--dmax", str(dmax), "--cache", "cls.tsv",
             pre=flags + ("--max-chunks", str(stop))),
        _cmd("resumed.csv", "classgroup", "--dmax", str(dmax), "--cache", "cls.tsv", pre=flags),
        _cmd("lookup.csv", "classgroup", "--delta", str(delta), "--cache", "cls.tsv"),
    ]
    reference = [_cmd("full.csv", "classgroup", "--dmax", str(dmax))]
    return Plan("checkpoint-resume", seed, p, steps, len(discs) + 1, "class groups computed or looked up",
                _check_checkpoint_resume, reference)


def _check_checkpoint_resume(p, out, ref):
    full = ref.get("full.csv")
    resumed = out.get("resumed.csv")
    want = [ln for ln in (full or "").splitlines() if ln.startswith(f"classgroup,{p['delta']},")]
    got = (out.get("lookup.csv") or "").splitlines()[1:]
    return [
        ("partial_run_wrote_no_csv", out.get("partial.csv") is None),
        ("reference_rows", len(_rows(full)) == p["rows"]),
        ("resumed_matches_uninterrupted", resumed is not None and resumed == full),
        ("cached_lookup_matches_uncached", len(want) == 1 and got == want),
    ]


PLANS = {
    "classgroup-sweep": classgroup_sweep,
    "selmer-descent": selmer_descent,
    "moment-lab": moment_lab,
    "checkpoint-resume": checkpoint_resume,
}
NAMES = tuple(PLANS)


def make(name: str, seed: int) -> Plan:
    return PLANS[name](seed)
