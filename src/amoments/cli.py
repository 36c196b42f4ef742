"""Command-line front end: experiment orchestration, deterministic parallel
range partitioning, checkpointing, and CSV emission.

Exit codes: 0 success, 1 a mathematical check failed (a finding, not a
crash), 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from multiprocessing import Pool

from . import arith, density, moments, quadforms, redei, selmer

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# value encoding for checkpoints (exact rationals as num/den strings)


def encode_value(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    if isinstance(v, (int, float, str)):
        return v
    raise TypeError(f"cannot encode {type(v)}")


def decode_value(v):
    if isinstance(v, str) and "/" in v:
        num, den = v.split("/")
        return Fraction(int(num), int(den))
    if isinstance(v, list):
        return [decode_value(x) for x in v]
    return v


class IncompleteRun(Exception):
    """Raised when --max-chunks stopped the run before all chunks finished."""


def _dispatch(job):
    name, idx, args = job
    try:
        return idx, encode_value(WORKERS[name](*args))
    except ValueError as exc:
        # input the worker rejects (a bad curve, a twist out of range) is a
        # usage error, not a failed check
        raise ValueError(f"chunk {idx} of {name!r}: {exc}") from exc
    except Exception as exc:
        raise RuntimeError(f"worker {name!r} failed on chunk {idx}: {exc!r}") from exc


def run_chunks(ctx, config_sig: str, worker_name: str, tasks: list[tuple]) -> list:
    """Evaluate worker(*task) for every task, in parallel, deterministically.

    Results are combined (returned) in task order regardless of scheduling.
    With a checkpoint path, completed chunks are replayed from disk and new
    ones appended as they finish; resuming is byte-for-byte equivalent to an
    uninterrupted run.
    """
    done: dict[int, object] = {}
    cp = ctx.checkpoint
    if cp and os.path.exists(cp):
        with open(cp) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        if not lines or lines[0] != f"config={config_sig}":
            raise ValueError("checkpoint belongs to a different configuration")
        for ln in lines[1:]:
            key, _, val = ln.partition("=")
            if key.startswith("chunk."):
                try:
                    done[int(key[6:])] = decode_value(json.loads(val))
                except (ValueError, json.JSONDecodeError):
                    continue  # torn trailing line from an interrupted write
    fh = None
    if cp:
        new_file = not os.path.exists(cp)
        fh = open(cp, "a")
        if new_file:
            fh.write(f"config={config_sig}\n")
            fh.flush()
    try:
        pending = [
            (worker_name, i, task) for i, task in enumerate(tasks) if i not in done
        ]
        if ctx.max_chunks is not None:
            pending = pending[: ctx.max_chunks]
        if pending:
            if ctx.threads > 1:
                with Pool(ctx.threads) as pool:
                    for idx, enc in pool.imap_unordered(_dispatch, pending):
                        done[idx] = decode_value(enc)
                        if fh:
                            fh.write(f"chunk.{idx}={json.dumps(enc)}\n")
                            fh.flush()
            else:
                for job in pending:
                    idx, enc = _dispatch(job)
                    done[idx] = decode_value(enc)
                    if fh:
                        fh.write(f"chunk.{idx}={json.dumps(enc)}\n")
                        fh.flush()
        if len(done) < len(tasks):
            raise IncompleteRun(f"{len(tasks) - len(done)} chunks remaining")
        return [done[i] for i in range(len(tasks))]
    finally:
        if fh:
            fh.close()


def split_ranges(lo: int, hi: int, chunk: int, boundaries=()) -> list[tuple[int, int]]:
    """Ascending subranges of [lo, hi] of at most `chunk` values, cut so that
    every requested boundary ends a subrange."""
    if chunk < 1:
        raise ValueError("chunk size must be at least 1")
    cuts = sorted({b for b in boundaries if lo <= b <= hi} | {hi})
    out = []
    start = lo
    for cut in cuts:
        while start <= cut:
            end = min(start + chunk - 1, cut)
            out.append((start, end))
            start = end + 1
    return out


# ---------------------------------------------------------------------------
# chunk workers (top level: must stay picklable)


def _w_redei_neg(lo, hi):
    mismatches = []
    genus_bad = []
    checked = 0
    for absd, om, _, counts in quadforms.neg_torsion_sweep(lo, hi, (2, 4)):
        c2, c4 = counts
        rk4_oracle = (c4 // c2).bit_length() - 1
        m = -absd if absd % 4 == 3 else -(absd // 4)
        if redei.rk4_narrow(m) != rk4_oracle:
            mismatches.append(-absd)
        if c2 != 2 ** (om - 1):
            genus_bad.append(-absd)
        checked += 1
    return [checked, mismatches, genus_bad]


def _w_redei_pos(lo, hi):
    mismatches = []
    checked = 0
    for delta, _, _, counts in quadforms.pos_narrow_sweep(lo, hi, (2, 4)):
        c2, c4 = counts
        rk4_oracle = (c4 // c2).bit_length() - 1
        m = delta if delta % 4 == 1 else delta // 4
        if redei.rk4_narrow(m) != rk4_oracle:
            mismatches.append(delta)
        checked += 1
    return [checked, mismatches]


def _w_selmer_kernel(r1, r2, r3, lo, hi):
    curve = selmer.CurveData(r1, r2, r3)
    mismatches = []
    checked = 0
    for t in range(max(lo, 1), hi + 1):
        if not arith.is_squarefree(t) or math.gcd(t, curve.omega) != 1:
            continue
        lhs = selmer.build_selmer_matrix(curve, t).matrix.kernel_size()
        rhs = len(selmer.selmer_condition_kernel(curve, t))
        if lhs != rhs:
            mismatches.append(t)
        checked += 1
    return [checked, mismatches]


def _w_descent(r1, r2, r3, lo, hi, k):
    curve = selmer.CurveData(r1, r2, r3)
    violations = []
    checked = 0
    for a in range(max(lo, 1), hi + 1):
        for d in (a, -a):
            if not arith.is_squarefree(d):
                continue
            if not selmer.check_majorization_selmer(curve, d, k):
                violations.append(d)
            checked += 1
    return [checked, violations]


def _w_t12(lo, hi, k, sign):
    exact, majorant = moments.theorem12_chunk(lo, hi, k, sign)
    return [exact, majorant]


def _w_t11(terms, nvars, lo, hi, r1, r2, r3, k):
    P = density.Poly(nvars, tuple((tuple(m), c) for m, c in terms))
    return moments.theorem11_chunk(P, lo, hi, selmer.CurveData(r1, r2, r3), k)


def _w_h3(lo, hi, m, letters, sign):
    total = 0
    fields = 0
    letters = dict(letters)
    if sign == -1:
        for absd, _, _, counts in quadforms.neg_torsion_sweep(lo, hi, (3,)):
            n = -absd if absd % 4 == 3 else -(absd // 4)
            if n % m:
                continue
            if any(arith.jacobi((n // m) % q, q) != e for q, e in letters.items()):
                continue
            total += counts[0] - 1
            fields += 1
    else:
        for delta, _, _, counts in quadforms.pos_narrow_sweep(lo, hi, (3,)):
            n = delta if delta % 4 == 1 else delta // 4
            if n % m:
                continue
            if any(arith.jacobi((n // m) % q, q) != e for q, e in letters.items()):
                continue
            total += counts[0] - 1
            fields += 1
    return [total, fields]


_CHARSUM_SIEVES: dict[int, bytearray] = {}


def _w_charsum(X, z, lo, hi, scheme):
    if X not in _CHARSUM_SIEVES:
        _CHARSUM_SIEVES.clear()
        _CHARSUM_SIEVES[X] = arith.squarefree_sieve(X)
    sf = _CHARSUM_SIEVES[X]
    spf = arith.spf_cached(X) if scheme == "tau" else None
    jac = arith.jacobi
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


def _w_classgroup(lo, hi, narrow):
    rows = []
    for absd in range(max(lo, 3), hi + 1):
        for delta in (absd, -absd):
            if not arith.is_fundamental_discriminant(delta):
                continue
            g = quadforms.class_group(delta, narrow=narrow)
            rows.append([delta, int(narrow), list(g.invariants)])
    return rows


WORKERS = {
    "redei_neg": _w_redei_neg,
    "redei_pos": _w_redei_pos,
    "selmer_kernel": _w_selmer_kernel,
    "descent": _w_descent,
    "t12": _w_t12,
    "t11": _w_t11,
    "h3": _w_h3,
    "charsum": _w_charsum,
    "classgroup": _w_classgroup,
}


# ---------------------------------------------------------------------------
# context + output


class RunContext:
    def __init__(self, args):
        if args.threads is not None:
            self.threads = args.threads
        else:
            env = os.environ.get("AMOMENTS_THREADS")
            self.threads = int(env) if env else (os.cpu_count() or 1)
        if self.threads < 1:
            raise ValueError("thread count must be positive")
        self.out = args.out
        self.checkpoint = args.checkpoint
        self.chunk = args.chunk
        self.max_chunks = args.max_chunks

    def sig(self, payload: dict) -> str:
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def emit(ctx, header: str, rows: list[str]) -> None:
    text = "\n".join([header] + rows) + "\n"
    if ctx.out:
        try:
            with open(ctx.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IOError(str(exc)) from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_verify_redei(ctx, args) -> int:
    sig = ctx.sig({"cmd": "verify-redei", "dmax": args.dmax, "sign": args.sign})
    rows = []
    status = 0
    if args.sign in ("neg", "both"):
        tasks = [t for t in split_ranges(3, args.dmax, ctx.chunk)]
        parts = run_chunks(ctx, sig + ".neg", "redei_neg", tasks)
        checked = sum(p[0] for p in parts)
        mism = [d for p in parts for d in p[1]]
        genus = [d for p in parts for d in p[2]]
        rows.append(f"redei_agreement_neg,{args.dmax},{'PASS' if not mism else 'FAIL'}")
        rows.append(f"redei_checked_neg,{args.dmax},{checked}")
        rows.append(f"redei_mismatches_neg,{args.dmax},{len(mism)}")
        rows.append(f"genus_violations,{args.dmax},{len(genus)}")
        if mism or genus:
            status = EXIT_MATH
    if args.sign in ("pos", "both"):
        dmax = args.dmax_pos if args.sign == "both" else args.dmax
        tasks = [t for t in split_ranges(3, dmax, ctx.chunk)]
        parts = run_chunks(ctx, sig + ".pos", "redei_pos", tasks)
        checked = sum(p[0] for p in parts)
        mism = [d for p in parts for d in p[1]]
        rows.append(f"redei_agreement_pos,{dmax},{'PASS' if not mism else 'FAIL'}")
        rows.append(f"redei_checked_pos,{dmax},{checked}")
        rows.append(f"redei_mismatches_pos,{dmax},{len(mism)}")
        if mism:
            status = EXIT_MATH
    emit(ctx, "quantity,parameter,value", rows)
    return status


def _parse_curve(text: str) -> tuple[int, int, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 3:
        raise ValueError("curve must be three comma-separated integers")
    return tuple(parts)


def cmd_verify_selmer(ctx, args) -> int:
    r = _parse_curve(args.curve)
    sig = ctx.sig({"cmd": "verify-selmer", "tmax": args.tmax, "curve": r, "descent": args.descent_dmax})
    rows = []
    status = 0
    tasks = [(r[0], r[1], r[2], lo, hi) for lo, hi in split_ranges(1, args.tmax, ctx.chunk)]
    parts = run_chunks(ctx, sig + ".kernel", "selmer_kernel", tasks)
    checked = sum(p[0] for p in parts)
    mism = [t for p in parts for t in p[1]]
    rows.append(f"selmer_kernel_identity,{args.tmax},{'PASS' if not mism else 'FAIL'}")
    rows.append(f"selmer_kernel_checked,{args.tmax},{checked}")
    if mism:
        status = EXIT_MATH
    if args.descent_dmax:
        tasks = [
            (r[0], r[1], r[2], lo, hi, args.k)
            for lo, hi in split_ranges(1, args.descent_dmax, ctx.chunk)
        ]
        parts = run_chunks(ctx, sig + ".descent", "descent", tasks)
        checked = sum(p[0] for p in parts)
        bad = [d for p in parts for d in p[1]]
        rows.append(
            f"descent_majorization,{args.descent_dmax},{'PASS' if not bad else 'FAIL'}"
        )
        rows.append(f"descent_checked,{args.descent_dmax},{checked}")
        if bad:
            status = EXIT_MATH
    emit(ctx, "quantity,parameter,value", rows)
    return status


def cmd_identity_first_moment(ctx, args) -> int:
    w = moments.weight_by_name(args.weight)
    lhs = moments.first_moment_lhs_profile(args.x, w)
    rhs = moments.first_moment_rhs_profile(args.x, w)
    ok = lhs == rhs
    emit(
        ctx,
        "quantity,parameter,value",
        [f"first_moment,{args.x},{'EQUAL' if ok else 'UNEQUAL'}"],
    )
    return EXIT_OK if ok else EXIT_MATH


def cmd_identity_k_moment(ctx, args) -> int:
    w = moments.weight_by_name(args.weight)
    curve = selmer.CurveData(*_parse_curve(args.curve)) if args.setting == "selmer" else None
    direct, expansion = moments.kth_moment_identity_profile(
        args.setting, args.x, args.k, w, curve
    )
    ok = direct == expansion
    emit(
        ctx,
        "quantity,parameter,value",
        [f"k_moment,{args.setting}:{args.x}:{args.k},{'EQUAL' if ok else 'UNEQUAL'}"],
    )
    return EXIT_OK if ok else EXIT_MATH


def cmd_moment(ctx, args) -> int:
    w = moments.weight_by_name(args.weight)
    if args.target == "class":
        rep = moments.weighted_moment_report(args.x, args.k, w)
    else:
        curve = selmer.CurveData(*_parse_curve(args.curve))
        total = Fraction(0)
        for m, primes in moments.odd_squarefree_with_primes(args.x, 2 * curve.omega):
            sizes = selmer.g_r_all_eps(curve, m)
            avg = Fraction(sum(sizes), len(sizes))
            total += w.of_omega(len(primes)) * avg ** args.k
        euler = 1.0
        for p in arith.small_primes():
            if p > args.x:
                break
            euler *= 1 + float(w.at_prime(p)) / p
        rep = moments.MomentReport(
            "weighted-moment",
            "selmer",
            args.x,
            args.k,
            1,
            w.name,
            total,
            float(total) / (args.x / math.log(args.x) * euler),
        )
    emit(ctx, moments.CSV_HEADER, [rep.csv_row()])
    return EXIT_OK


def cmd_unlinked(ctx, args) -> int:
    size, witness = moments.max_unlinked(args.setting, args.k)
    expected = (2 if args.setting == "class" else 4) ** args.k
    rows = [f"max_unlinked,{args.setting},{args.k},{size}"]
    rows.append(
        "unlinked_witness,"
        + args.setting
        + ","
        + str(args.k)
        + ","
        + ";".join("".join(str(b) for b in u) for u in witness)
    )
    emit(ctx, "quantity,setting,k,value", rows)
    return EXIT_OK if size == expected else EXIT_MATH


def cmd_charsum(ctx, args) -> int:
    z_list = [int(z) for z in args.z.split(",")]
    sig = ctx.sig({"cmd": "charsum", "x": args.x, "z": z_list, "scheme": args.scheme})
    rows = []
    norms = []
    for z in z_list:
        hi = args.x // max(z + 1, 1)
        tasks = [
            (args.x, z, lo, sub_hi, args.scheme)
            for lo, sub_hi in split_ranges(z + 1, max(hi, z + 1), ctx.chunk)
        ]
        parts = run_chunks(ctx, sig + f".z{z}", "charsum", tasks)
        total = sum(parts)
        norm = abs(total) * z ** (1 / 20) / (args.x * math.log(args.x) ** 3)
        norms.append((z, total, norm))
        rows.append(f"charsum,{args.scheme},{args.x},{z},{total},{norm:.15g}")
    pts = [(math.log(z), math.log(abs(s))) for z, s, _ in norms if s]
    if len(pts) >= 2:
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        den = sum((x - mx) ** 2 for x, _ in pts)
        if den:
            slope = sum((x - mx) * (y - my) for x, y in pts) / den
            rows.append(f"charsum_fitted_exponent,{args.scheme},{args.x},,,{slope:.15g}")
    emit(ctx, "quantity,scheme,X,z,sum,normalized", rows)
    vals = [n for _, _, n in norms]
    nonincreasing = all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    return EXIT_OK if nonincreasing else EXIT_MATH


def cmd_density(ctx, args) -> int:
    rows = []
    if args.mode == "delta":
        rows.append(f"delta,{args.m},{density.delta(args.m)}")
    elif args.mode == "poly":
        P = density.poly_from_string(args.poly, args.nvars)
        letters = tuple(int(x) for x in args.letters.split(",")) if args.letters else None
        val = density.poly_density(P, args.a, letters)
        rows.append(f"poly_density,{args.poly}|{args.a}|{args.letters or ''},{val}")
    elif args.mode == "lemma210":
        P = density.poly_from_string(args.poly, args.nvars)
        rep = density.check_lemma_2_10(P, args.pmax, args.box)
        for key in (
            "max_p_h",
            "max_p2_h_p2",
            "max_p2_letter_bias",
            "max_box_deviation",
            "box_deviation_normalized",
        ):
            rows.append(f"lemma210_{key},{args.poly},{rep[key]}")
    elif args.mode == "frobenian":
        P = density.poly_from_string(args.poly, args.nvars)
        rep = density.frobenian_average(P, args.pmax)
        rows.append(f"frobenian_average,{args.poly}|{args.pmax},{float(rep['average']):.15g}")
        rows.append(
            f"frobenian_rational_factors,{args.poly},{rep['rational_irreducible_factors']}"
        )
    elif args.mode == "h3level":
        letters = {}
        if args.letters:
            for item in args.letters.split(","):
                q, e = item.split(":")
                letters[int(q)] = int(e)
        sign = -1 if args.sign == "neg" else 1
        sig = ctx.sig(
            {"cmd": "h3", "x": args.x, "m": args.m, "letters": sorted(letters.items()), "sign": sign}
        )
        tasks = [
            (lo, hi, args.m, sorted(letters.items()), sign)
            for lo, hi in split_ranges(3, args.x - 1, ctx.chunk)
        ]
        parts = run_chunks(ctx, sig, "h3", tasks)
        total = sum(p[0] for p in parts)
        fields = sum(p[1] for p in parts)
        main = (3 if sign == -1 else 1) * args.x * density.delta(args.m) / (
            2 ** len(letters) * math.pi ** 2
        )
        ratio = total / main
        rows.append(f"h3_sum,{args.x},{total}")
        rows.append(f"h3_fields,{args.x},{fields}")
        rows.append(f"h3_prediction,{args.x},{float(main):.15g}")
        rows.append(f"h3_ratio,{args.x},{ratio:.15g}")
    emit(ctx, "quantity,parameter,value", rows)
    return EXIT_OK


def cmd_classgroup(ctx, args) -> int:
    rows = []
    cache: dict = {}
    if args.cache and os.path.exists(args.cache):
        cache = quadforms.cache_load(args.cache)
    if args.delta is not None:
        key = (args.delta, args.narrow)
        if key in cache:
            inv = cache[key]
        else:
            g = quadforms.class_group(args.delta, narrow=args.narrow)
            inv = g.invariants
            cache[key] = inv
        h = math.prod(inv) if inv else 1
        rows.append(
            f"classgroup,{args.delta},narrow={int(args.narrow)},invariants={';'.join(map(str, inv))},h={h}"
        )
    else:
        sig = ctx.sig({"cmd": "classgroup", "dmax": args.dmax, "narrow": args.narrow})
        tasks = [
            (lo, hi, args.narrow) for lo, hi in split_ranges(3, args.dmax, ctx.chunk)
        ]
        parts = run_chunks(ctx, sig, "classgroup", tasks)
        for part in parts:
            for delta, narrow, inv in part:
                cache[(delta, bool(narrow))] = tuple(inv)
                h = math.prod(inv) if inv else 1
                rows.append(
                    f"classgroup,{delta},narrow={narrow},invariants={';'.join(map(str, inv))},h={h}"
                )
    if args.cache:
        try:
            quadforms.cache_save(args.cache, cache)
        except OSError as exc:
            raise IOError(str(exc)) from exc
    emit(ctx, "quantity,parameter,value,extra,h", rows)
    return EXIT_OK


def cmd_experiment_t12(ctx, args) -> int:
    x_list = sorted(int(x) for x in args.x_list.split(","))
    sign = -1 if args.sign == "neg" else 1
    sig = ctx.sig({"cmd": "t12", "x": x_list, "k": args.k, "sign": sign})
    tasks = [
        (lo, hi, args.k, sign)
        for lo, hi in split_ranges(3, max(x_list), ctx.chunk, boundaries=x_list)
    ]
    parts = run_chunks(ctx, sig, "t12", tasks)
    rows = []
    exact = majorant = 0
    i = 0
    for x in x_list:
        while i < len(tasks) and tasks[i][1] <= x:
            exact += parts[i][0]
            majorant += parts[i][1]
            i += 1
        norm = x * math.log(x)
        rows.append(
            moments.MomentReport(
                "t12-exact", "class", x, args.k, sign, "one", exact, exact / norm
            ).csv_row()
        )
        rows.append(
            moments.MomentReport(
                "t12-majorant", "class", x, args.k, sign, "one", majorant, majorant / norm
            ).csv_row()
        )
    emit(ctx, moments.CSV_HEADER, rows)
    return EXIT_OK


def cmd_experiment_t11(ctx, args) -> int:
    P = density.poly_from_string(args.poly, 1)
    r = _parse_curve(args.curve)
    b_list = sorted(int(b) for b in args.b_list.split(","))
    sig = ctx.sig({"cmd": "t11", "poly": str(P.terms), "curve": r, "b": b_list, "k": args.k})
    B = max(b_list)
    tasks = [
        (list(P.terms), 1, lo, hi, r[0], r[1], r[2], args.k)
        for lo, hi in split_ranges(-B, B, ctx.chunk, boundaries=[-b - 1 for b in b_list] + [b for b in b_list])
    ]
    parts = run_chunks(ctx, sig, "t11", tasks)
    rows = []
    for b in b_list:
        total = 0
        for part, task in zip(parts, tasks):
            lo, hi = task[2], task[3]
            if lo >= -b and hi <= b:
                total += part
        rows.append(
            moments.MomentReport(
                "t11-majorant", "selmer", b, args.k, 1, "one", total, total / (2 * b + 1)
            ).csv_row()
        )
    emit(ctx, moments.CSV_HEADER, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="amoments",
        description="Exact arithmetic-statistics experiments: residue matrices, "
        "class-group oracles, descent bounds and character-sum identities.",
    )
    ap.add_argument("--threads", type=int, default=None, help="worker count (default: AMOMENTS_THREADS or all cores)")
    ap.add_argument("--out", default=None, help="write CSV here instead of stdout")
    ap.add_argument("--checkpoint", default=None, help="chunk checkpoint file (resumable)")
    ap.add_argument("--chunk", type=int, default=2000, help="range chunk size")
    ap.add_argument("--max-chunks", type=int, default=None, help="stop after this many new chunks (for resumability testing)")
    sub = ap.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="agreement sweeps against the oracles")
    vsub = ver.add_subparsers(dest="target", required=True)
    vr = vsub.add_parser("redei")
    vr.add_argument("--dmax", type=int, required=True)
    vr.add_argument("--dmax-pos", type=int, default=10 ** 4)
    vr.add_argument("--sign", choices=("neg", "pos", "both"), default="neg")
    vs = vsub.add_parser("selmer")
    vs.add_argument("--tmax", type=int, required=True)
    vs.add_argument("--curve", default="0,1,-1")
    vs.add_argument("--descent-dmax", type=int, default=0)
    vs.add_argument("--k", type=int, default=1)

    idn = sub.add_parser("identity", help="exact identity checks")
    isub = idn.add_subparsers(dest="target", required=True)
    ifm = isub.add_parser("first-moment")
    ifm.add_argument("--x", type=int, required=True)
    ifm.add_argument("--weight", default="one")
    ikm = isub.add_parser("k-moment")
    ikm.add_argument("--setting", choices=("class", "selmer"), default="class")
    ikm.add_argument("--x", type=int, required=True)
    ikm.add_argument("--k", type=int, default=1)
    ikm.add_argument("--weight", default="one")
    ikm.add_argument("--curve", default="0,1,-1")

    mom = sub.add_parser("moment", help="weighted moment reports")
    msub = mom.add_subparsers(dest="target", required=True)
    mc = msub.add_parser("class")
    mc.add_argument("--x", type=int, required=True)
    mc.add_argument("--k", type=int, default=1)
    mc.add_argument("--weight", default="one")
    ms = msub.add_parser("selmer")
    ms.add_argument("--x", type=int, required=True)
    ms.add_argument("--k", type=int, default=1)
    ms.add_argument("--weight", default="one")
    ms.add_argument("--curve", default="0,1,-1")

    un = sub.add_parser("unlinked", help="extremal unlinked sets")
    un.add_argument("--setting", choices=("class", "selmer"), required=True)
    un.add_argument("--k", type=int, required=True)

    ch = sub.add_parser("charsum", help="bilinear oscillation sums")
    ch.add_argument("--x", type=int, required=True)
    ch.add_argument("--z", required=True, help="comma-separated z grid")
    ch.add_argument("--scheme", choices=("mu2", "tau"), default="mu2")

    de = sub.add_parser("density", help="density-side reports")
    de.add_argument("mode", choices=("delta", "poly", "lemma210", "frobenian", "h3level"))
    de.add_argument("--m", type=int, default=1)
    de.add_argument("--poly", default="t")
    de.add_argument("--nvars", type=int, default=1)
    de.add_argument("--a", type=int, default=1)
    de.add_argument("--letters", default=None)
    de.add_argument("--pmax", type=int, default=100)
    de.add_argument("--box", type=int, default=100)
    de.add_argument("--x", type=int, default=10 ** 4)
    de.add_argument("--sign", choices=("neg", "pos"), default="neg")

    cg = sub.add_parser("classgroup", help="oracle class groups")
    cg.add_argument("--delta", type=int, default=None)
    cg.add_argument("--dmax", type=int, default=None)
    cg.add_argument("--narrow", action="store_true")
    cg.add_argument("--cache", default=None)

    ex = sub.add_parser("experiment", help="desk-scale torsion and fibration sums")
    esub = ex.add_subparsers(dest="target", required=True)
    e12 = esub.add_parser("t12")
    e12.add_argument("--x-list", required=True)
    e12.add_argument("--k", type=int, default=1)
    e12.add_argument("--sign", choices=("neg", "pos"), default="neg")
    e11 = esub.add_parser("t11")
    e11.add_argument("--poly", default="t")
    e11.add_argument("--curve", default="0,1,-1")
    e11.add_argument("--b-list", required=True)
    e11.add_argument("--k", type=int, default=1)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        ctx = RunContext(args)
        if args.command == "verify" and args.target == "redei":
            return cmd_verify_redei(ctx, args)
        if args.command == "verify" and args.target == "selmer":
            return cmd_verify_selmer(ctx, args)
        if args.command == "identity" and args.target == "first-moment":
            return cmd_identity_first_moment(ctx, args)
        if args.command == "identity" and args.target == "k-moment":
            return cmd_identity_k_moment(ctx, args)
        if args.command == "moment":
            return cmd_moment(ctx, args)
        if args.command == "unlinked":
            return cmd_unlinked(ctx, args)
        if args.command == "charsum":
            return cmd_charsum(ctx, args)
        if args.command == "density":
            return cmd_density(ctx, args)
        if args.command == "classgroup":
            return cmd_classgroup(ctx, args)
        if args.command == "experiment" and args.target == "t12":
            return cmd_experiment_t12(ctx, args)
        if args.command == "experiment" and args.target == "t11":
            return cmd_experiment_t11(ctx, args)
        raise ValueError(f"unhandled command {args.command}")
    except IncompleteRun as exc:
        sys.stderr.write(f"stopped early: {exc}; checkpoint holds partial results\n")
        return EXIT_OK
    except IOError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except (ValueError, OverflowError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
