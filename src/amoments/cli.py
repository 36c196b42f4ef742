"""Command-line front end: experiment orchestration, deterministic parallel
range partitioning, checkpointing, and CSV emission.

Exit codes: 0 success, 1 a mathematical check failed (a finding, not a
crash), 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import os
import sys
from multiprocessing import Pool

from . import arith, density, moments, quadforms, redei, selmer
from .arith import split_ranges

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_IO = 3


class IncompleteRun(Exception):
    """Raised when --max-chunks stopped the run before all chunks finished."""


def _dispatch(job):
    name, idx, args = job
    module, attr = WORKERS[name]
    # looked up at call time, so a rebound module attribute (a tracer's
    # wrapper) is the one that runs
    fn = getattr(module, attr)
    try:
        # the JSON text is the checkpoint line's value, so a fresh chunk and a
        # replayed one are both read back by json.loads
        return idx, json.dumps(fn(*args))
    except ValueError as exc:
        # input the worker rejects (a bad curve, a twist out of range) is a
        # usage error, not a failed check
        raise ValueError(f"chunk {idx} of {name!r}: {exc}") from exc
    except Exception as exc:
        raise RuntimeError(f"worker {name!r} failed on chunk {idx}: {exc!r}") from exc


def _read_checkpoint(path: str) -> tuple[list[tuple[str, dict]], bool]:
    """The (signature, finished chunks) sections of a checkpoint in file
    order, and whether its last line was cut off by an interrupted write."""
    with open(path) as fh:
        text = fh.read()
    sections: list[tuple[str, dict]] = []
    for ln in text.splitlines():
        key, _, val = ln.partition("=")
        if key == "config":
            sections.append((val, {}))
        elif key.startswith("chunk.") and sections:
            try:
                sections[-1][1][int(key[6:])] = json.loads(val)
            except ValueError:
                continue  # torn trailing line from an interrupted write
        elif ln.strip():
            raise ValueError("checkpoint file is not a chunk checkpoint")
    return sections, bool(text) and not text.endswith("\n")


def run_chunks(ctx, phase: str, worker_name: str, tasks: list[tuple]) -> list:
    """Evaluate worker(*task) for every task, in parallel, deterministically.

    Results are combined (returned) in task order regardless of scheduling.
    With a checkpoint path, the n-th call of a run owns the n-th section of
    the file, headed by `config=` and a hash of (worker, phase, tasks):
    completed chunks are replayed from it and new ones appended as they
    finish, so resuming is byte-for-byte equivalent to an uninterrupted run.
    A section with another hash came from other parameters or another
    partition, and the run stops with a ValueError.
    """
    sig = hashlib.sha256(repr((worker_name, phase, tasks)).encode()).hexdigest()
    done: dict[int, object] = {}
    fh = None
    if ctx.checkpoint:
        sections, torn = (
            _read_checkpoint(ctx.checkpoint) if os.path.exists(ctx.checkpoint) else ([], False)
        )
        n = ctx.sections
        ctx.sections += 1
        if n < len(sections):
            if sections[n][0] != sig:
                raise ValueError("checkpoint belongs to a different configuration")
            done = sections[n][1]
            if n < len(sections) - 1 and len(done) < len(tasks):
                # new chunk lines would land in a later section
                raise ValueError("checkpoint has an unfinished section before the last")
        fh = open(ctx.checkpoint, "a")
        if torn:
            fh.write("\n")
        if n >= len(sections):
            fh.write(f"config={sig}\n")
        fh.flush()
    try:
        pending = [
            (worker_name, i, task) for i, task in enumerate(tasks) if i not in done
        ]
        if ctx.max_chunks is not None:
            pending = pending[: ctx.max_chunks]
            ctx.max_chunks -= len(pending)

        def record(results):
            for idx, text in results:
                done[idx] = json.loads(text)
                if fh:
                    fh.write(f"chunk.{idx}={text}\n")
                    fh.flush()

        if ctx.threads > 1 and pending:
            with Pool(min(ctx.threads, len(pending), os.cpu_count() or 1)) as pool:
                record(pool.imap_unordered(_dispatch, pending))
        else:
            record(map(_dispatch, pending))
        if len(done) < len(tasks):
            raise IncompleteRun(f"{len(tasks) - len(done)} chunks remaining")
        return [done[i] for i in range(len(tasks))]
    finally:
        if fh:
            fh.close()


# ---------------------------------------------------------------------------
# chunk workers (top level: must stay picklable)


def _w_redei(lo, hi, sign):
    """[checked, Redei 4-rank mismatches, genus-theory violations] against
    the narrow counts of the oracle sweep."""
    mismatches = []
    genus_bad = []
    rows = quadforms.torsion_sweep(lo, hi, (2, 4), sign)
    for absd, om, _, (c2, c4), _ in rows:
        delta = sign * absd
        m = delta if delta % 4 == 1 else delta // 4
        if redei.rk4_narrow(m) != (c4 // c2).bit_length() - 1:
            mismatches.append(delta)
        if c2 != 2 ** (om - 1):
            genus_bad.append(delta)
    return [len(rows), mismatches, genus_bad]


def _w_selmer_kernel(r1, r2, r3, lo, hi):
    curve = selmer.CurveData(r1, r2, r3)
    mismatches = []
    checked = 0
    for t in range(max(lo, 1), hi + 1):
        if math.gcd(t, curve.omega) != 1 or (fac := arith.factor(t)).mobius == 0:
            continue
        # selmer_condition_kernel factors t itself: an independent count
        lhs = selmer._kernel_size(curve, tuple(p for p, _ in fac.factors))
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


def _w_classgroup(lo, hi, narrow):
    rows = []
    for delta, _ in heapq.merge(
        arith.fundamental_discriminants(lo, hi, 1),
        arith.fundamental_discriminants(lo, hi, -1),
        key=lambda pair: (abs(pair[0]), -pair[0]),  # by |delta|, delta > 0 first
    ):
        g = quadforms._class_group(delta, narrow)
        rows.append([delta, int(narrow), list(g.invariants)])
    return rows


_CLI = sys.modules[__name__]  # this module, also when run as __main__

# chunk functions by name, as (module, function name)
WORKERS = {
    "redei": (_CLI, "_w_redei"),
    "selmer_kernel": (_CLI, "_w_selmer_kernel"),
    "descent": (_CLI, "_w_descent"),
    "t12": (moments, "theorem12_chunk"),
    "t11": (moments, "theorem11_chunk"),
    "h3": (density, "h3_level_chunk"),
    "charsum": (moments, "oscillation_chunk"),
    "classgroup": (_CLI, "_w_classgroup"),
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
        if self.max_chunks is not None and self.max_chunks < 0:
            raise ValueError("--max-chunks must not be negative")
        self.sections = 0  # checkpoint sections claimed by run_chunks so far


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


def _disc_ranges(ctx, dmax: int) -> list[tuple[int, int]]:
    """The |disc| chunks [3, dmax] of a class-group sweep, after checking
    dmax against the oracle's bound."""
    if dmax > quadforms.DISC_BOUND:
        raise ValueError(f"oracle supports |disc| <= {quadforms.DISC_BOUND}")
    return split_ranges(3, dmax, ctx.chunk)


def cmd_verify_redei(ctx, args) -> int:
    phases = {
        "neg": [("neg", -1, args.dmax)],
        "pos": [("pos", 1, args.dmax)],
        "both": [("neg", -1, args.dmax), ("pos", 1, args.dmax_pos)],
    }[args.sign]
    # every bound is checked before the first phase sweeps
    tasks = [[(lo, hi, sign) for lo, hi in _disc_ranges(ctx, dmax)] for _, sign, dmax in phases]
    rows = []
    status = 0
    for (name, sign, dmax), phase_tasks in zip(phases, tasks):
        parts = run_chunks(ctx, name, "redei", phase_tasks)
        checked = sum(p[0] for p in parts)
        mism = [d for p in parts for d in p[1]]
        genus = [d for p in parts for d in p[2]]
        rows.append(f"redei_agreement_{name},{dmax},{'PASS' if not mism else 'FAIL'}")
        rows.append(f"redei_checked_{name},{dmax},{checked}")
        rows.append(f"redei_mismatches_{name},{dmax},{len(mism)}")
        # a passing real phase keeps its three-row output; a genus
        # violation there still gets a row
        if sign < 0 or genus:
            rows.append(f"genus_violations{'' if sign < 0 else '_pos'},{dmax},{len(genus)}")
        if mism or genus:
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
    rows = []
    status = 0
    tasks = [(r[0], r[1], r[2], lo, hi) for lo, hi in split_ranges(1, args.tmax, ctx.chunk)]
    parts = run_chunks(ctx, "kernel", "selmer_kernel", tasks)
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
        parts = run_chunks(ctx, "descent", "descent", tasks)
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
    curve = selmer.CurveData(*_parse_curve(args.curve)) if args.target == "selmer" else None
    rep = moments.weighted_moment_report(args.x, args.k, w, curve)
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
    tasks = moments.oscillation_tasks(args.x, z_list, args.scheme, ctx.chunk)
    parts = run_chunks(ctx, "charsum", "charsum", tasks)
    sums = moments.oscillation_reduce(args.x, z_list, args.scheme, tasks, parts)
    rows = [
        f"charsum,{args.scheme},{args.x},{r['z']},{r['sum']},{r['normalized']:.15g}"
        for r in sums
    ]
    slope = sums[0]["fitted_exponent"]
    if slope is not None:
        rows.append(f"charsum_fitted_exponent,{args.scheme},{args.x},,,{slope:.15g}")
    emit(ctx, "quantity,scheme,X,z,sum,normalized", rows)
    vals = [r["normalized"] for r in sums]
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
        tasks = density.h3_level_tasks(args.x, args.m, letters, sign, ctx.chunk)
        parts = run_chunks(ctx, "h3level", "h3", tasks)
        rep = density.h3_level_reduce(args.x, args.m, letters, sign, parts)
        rows.append(f"h3_sum,{args.x},{rep['sum_h3_minus_1']}")
        rows.append(f"h3_fields,{args.x},{rep['fields']}")
        rows.append(f"h3_prediction,{args.x},{float(rep['prediction']):.15g}")
        rows.append(f"h3_ratio,{args.x},{rep['ratio']:.15g}")
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
        tasks = [(lo, hi, args.narrow) for lo, hi in _disc_ranges(ctx, args.dmax)]
        parts = run_chunks(ctx, "classgroup", "classgroup", tasks)
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
    x_list = [int(x) for x in args.x_list.split(",")]
    sign = -1 if args.sign == "neg" else 1
    tasks = moments.theorem12_tasks(x_list, args.k, sign, ctx.chunk)
    parts = run_chunks(ctx, "t12", "t12", tasks)
    reports = moments.theorem12_reduce(x_list, args.k, sign, tasks, parts)
    emit(ctx, moments.CSV_HEADER, [r.csv_row() for r in reports])
    return EXIT_OK


def cmd_experiment_t11(ctx, args) -> int:
    P = density.poly_from_string(args.poly, 1)
    curve = selmer.CurveData(*_parse_curve(args.curve))
    b_list = [int(b) for b in args.b_list.split(",")]
    tasks = moments.theorem11_tasks(P, curve, b_list, args.k, ctx.chunk)
    parts = run_chunks(ctx, "t11", "t11", tasks)
    reports = moments.theorem11_reduce(b_list, args.k, tasks, parts)
    emit(ctx, moments.CSV_HEADER, [r.csv_row() for r in reports])
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
    vr.set_defaults(func=cmd_verify_redei)
    vs = vsub.add_parser("selmer")
    vs.add_argument("--tmax", type=int, required=True)
    vs.add_argument("--curve", default="0,1,-1")
    vs.add_argument("--descent-dmax", type=int, default=0)
    vs.add_argument("--k", type=int, default=1)
    vs.set_defaults(func=cmd_verify_selmer)

    idn = sub.add_parser("identity", help="exact identity checks")
    isub = idn.add_subparsers(dest="target", required=True)
    ifm = isub.add_parser("first-moment")
    ifm.add_argument("--x", type=int, required=True)
    ifm.add_argument("--weight", default="one")
    ifm.set_defaults(func=cmd_identity_first_moment)
    ikm = isub.add_parser("k-moment")
    ikm.add_argument("--setting", choices=("class", "selmer"), default="class")
    ikm.add_argument("--x", type=int, required=True)
    ikm.add_argument("--k", type=int, default=1)
    ikm.add_argument("--weight", default="one")
    ikm.add_argument("--curve", default="0,1,-1")
    ikm.set_defaults(func=cmd_identity_k_moment)

    mom = sub.add_parser("moment", help="weighted moment reports")
    mom.set_defaults(func=cmd_moment)
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
    un.set_defaults(func=cmd_unlinked)

    ch = sub.add_parser("charsum", help="bilinear oscillation sums")
    ch.add_argument("--x", type=int, required=True)
    ch.add_argument("--z", required=True, help="comma-separated z grid")
    ch.add_argument("--scheme", choices=("mu2", "tau"), default="mu2")
    ch.set_defaults(func=cmd_charsum)

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
    de.set_defaults(func=cmd_density)

    cg = sub.add_parser("classgroup", help="oracle class groups")
    what = cg.add_mutually_exclusive_group(required=True)
    what.add_argument("--delta", type=int, help="one discriminant")
    what.add_argument("--dmax", type=int, help="every fundamental discriminant with |delta| <= DMAX")
    cg.add_argument("--narrow", action="store_true")
    cg.add_argument("--cache", default=None)
    cg.set_defaults(func=cmd_classgroup)

    ex = sub.add_parser("experiment", help="desk-scale torsion and fibration sums")
    esub = ex.add_subparsers(dest="target", required=True)
    e12 = esub.add_parser("t12")
    e12.add_argument("--x-list", required=True)
    e12.add_argument("--k", type=int, default=1)
    e12.add_argument("--sign", choices=("neg", "pos"), default="neg")
    e12.set_defaults(func=cmd_experiment_t12)
    e11 = esub.add_parser("t11")
    e11.add_argument("--poly", default="t")
    e11.add_argument("--curve", default="0,1,-1")
    e11.add_argument("--b-list", required=True)
    e11.add_argument("--k", type=int, default=1)
    e11.set_defaults(func=cmd_experiment_t11)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        ctx = RunContext(args)
        return args.func(ctx, args)
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
