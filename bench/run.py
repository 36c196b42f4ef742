"""amoments benchmark: seeded CLI workloads, end-to-end metrics and a traced run.

Run from the root of a source checkout:

    python3 bench/run.py --workload classgroup-sweep --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload's command sequence as `amoments` subprocesses at
`--threads $(nproc)`, repeatedly for --seconds, and reports the end-to-end
metrics (medians over the repeats).  --trace 1 runs the same sequence in
fresh interpreters with one worker, untraced and under the span recorder of
spans.py in turn for --seconds, and reports the per-layer metrics (times are
medians; calls and work counts must repeat exactly).  Both modes check
every output; any miss makes the run exit 1.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads and their checks are defined in workloads.py; the metric names,
units and bounds are listed in BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # every run must end well inside the 180 s a run may take
SETUP_REPEATS = 9
MIN_REPEATS = 3

# per-layer metric names: "<module>.<function>.calls|self_s" read from the span
# table; the rest are work counts or derived ratios computed in layer_metrics
PER_LAYER = [
    ("cli.run_chunks.calls", "count"), ("cli.run_chunks.self_s", "s"),
    ("cli.chunks", "count"), ("cli.chunks_replayed", "count"), ("cli.replay_ratio", "ratio"),
    ("cli.checkpoint_bytes", "bytes"), ("cli.csv_bytes", "bytes"),
    ("quadforms.neg_torsion_sweep.calls", "count"), ("quadforms.neg_torsion_sweep.self_s", "s"),
    ("quadforms.neg_torsion_sweep.discs", "count"), ("quadforms.neg_torsion_sweep.forms", "count"),
    ("quadforms.pos_narrow_sweep.calls", "count"), ("quadforms.pos_narrow_sweep.self_s", "s"),
    ("quadforms.pos_narrow_sweep.discs", "count"), ("quadforms.pos_narrow_sweep.forms", "count"),
    ("quadforms.class_group.calls", "count"), ("quadforms.class_group.self_s", "s"),
    ("quadforms.cache_save.calls", "count"), ("quadforms.cache_save.self_s", "s"),
    ("quadforms.cache_load.calls", "count"), ("quadforms.cache_load.self_s", "s"),
    ("redei.rk4_narrow.calls", "count"), ("redei.rk4_narrow.self_s", "s"),
    ("redei.all_kernel_sizes.calls", "count"), ("redei.all_kernel_sizes.self_s", "s"),
    ("redei.all_kernel_sizes.twists", "count"),
    ("selmer.descent_selmer_oracle.calls", "count"), ("selmer.descent_selmer_oracle.self_s", "s"),
    ("selmer.torsor_solvable_qp.calls", "count"), ("selmer.torsor_solvable_qp.self_s", "s"),
    ("selmer.f_r.calls", "count"), ("selmer.f_r.self_s", "s"),
    ("selmer.build_selmer_matrix.calls", "count"), ("selmer.build_selmer_matrix.self_s", "s"),
    ("selmer.selmer_condition_kernel.calls", "count"), ("selmer.selmer_condition_kernel.self_s", "s"),
    ("selmer.g_r_all_eps.calls", "count"), ("selmer.g_r_all_eps.self_s", "s"),
    ("selmer.g_r_all_eps.twists", "count"),
    ("gf2.Gf2Matrix.rank.calls", "count"), ("gf2.Gf2Matrix.rank.self_s", "s"),
    ("gf2.Gf2Matrix.kernel_basis.calls", "count"), ("gf2.Gf2Matrix.kernel_basis.self_s", "s"),
    ("arith.factor.calls", "count"), ("arith.factor.self_s", "s"),
    ("arith.is_prime.calls", "count"), ("arith.is_prime.self_s", "s"),
    ("arith.is_prime_per_factor", "ratio"),
    ("arith.jacobi.calls", "count"), ("arith.jacobi.self_s", "s"),
    ("arith.hilbert_symbol.calls", "count"), ("arith.hilbert_symbol.self_s", "s"),
    ("arith.spf_cached.calls", "count"), ("arith.spf_cached.self_s", "s"),
    ("arith.squarefree_sieve.calls", "count"), ("arith.squarefree_sieve.self_s", "s"),
    ("moments.weighted_moment_report.calls", "count"), ("moments.weighted_moment_report.self_s", "s"),
    ("moments.kth_moment_identity_profile.calls", "count"),
    ("moments.kth_moment_identity_profile.self_s", "s"),
    ("moments.theorem12_chunk.calls", "count"), ("moments.theorem12_chunk.self_s", "s"),
    ("moments.odd_squarefree_with_primes.calls", "count"),
    ("moments.odd_squarefree_with_primes.self_s", "s"),
    ("trace.serial_wall_s", "s"), ("trace.traced_wall_s", "s"), ("trace.overhead_ratio", "ratio"),
]
END_TO_END = [
    ("wall_s", "s"), ("items_per_s", "items/s"), ("cpu_s", "s"),
    ("worker_util", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
]


class Deadline(Exception):
    pass


class Runner:
    """Starts program processes inside the checkout and waits for each."""

    def __init__(self, work: Path, deadline: float):
        self.deadline = deadline
        # fixed string hashing keeps set orders, and so traced call counts, repeatable
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work), PYTHONHASHSEED="0")

    def run(self, argv: list[str], cwd: Path) -> dict:
        """Run one process to completion; wall seconds, CPU seconds and peak
        RSS of its whole process tree (the pool workers are its children)."""
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise Deadline("time budget exhausted")
        with open(cwd / "stderr.txt", "ab") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing may outlive its command
        if proc.returncode < 0:
            raise Deadline(f"{argv[1:]} ended by signal {-proc.returncode}")
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "code": proc.returncode,
        }

    def cli(self, step_argv: list[str], cwd: Path, threads: int) -> dict:
        return self.run([sys.executable, "-m", "amoments.cli", "--threads", str(threads), *step_argv], cwd)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def read_outputs(steps: list[dict], cwd: Path) -> dict[str, str | None]:
    out = {}
    for step in steps:
        path = cwd / step["out"]
        out[step["out"]] = path.read_text() if path.exists() else None
    return out


def run_sequence(runner: Runner, steps: list[dict], cwd: Path, threads: int) -> dict:
    cwd.mkdir(parents=True)
    t0 = perf_counter()
    procs = [runner.cli(step["argv"], cwd, threads) for step in steps]
    wall = perf_counter() - t0
    return {
        "wall_s": wall,
        "cpu_s": sum(p["cpu_s"] for p in procs),
        "rss_mb": max(p["rss_mb"] for p in procs),
        "codes": [p["code"] for p in procs],
        "outputs": read_outputs(steps, cwd),
    }


class Tally:
    """Commands and checks attempted and failed, with the names of misses."""

    def __init__(self):
        self.attempted = 0
        self.misses: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.misses.append(name)

    def codes(self, label: str, codes: list[int]) -> None:
        for i, code in enumerate(codes):
            self.add(f"{label}: step {i} exit {code}", code == 0)

    def checks(self, label: str, checks: list[tuple[str, bool]]) -> None:
        for name, ok in checks:
            self.add(f"{label}: {name}", ok)


def measure_setup(runner: Runner, cwd: Path) -> list[float]:
    """Wall time of CLI invocations that do no sweep work (interpreter start,
    package import, parser construction); the first one warms the caches."""
    cwd.mkdir(parents=True)
    argv = [sys.executable, "-m", "amoments.cli", "--help"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        r = runner.run(argv, cwd)
        if r["code"] != 0:
            raise RuntimeError("amoments --help failed")
        if i:
            times.append(r["wall_s"])
    return times


def end_to_end(plan, seconds: float, runner: Runner, work: Path, tally: Tally) -> dict:
    threads = len(os.sched_getaffinity(0))
    setup = measure_setup(runner, work / "setup")
    reference = {}
    if plan.reference:
        ref = run_sequence(runner, plan.reference, work / "reference", threads)
        tally.codes("reference", ref["codes"])
        reference = ref["outputs"]
    reps = []
    t0 = perf_counter()
    while len(reps) < MIN_REPEATS or perf_counter() - t0 < seconds:
        rep = run_sequence(runner, plan.steps, work / f"rep{len(reps)}", threads)
        label = f"repeat {len(reps)}"
        tally.codes(label, rep["codes"])
        tally.checks(label, plan.check(rep["outputs"], reference))
        if reps:
            tally.add(f"{label}: CSV identical to repeat 0", rep["outputs"] == reps[0]["outputs"])
        reps.append(rep)
    med = statistics.median
    walls = [r["wall_s"] for r in reps]
    values = {
        "wall_s": med(walls),
        "items_per_s": med(plan.items / w for w in walls),
        "cpu_s": med(r["cpu_s"] for r in reps),
        "worker_util": med(r["cpu_s"] / (r["wall_s"] * threads) for r in reps),
        "peak_rss_mb": med(r["rss_mb"] for r in reps),
        "setup_s": med(setup),
    }
    print(f"workload {plan.name}: seed {plan.seed}, {threads} workers, {len(reps)} repeats "
          f"of {len(plan.steps)} commands, {plan.items} items ({plan.item_unit})")
    print(f"  parameters: {json.dumps(plan.params, sort_keys=True)}")
    for name, unit in END_TO_END:
        n = len(setup) if name == "setup_s" else len(reps)
        print(f"  {name:<12} {values[name]:14.6f} {unit:<8} median of {n}")
    print("  repeat walls: " + " ".join(f"{w:.3f}" for w in walls))
    print("  setup walls:  " + " ".join(f"{w:.3f}" for w in setup))
    return values


def inproc(runner: Runner, plan_path: Path, cwd: Path, traced: bool) -> dict:
    """One fresh interpreter running the whole plan in-process, one worker."""
    result = cwd / "result.json"
    cwd.mkdir(parents=True)
    r = runner.run([sys.executable, str(HERE / "inproc.py"), str(plan_path), str(result), str(int(traced))], cwd)
    if r["code"] != 0 or not result.exists():
        tail = (cwd / "stderr.txt").read_text()[-2000:]
        raise RuntimeError(f"in-process run exited {r['code']}:\n{tail}")
    return json.loads(result.read_text())


def layer_metrics(serial: dict, traced: dict) -> dict:
    spans, counts = traced["spans"], traced["counts"]
    values = {}
    for name, _ in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            values[name] = spans.get(head, {}).get(stat, 0)
        else:
            values[name] = counts.get(name, 0)
    chunks = spans.get("cli._dispatch", {}).get("calls", 0)
    replayed = counts.get("cli.chunks_replayed", 0)
    values["cli.chunks"] = chunks
    values["cli.replay_ratio"] = replayed / (replayed + chunks) if replayed + chunks else 0.0
    factor_calls = values["arith.factor.calls"]
    values["arith.is_prime_per_factor"] = values["arith.is_prime.calls"] / factor_calls if factor_calls else 0.0
    values["trace.serial_wall_s"] = serial["wall_s"]
    values["trace.traced_wall_s"] = traced["wall_s"]
    values["trace.overhead_ratio"] = traced["wall_s"] / serial["wall_s"]
    return values


def per_layer(plan, seconds: float, runner: Runner, work: Path, tally: Tally, keep: Path) -> dict:
    """Untraced and traced one-worker runs in pairs for `seconds`; times are
    medians over the pairs, and every call and work count must repeat exactly."""
    threads = len(os.sched_getaffinity(0))
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps({"steps": plan.steps}))
    parallel = run_sequence(runner, plan.steps, work / "parallel", threads)
    tally.codes("parallel", parallel["codes"])
    reference = {}
    if plan.reference:
        ref = run_sequence(runner, plan.reference, work / "reference", threads)
        tally.codes("reference", ref["codes"])
        reference = ref["outputs"]
    exact = [n for n, unit in PER_LAYER if unit != "s" and n != "trace.overhead_ratio"]
    pairs = []
    t0 = perf_counter()
    while len(pairs) < 2 or perf_counter() - t0 < seconds:
        i = len(pairs)
        serial = inproc(runner, plan_path, work / f"serial{i}", traced=False)
        traced = inproc(runner, plan_path, work / f"traced{i}", traced=True)
        tally.codes(f"serial {i}", serial["codes"])
        tally.codes(f"traced {i}", traced["codes"])
        tally.checks(f"traced {i}", plan.check(traced["outputs"], reference))
        tally.add(f"traced {i}: CSV identical to untraced one-worker CSV", traced["outputs"] == serial["outputs"])
        tally.add(f"traced {i}: {threads}-worker CSV identical to one-worker CSV",
                  parallel["outputs"] == traced["outputs"])
        pairs.append(layer_metrics(serial, traced))
        if i == 0:
            first = traced
        else:
            tally.add(f"traced {i}: calls and work counts repeat exactly",
                      all(pairs[i][n] == pairs[0][n] for n in exact))
    values = {name: pairs[0][name] if name in exact else statistics.median(p[name] for p in pairs)
              for name, _ in PER_LAYER}
    keep.write_text(json.dumps({k: first[k] for k in ("wall_s", "spans", "counts", "edges")}, indent=1))
    print(f"workload {plan.name}: seed {plan.seed}, {len(pairs)} pairs of untraced and traced "
          "in-process runs, one worker")
    print(f"  parameters: {json.dumps(plan.params, sort_keys=True)}")
    top = sorted(first["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:12]
    print(f"  top spans by self time, first traced run (all spans in {keep.relative_to(ROOT)}):")
    for name, s in top:
        print(f"    {name:<44} {s['calls']:>10} calls {s['self_s']:10.4f} s self")
    for name, unit in PER_LAYER:
        print(f"  {name:<46} {values[name]:>16.6g} {unit}")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "amoments" / "cli.py").is_file():
        sys.stderr.write(f"no amoments sources under {SRC}; run from the root of a source checkout\n")
        return 2
    start = perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    keep = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, start + DEADLINE_S)
    tally = Tally()
    plan = workloads.make(args.workload, args.seed)
    try:
        if args.trace:
            values, table = per_layer(plan, args.seconds, runner, work, tally, keep), PER_LAYER
        else:
            values, table = end_to_end(plan, args.seconds, runner, work, tally), END_TO_END
    except (Deadline, RuntimeError) as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(tally.misses)
    print(f"  {'fail_frac':<12} {failed / tally.attempted:14.6f} {'ratio':<8} {failed} of {tally.attempted} "
          "commands and checks failed")
    for miss in tally.misses:
        print(f"  FAILED {miss}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
