"""Run a workload plan inside this interpreter with one worker.

    python3 bench/inproc.py PLAN_JSON RESULT_JSON TRACED

Each step is passed to `amoments.cli.main` with `--threads 1`, so every chunk
runs in this process.  With TRACED=1 the span recorder of spans.py is
installed first.  The result file holds the wall time of the whole plan, the
exit codes, the CSV outputs and, when traced, the span table and work counts.
Run it in a fresh interpreter: the program keeps module-level caches (sieve
tables, memoized non-residues), so a second run in the same process would do
less work than the first.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path
from time import perf_counter

import spans

_CHUNK_LINE = re.compile(r"chunk\.(\d+)=")


def _replayed_before(rec, args):
    """Count the chunks run_chunks will take from its checkpoint."""
    ctx, _, _, tasks = args
    if ctx.checkpoint and os.path.exists(ctx.checkpoint):
        with open(ctx.checkpoint) as fh:
            done = {int(m.group(1)) for m in map(_CHUNK_LINE.match, fh) if m}
        rec.counts["cli.chunks_replayed"] += sum(1 for i in done if i < len(tasks))


def _sweep_after(layer):
    def after(rec, args, rows):
        rec.counts[f"{layer}.discs"] += len(rows)
        rec.counts[f"{layer}.forms"] += sum(row[2] for row in rows)
    return after


def _twists_after(layer):
    def after(rec, args, sizes):
        rec.counts[f"{layer}.twists"] += len(sizes)
    return after


HOOKS = {
    "cli.run_chunks": (_replayed_before, None),
    "quadforms.neg_torsion_sweep": (None, _sweep_after("quadforms.neg_torsion_sweep")),
    "quadforms.pos_narrow_sweep": (None, _sweep_after("quadforms.pos_narrow_sweep")),
    "redei.all_kernel_sizes": (None, _twists_after("redei.all_kernel_sizes")),
    "selmer.g_r_all_eps": (None, _twists_after("selmer.g_r_all_eps")),
}


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def main() -> int:
    plan_path, result_path, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    src = Path(os.environ["PYTHONPATH"]).resolve()
    import amoments.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"amoments imported from {cli.__file__}, not {src}\n")
        return 2
    steps = json.loads(Path(plan_path).read_text())["steps"]
    rec = spans.Recorder() if traced else None
    if rec:
        spans.install(rec, HOOKS, private=("cli._dispatch",))
    t0 = perf_counter()
    codes = []
    for step in steps:
        try:
            codes.append(cli.main(["--threads", "1", *step["argv"]]))
        except SystemExit as exc:
            codes.append(exc.code if isinstance(exc.code, int) else 2)
    wall = perf_counter() - t0
    outputs = {s["out"]: Path(s["out"]).read_text() if Path(s["out"]).exists() else None for s in steps}
    checkpoints = {_option(s["argv"], "--checkpoint") for s in steps} - {None}
    result = {"wall_s": wall, "codes": codes, "outputs": outputs, "spans": {}, "counts": {}}
    if rec:
        table = rec.table()
        result["spans"], result["counts"] = table["spans"], table["counts"]
        result["edges"] = table["edges"]
        result["counts"]["cli.checkpoint_bytes"] = sum(os.path.getsize(c) for c in checkpoints if os.path.exists(c))
        result["counts"]["cli.csv_bytes"] = sum(len(text) for text in outputs.values() if text)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
