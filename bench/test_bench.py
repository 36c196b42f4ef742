"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest bench/test_bench.py

Two traced runs of one seed must give identical call counts and work counts
(forms, twists, chunks, checkpoint bytes), and every metric name must be
valid for BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[section]]
        assert declared == table
        for name, unit in table:
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    names = [n for n, _ in run.END_TO_END + run.PER_LAYER] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_self_time_excludes_child_spans():
    rec = spans.Recorder()

    def child():
        t = perf_counter()
        while perf_counter() - t < 0.02:
            pass

    child = spans._timed(rec, "m.child", child)

    def parent():
        child()
        child()

    spans._timed(rec, "m.parent", parent)()
    table = rec.table()["spans"]
    assert table["m.child"]["calls"] == 2
    assert table["m.parent"]["total_s"] >= table["m.child"]["total_s"] >= 0.04
    assert table["m.parent"]["self_s"] == pytest.approx(
        table["m.parent"]["total_s"] - table["m.child"]["total_s"], abs=1e-9
    )
    assert table["m.parent"]["self_s"] < 0.01


def _exact(result: dict) -> dict:
    """The parts of a traced result that must repeat exactly."""
    return {
        "calls": {name: s["calls"] for name, s in result["spans"].items()},
        "counts": result["counts"],
        "codes": result["codes"],
        "outputs": result["outputs"],
    }


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat(name):
    work = run.ROOT / ".bench_work" / f"test-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.make(name, 7)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps({"steps": plan.steps}))
        runner = run.Runner(work, perf_counter() + 170)
        first = run.inproc(runner, plan_path, work / "a", traced=True)
        second = run.inproc(runner, plan_path, work / "b", traced=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert first["codes"] == [0] * len(plan.steps)
    assert _exact(first) == _exact(second)
    values = run.layer_metrics(first, first)
    work_counts = {
        "classgroup-sweep": ("quadforms.neg_torsion_sweep.forms", "quadforms.pos_narrow_sweep.forms"),
        "selmer-descent": ("selmer.descent_selmer_oracle.calls",),
        "moment-lab": ("redei.all_kernel_sizes.twists", "selmer.g_r_all_eps.twists"),
        "checkpoint-resume": ("cli.chunks", "cli.chunks_replayed", "cli.checkpoint_bytes"),
    }[name]
    assert all(values[key] > 0 for key in work_counts)
