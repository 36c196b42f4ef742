import hashlib
import json
import math
import multiprocessing
import os
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from oracles import oscillation_brute

from amoments import arith, cli, quadforms


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_identity_first_moment(capsys):
    code, out = run_cli(["identity", "first-moment", "--x", "50", "--weight", "one"], capsys)
    assert code == 0
    assert "first_moment,50,EQUAL" in out


def test_identity_k_moment(capsys):
    code, out = run_cli(
        ["identity", "k-moment", "--setting", "class", "--x", "30", "--k", "1"], capsys
    )
    assert code == 0
    assert "k_moment,class:30:1,EQUAL" in out


def test_unlinked_row_format(capsys):
    code, out = run_cli(["unlinked", "--setting", "class", "--k", "2"], capsys)
    assert code == 0
    assert "max_unlinked,class,2,4" in out.splitlines()[1]


def test_determinism_same_command(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = cli.main(
            ["--out", str(path), "--threads", "1", "verify", "redei", "--dmax", "800", "--sign", "neg"]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_thread_count_invariance(tmp_path):
    outs = []
    for threads in ("1", "2"):
        path = tmp_path / f"t{threads}.csv"
        code = cli.main(
            [
                "--out", str(path), "--threads", threads, "--chunk", "100",
                "experiment", "t12", "--x-list", "300,600", "--sign", "neg",
            ]
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_checkpoint_resume_identical(tmp_path):
    base_args = [
        "--threads", "1", "--chunk", "80",
        "experiment", "t12", "--x-list", "200,400", "--sign", "neg",
    ]
    ref = tmp_path / "ref.csv"
    assert cli.main(["--out", str(ref)] + base_args) == 0

    cp = tmp_path / "run.ckpt"
    partial = tmp_path / "partial.csv"
    code = cli.main(
        ["--out", str(partial), "--checkpoint", str(cp), "--max-chunks", "2"] + base_args
    )
    assert code == 0
    assert not partial.exists()  # incomplete runs write no output
    lines = cp.read_text().splitlines()
    assert lines[0].startswith("config=")
    assert sum(1 for ln in lines if ln.startswith("chunk.")) == 2

    resumed = tmp_path / "resumed.csv"
    code = cli.main(["--out", str(resumed), "--checkpoint", str(cp)] + base_args)
    assert code == 0
    assert resumed.read_bytes() == ref.read_bytes()


def test_checkpoint_tolerates_torn_line(tmp_path):
    base_args = [
        "--threads", "1", "--chunk", "100",
        "experiment", "t12", "--x-list", "300", "--sign", "neg",
    ]
    ref = tmp_path / "ref.csv"
    assert cli.main(["--out", str(ref)] + base_args) == 0
    cp = tmp_path / "torn.ckpt"
    assert cli.main(["--checkpoint", str(cp), "--max-chunks", "1", "--out", str(tmp_path / "x.csv")] + base_args) == 0
    with open(cp, "a") as fh:
        fh.write("chunk.99=[17, trunc")  # simulated mid-write kill
    out = tmp_path / "resumed.csv"
    assert cli.main(["--out", str(out), "--checkpoint", str(cp)] + base_args) == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("same_text", [True, False])
def test_checkpoint_headed_by_sha256_resumes_only_its_task_text(same_text, tmp_path, capsys):
    # sections written before headers held the task text carry its SHA-256
    argv = ["--threads", "1", "--chunk", "80", "experiment", "t12", "--x-list", "200,400", "--sign", "neg"]
    ref, cp, out = tmp_path / "ref.csv", tmp_path / "run.ckpt", tmp_path / "out.csv"
    assert cli.main(["--out", str(ref), *argv]) == 0
    assert cli.main(["--checkpoint", str(cp), "--max-chunks", "2", *argv]) == 0
    header, *chunks = cp.read_text().splitlines(keepends=True)
    text = header.removeprefix("config=").rstrip("\n") if same_text else "some other text"
    cut = f"config={hashlib.sha256(text.encode()).hexdigest()}\n" + "".join(chunks)
    cp.write_text(cut)
    code = cli.main(["--out", str(out), "--checkpoint", str(cp), *argv])
    if same_text:
        assert code == 0 and out.read_bytes() == ref.read_bytes()
        assert cp.read_text().startswith(cut)
    else:
        assert code == 2 and "different configuration" in capsys.readouterr().err
        assert not out.exists() and cp.read_text() == cut


def test_checkpoint_config_mismatch(tmp_path, capsys):
    cp = tmp_path / "from_other_run.ckpt"
    cp.write_text("config=deadbeef\n")
    code = cli.main(
        ["--checkpoint", str(cp), "--threads", "1", "experiment", "t12", "--x-list", "200"]
    )
    assert code == 2


def test_exit_code_math_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli.moments, "max_unlinked", lambda s, k: (3, []))
    code = cli.main(["unlinked", "--setting", "class", "--k", "2"])
    assert code == 1


def test_exit_code_usage(capsys):
    code = cli.main(["identity", "first-moment", "--x", "50", "--weight", "nope"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["identity", "first-moment"])  # missing required --x
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        # the majorization holds for every power exactly when it holds
        cli.main(["verify", "selmer", "--tmax", "10", "--descent-dmax", "10", "--k", "1"])
    assert exc.value.code == 2


def test_exit_code_io(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = cli.main(
        ["--out", str(target), "identity", "first-moment", "--x", "20"]
    )
    assert code == 3


def _refuse_chunks(*args):
    raise ValueError("chunk ran")


def test_unwritable_out_exits_before_any_chunk(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_w_redei", _refuse_chunks)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        code = cli.main(["--threads", "1", "--out", str(out), "verify", "redei", "--dmax", "300"])
        assert code == 3
        assert "chunk ran" not in capsys.readouterr().err


def test_failed_run_leaves_no_out_file(monkeypatch, tmp_path):
    out = tmp_path / "out.csv"
    argv = ["--threads", "1", "--out", str(out), "verify", "redei", "--dmax", "300"]
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_w_redei", _refuse_chunks)
        assert cli.main(argv) == 2
    assert list(tmp_path.iterdir()) == []
    # a write that fails at the rename leaves neither the file nor its temporary
    def fail_rename(src, dst):
        raise OSError("rename failed")

    with monkeypatch.context() as patched:
        patched.setattr(os, "replace", fail_rename)
        assert cli.main(argv) == 3
    assert list(tmp_path.iterdir()) == []
    assert cli.main(argv) == 0 and out.read_text().startswith("quantity,")


def test_out_follows_symlinks_and_writes_pipes_in_place(tmp_path):
    argv = ["--threads", "1", "verify", "redei", "--dmax", "300"]
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert cli.main(["--out", str(link), *argv]) == 0
    assert link.is_symlink() and target.read_text().startswith("quantity,")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert cli.main(["--out", str(fifo), *argv]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [target.read_text()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_classgroup_cache(tmp_path, capsys):
    cache = tmp_path / "cls.tsv"
    code, out = run_cli(
        ["classgroup", "--dmax", "60", "--cache", str(cache)], capsys
    )
    assert code == 0
    assert "classgroup,-23,narrow=0,invariants=3,h=3" in out
    text = cache.read_text()
    assert "-23\t0\t3" in text
    # single lookups hit the cache file and leave it as it was
    os.utime(cache, ns=(10 ** 9, 10 ** 9))
    code, out = run_cli(["classgroup", "--delta", "-23", "--cache", str(cache)], capsys)
    assert code == 0
    assert "invariants=3,h=3" in out
    assert cache.read_text() == text and cache.stat().st_mtime_ns == 10 ** 9
    # a lookup the file lacks adds it
    code, out = run_cli(["classgroup", "--delta", "-71", "--cache", str(cache)], capsys)
    assert code == 0
    assert "-71\t0\t7\n" in cache.read_text()


@pytest.mark.parametrize("lookup", [["--dmax", "40000"], ["--delta", "-23"]])
def test_unwritable_new_cache_exits_before_any_chunk(lookup, monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("class groups computed before the cache was checked")

    monkeypatch.setattr(cli, "run_chunks", refuse)
    monkeypatch.setattr(quadforms, "class_group", refuse)
    cache = tmp_path / "missing" / "c.tsv"
    assert cli.main(["--threads", "1", "classgroup", *lookup, "--cache", str(cache)]) == 3
    assert f"--cache {cache}: not writable" in capsys.readouterr().err


def test_bad_product_out_of_range_exits_before_any_chunk(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a phase ran before the bad product was factored")

    monkeypatch.setattr(cli, "run_chunks", refuse)
    argv = ["verify", "selmer", "--tmax", "20000", "--curve", "100000000000,1,-1", "--descent-dmax", "5"]
    assert cli.main(["--threads", "1", *argv]) == 2
    assert "64-bit working range" in capsys.readouterr().err


def test_malformed_cache_line_is_named(tmp_path, capsys):
    cache = tmp_path / "cls.tsv"
    cache.write_text("-3\t0\t1\n-23 0 3\n")
    assert cli.main(["classgroup", "--delta", "-23", "--cache", str(cache)]) == 2
    assert f"{cache}, line 2:" in capsys.readouterr().err


def test_classgroup_sweep_does_not_recheck_fundamentality(monkeypatch, capsys):
    def refuse(d):
        raise AssertionError("fundamentality re-checked")

    # the sweep's discriminants come straight from the sieve
    with monkeypatch.context() as patched:
        patched.setattr(arith, "is_fundamental_discriminant", refuse)
        rows = cli._w_classgroup(3, 500, False)
    assert [row[0] for row in rows[:4]] == [-3, -4, 5, -7]
    # a single --delta is still checked
    code, _ = run_cli(["classgroup", "--delta", "9"], capsys)
    assert code == 2


@pytest.mark.parametrize("flags", [[], ["--delta", "-23", "--dmax", "60"]])
def test_classgroup_takes_exactly_one_of_delta_and_dmax(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classgroup", *flags])
    assert exc.value.code == 2


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [ln for ln in block.splitlines() if ln.startswith("amoments ")]
    assert len(examples) == len(block.strip().splitlines())
    parser = cli.build_parser()
    for ln in examples:
        assert callable(parser.parse_args(shlex.split(ln)[1:]).func), ln


def test_h3level_cli(capsys):
    code, out = run_cli(
        ["--threads", "1", "density", "h3level", "--x", "4000", "--m", "1"], capsys
    )
    assert code == 0
    assert "h3_ratio,4000," in out
    ratio = float(out.splitlines()[-1].split(",")[2])
    assert 0.5 < ratio < 1.5


def test_charsum_degenerate(capsys):
    code, out = run_cli(["charsum", "--x", "500", "--z", "500,600"], capsys)
    assert code == 0
    rows = [ln for ln in out.splitlines()[1:] if ln]
    assert all(ln.split(",")[4] == "0" for ln in rows)


def test_threads_env_var(monkeypatch, capsys):
    monkeypatch.setenv("AMOMENTS_THREADS", "2")
    code, out = run_cli(["identity", "first-moment", "--x", "20"], capsys)
    assert code == 0
    monkeypatch.setenv("AMOMENTS_THREADS", "0")
    code = cli.main(["identity", "first-moment", "--x", "20"])
    assert code == 2  # invalid worker count is a usage error


def test_moment_selmer(capsys):
    code, out = run_cli(
        ["moment", "selmer", "--x", "80", "--k", "1", "--curve", "0,1,2"], capsys
    )
    assert code == 0
    assert out.splitlines()[1].startswith("weighted-moment,selmer,80,1,")


def test_split_ranges_rejects_nonpositive_chunk():
    assert arith.split_ranges(1, 5, 2) == [(1, 2), (3, 4), (5, 5)]
    for chunk in (0, -3):
        with pytest.raises(ValueError):
            arith.split_ranges(1, 5, chunk)


@pytest.mark.parametrize("chunk", ["0", "-1"])
def test_nonpositive_chunk_is_usage_error(chunk, capsys):
    code = cli.main(["--threads", "1", "--chunk", chunk, "verify", "redei", "--dmax", "50"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_worker_value_error_is_usage_error(threads, monkeypatch, capsys):
    # a ValueError raised inside a chunk worker, in a forked pool process at
    # two threads
    monkeypatch.setattr(cli, "_w_selmer_kernel", _refuse_chunks)
    code = cli.main(["--threads", threads, "--chunk", "5", "verify", "selmer", "--tmax", "10", "--curve", "0,1,2"])
    assert code == 2
    assert "chunk ran" in capsys.readouterr().err


def test_pool_is_clamped_to_pending_chunks(monkeypatch, capsys):
    asked = []

    class RecordingPool:
        """Runs jobs in this process and records the requested worker count."""

        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, jobs):
            return map(fn, jobs)

    # run_chunks imports Pool from multiprocessing when it starts one
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # two phases of one chunk each: both run in this process
    argv = ["--threads", "3", "verify", "selmer", "--tmax", "30", "--descent-dmax", "20"]
    assert cli.main(argv) == 0
    assert asked == []
    argv = ["--threads", "3", "--chunk", "150", "experiment", "t12", "--x-list", "300"]
    assert cli.main(argv) == 0
    assert asked == [2]
    # six pending chunks and a huge --threads: no more processes than cores
    asked.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["--threads", "100000", "--chunk", "50", "experiment", "t12", "--x-list", "300"]
    assert cli.main(argv) == 0
    assert asked == [2]
    # one core, or one thread: no pool
    for threads, cores in (("4", 1), ("1", 4)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        argv = ["--threads", threads, "--chunk", "50", "experiment", "t12", "--x-list", "300"]
        assert cli.main(argv) == 0
    assert asked == [2]


# a checkpoint of `verify selmer --tmax 50 --descent-dmax 30`, cut after its
# first phase; each phase is one chunk.  Sections written before headers
# held the task text are headed by its SHA-256.
SELMER_CHECKPOINT = (
    "config=cabc004d683b28a7f848db6fcfa1e8c5832cf94d31c707f9d4efa0d275940951\n"
    "chunk.0=[20, []]\n"
    "config=5684a780d1cc879956ca598f41a00220eb4fad839a93f64635809faa04db96a7\n"
)
SELMER_CUT = (
    "config=('selmer_kernel', 'kernel', [(0, 1, -1, 1, 50)])\n"
    "chunk.0=[20, []]\n"
    "config=('descent', 'descent', [(0, 1, -1, 1, 30)])\n"
)


def test_one_chunk_phases_resume_identically_at_two_threads(tmp_path):
    argv = ["verify", "selmer", "--tmax", "50", "--descent-dmax", "30"]
    ref, ref_cp = tmp_path / "ref.csv", tmp_path / "ref.ckpt"
    assert cli.main(["--threads", "1", "--out", str(ref), "--checkpoint", str(ref_cp), *argv]) == 0
    cut = tmp_path / "cut.ckpt"
    assert cli.main(["--threads", "1", "--checkpoint", str(cut), "--max-chunks", "1", *argv]) == 0
    assert cut.read_text() == SELMER_CUT
    out = tmp_path / "out.csv"
    assert cli.main(["--threads", "2", "--out", str(out), "--checkpoint", str(cut), *argv]) == 0
    assert out.read_bytes() == ref.read_bytes()
    assert cut.read_bytes() == ref_cp.read_bytes()
    # a checkpoint of an earlier version hashed descent tasks that carried a
    # majorization exponent, so its descent section is refused
    old = tmp_path / "old.ckpt"
    old.write_text(SELMER_CHECKPOINT)
    out = tmp_path / "old.csv"
    assert cli.main(["--threads", "2", "--out", str(out), "--checkpoint", str(old), *argv]) == 2
    assert not out.exists()
    assert old.read_text() == SELMER_CHECKPOINT


# prints the exit code, which of these modules the run loaded and which
# amoments modules it executed (a layer not yet read is still lazy)
_IMPORT_PROBE = """
import importlib.util
import sys
from amoments import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
heavy = {"hashlib", "_hashlib", "multiprocessing", "dataclasses", "inspect"}
ran = [n for n, m in sys.modules.items() if n.startswith("amoments.") and type(m) is not importlib.util._LazyModule]
print(code, sorted(heavy & set(sys.modules)), sorted(n.partition(".")[2] for n in ran))
"""

# (argv, the amoments modules that run executes)
LOADING = [
    (["--help"], ["cli"]),
    (["moment", "class", "--x", "200"], ["arith", "cli", "gf2", "moments", "redei"]),
    (["--threads", "2", "verify", "selmer", "--tmax", "50", "--descent-dmax", "30"], ["arith", "cli", "gf2", "selmer"]),
    # a new checkpoint needs no hash
    (["--checkpoint", "CKPT", "verify", "selmer", "--tmax", "50", "--descent-dmax", "30"], ["arith", "cli", "gf2", "selmer"]),
    (["charsum", "--x", "2000", "--z", "3"], ["arith", "cli", "moments"]),
    (["classgroup", "--dmax", "100"], ["arith", "cli", "quadforms"]),
    # writing --out needs no class-group code
    (["--out", "OUT", "verify", "selmer", "--tmax", "50"], ["arith", "cli", "gf2", "selmer"]),
]


def _probe_env():
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


@pytest.mark.parametrize("argv, loaded", LOADING, ids=[f"argv{i}" for i in range(len(LOADING))])
def test_runs_without_pool_or_checkpoint_load_neither(argv, loaded, tmp_path):
    names = {"CKPT": str(tmp_path / "run.ckpt"), "OUT": str(tmp_path / "out.csv")}
    argv = [names.get(a, a) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv], capture_output=True, text=True, env=_probe_env(), check=True
    )
    assert proc.stdout.splitlines()[-1] == f"0 [] {loaded}"


_PACKAGE_PROBE = """
import importlib.util
import sys
import amoments
layers = sorted(n for n in sys.modules if n.startswith("amoments."))
print(layers, all(type(sys.modules[n]) is importlib.util._LazyModule for n in layers))
# the span recorder of bench/spans.py reads vars() of each layer module
print("Gf2Matrix" in vars(sys.modules["amoments.gf2"]))
"""


def test_package_import_registers_every_layer_and_resolves_all():
    proc = subprocess.run(
        [sys.executable, "-c", _PACKAGE_PROBE], capture_output=True, text=True, env=_probe_env(), check=True
    )
    layers = ["arith", "density", "gf2", "moments", "quadforms", "redei", "selmer"]
    assert proc.stdout.splitlines() == [f"{[f'amoments.{n}' for n in layers]} True", "True"]
    import amoments

    for name in amoments.__all__:
        value = getattr(amoments, name)
        assert any(getattr(sys.modules[f"amoments.{n}"], name, None) is value for n in layers), name
    assert set(amoments.__all__) <= set(dir(amoments))
    assert set(layers) <= set(dir(amoments))
    with pytest.raises(AttributeError):
        amoments.no_such_name


# (argv, --max-chunks that stops the first run inside its last phase)
MULTI_PHASE = {
    "redei-both": (
        ["--chunk", "100", "verify", "redei", "--dmax", "200", "--sign", "both", "--dmax-pos", "300"], 3
    ),
    "selmer-descent": (
        ["--chunk", "20", "verify", "selmer", "--tmax", "50", "--descent-dmax", "60"], 4
    ),
    "charsum-two-z": (["--chunk", "300", "charsum", "--x", "20000", "--z", "10,20"], 8),
}


@pytest.mark.parametrize("name", sorted(MULTI_PHASE))
def test_multi_phase_checkpoint_resumes(name, tmp_path):
    argv, stop = MULTI_PHASE[name]
    ref = tmp_path / "ref.csv"
    assert cli.main(["--out", str(ref), "--threads", "1", *argv]) == 0
    cp = tmp_path / "run.ckpt"
    out = tmp_path / "resumed.csv"
    base = ["--out", str(out), "--checkpoint", str(cp), "--threads", "1"]
    assert cli.main([*base, "--max-chunks", str(stop), *argv]) == 0
    assert not out.exists()
    assert cli.main([*base, *argv]) == 0
    assert out.read_bytes() == ref.read_bytes()


TORN = {
    "t11": ["--chunk", "100", "experiment", "t11", "--poly", "t", "--curve", "0,1,-1", "--b-list", "150,200"],
    "charsum-two-z": ["--chunk", "500", "charsum", "--x", "3000", "--z", "10,20"],
}


@pytest.mark.parametrize("name", sorted(TORN))
def test_checkpoint_cut_at_every_byte_resumes_exactly(name, tmp_path):
    argv = ["--threads", "1", *TORN[name]]
    ref = tmp_path / "ref.csv"
    assert cli.main(["--out", str(ref), *argv]) == 0
    cp = tmp_path / "run.ckpt"
    assert cli.main(["--checkpoint", str(cp), "--out", str(tmp_path / "full.csv"), *argv]) == 0
    full = cp.read_bytes()
    out = tmp_path / "resumed.csv"
    for cut in range(len(full)):
        cp.write_bytes(full[:cut])
        for _ in range(2):
            out.unlink(missing_ok=True)
            assert cli.main(["--checkpoint", str(cp), "--out", str(out), *argv]) == 0, cut
            assert out.read_bytes() == ref.read_bytes(), cut
        # the cut line was dropped and its chunk recomputed
        assert cp.read_bytes() == full, cut


def test_checkpoint_bad_line_before_the_last_is_refused(tmp_path, capsys):
    argv = ["--threads", "1", *TORN["t11"]]
    cp = tmp_path / "run.ckpt"
    assert cli.main(["--checkpoint", str(cp), "--out", str(tmp_path / "a.csv"), *argv]) == 0
    lines = cp.read_text().splitlines(keepends=True)
    lines[2] = lines[2].partition("=")[0] + "=\n"  # a cut line followed by whole ones
    cp.write_text("".join(lines))
    assert cli.main(["--checkpoint", str(cp), "--out", str(tmp_path / "b.csv"), *argv]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


# (argv and --max-chunks of the interrupted run, the changed option and its new value)
CHANGED = {
    "chunk": (["--chunk", "50", "experiment", "t12", "--x-list", "300"], 2, "--chunk", "100"),
    "dmax-pos": (*MULTI_PHASE["redei-both"], "--dmax-pos", "400"),
    "descent-dmax": (*MULTI_PHASE["selmer-descent"], "--descent-dmax", "80"),
}


@pytest.mark.parametrize("name", sorted(CHANGED))
def test_resume_with_changed_parameters_is_refused(name, tmp_path, capsys):
    argv, stop, option, value = CHANGED[name]
    cp = tmp_path / "run.ckpt"
    base = ["--threads", "1", "--checkpoint", str(cp), "--out", str(tmp_path / "out.csv")]
    assert cli.main([*base, "--max-chunks", str(stop), *argv]) == 0
    changed = list(argv)
    changed[changed.index(option) + 1] = value
    code = cli.main([*base, *changed])
    assert code == 2
    assert "different configuration" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_selmer_kernel_worker_factors_each_twist_once(monkeypatch):
    calls = []
    factor = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or factor(n))
    # once in the worker, once inside the independent condition-kernel count
    assert cli._w_selmer_kernel(0, 1, 2, 1155, 1155) == [1, []]
    assert calls == [1155, 1155]
    calls.clear()
    # even twists share the factor 2 of the bad product
    assert cli._w_selmer_kernel(0, 1, 2, 4, 4) == [0, []]
    assert calls == []


# Python that a --poly text must never get to run
POLY_PAYLOAD = '__import__("pathlib").Path({!r}).touch()'


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "h3level", "--x", "2000", "--m", "1", "--letters", "5:1"],
        ["charsum", "--x", str(10 ** 8), "--z", "10"],
        ["experiment", "t11", "--poly", "t^4+1", "--b-list", "10"],
        ["moment", "class", "--x", "1"],
        ["moment", "selmer", "--x", "1"],
        ["density", "lemma210", "--box", "0"],
        ["density", "lemma210", "--box", "-1"],
        ["density", "poly", "--nvars", "0"],
        ["experiment", "t12", "--x-list", "100", "--k", "-1"],
        ["identity", "first-moment", "--x", "20", "--weight", "kappa:1/0"],
        ["verify", "redei", "--dmax", str(10 ** 7 + 1)],
        ["verify", "redei", "--dmax", "100", "--sign", "both", "--dmax-pos", str(10 ** 7 + 1)],
        ["classgroup", "--dmax", str(10 ** 7 + 1)],
        ["density", "h3level", "--x", str(10 ** 7 + 2)],
        ["density", "poly", "--poly", "x+1"],
        ["density", "poly", "--poly", "sin(t)"],
        ["density", "poly", "--poly", "1/0"],
        ["density", "poly", "--poly", "t**"],
        ["experiment", "t11", "--poly", "x", "--b-list", "10"],
        ["density", "poly", "--poly", POLY_PAYLOAD.format("X")],
        ["experiment", "t11", "--b-list", "10", "--k", "-1"],
        ["identity", "k-moment", "--x", "50", "--k", "-1"],
        ["density", "frobenian", "--poly", "t", "--pmax", str(2 * 10 ** 6)],
        ["density", "lemma210", "--pmax", str(10 ** 6 + 1), "--box", "2"],
        ["moment", "class", "--x", str(10 ** 6 + 1)],
        ["verify", "selmer", "--tmax", "3", "--descent-dmax", str(10 ** 4 + 2)],
        ["moment", "class", "--x", "100", "--k", "33"],
        ["verify", "selmer", "--tmax", "20", "--descent-dmax", "10", "--curve", "0,2,4"],
        ["verify", "selmer", "--tmax", "20", "--descent-dmax", "-1"],
        ["verify", "selmer", "--tmax", str(10 ** 6 + 1)],
        ["verify", "selmer", "--tmax", "-1"],
        ["verify", "selmer", "--tmax", "10", "--curve", "0,0,1"],
        ["verify", "selmer", "--tmax", "10", "--curve", "4,8,12"],
        ["moment", "class", "--x", "10", "--k", "-1"],
        ["identity", "first-moment", "--x", "-5"],
        ["identity", "first-moment", "--x", "0"],
        ["identity", "k-moment", "--x", "0"],
        ["verify", "redei", "--dmax", "2"],
        ["verify", "redei", "--dmax", "-5"],
        ["verify", "redei", "--dmax", "2", "--sign", "pos"],
        ["verify", "redei", "--dmax", "100", "--sign", "both", "--dmax-pos", "2"],
        ["classgroup", "--dmax", "2"],
        ["density", "h3level", "--x", "-7"],
        ["density", "h3level", "--x", "3"],
        ["verify", "redei", "--dmax", "4", "--sign", "pos"],
        ["verify", "redei", "--dmax", "100", "--sign", "both", "--dmax-pos", "4"],
        ["density", "h3level", "--x", "5", "--sign", "pos"],
        ["verify", "redei", "--dmax", "30", "--sign", "pos", "--dmax-pos", "2"],
        ["verify", "redei", "--dmax", "30", "--sign", "pos", "--dmax-pos", "30"],
        ["verify", "redei", "--dmax", "30", "--sign", "neg", "--dmax-pos", "100"],
        ["verify", "redei", "--dmax", "30", "--dmax-pos", "100"],
        ["experiment", "t11", "--poly", "0", "--b-list", "10"],
        ["density", "lemma210", "--pmax", "1"],
        ["density", "lemma210", "--pmax", "2", "--box", "2"],
        ["density", "h3level", "--m", "3", "--letters", "x"],
        ["moment", "class", "--x", "100", "--weight", "nope"],
        ["moment", "selmer", "--x", "100", "--curve", "0,0,1"],
        # sweeps over nothing: below the least |disc| of the sign, B = 0, no twist
        ["experiment", "t12", "--x-list", "2"],
        ["experiment", "t12", "--x-list", "100,2"],
        ["experiment", "t12", "--x-list", "4", "--sign", "pos"],
        ["experiment", "t11", "--b-list", "0"],
        ["verify", "selmer", "--tmax", "0"],
        ["unlinked", "--setting", "class", "--k", "-1"],
        # the largest moment exponent is 32
        ["experiment", "t12", "--x-list", "100", "--k", "33"],
        ["experiment", "t11", "--b-list", "10", "--k", "33"],
    ],
)
def test_bad_experiment_input_fails_before_sweep(argv, monkeypatch, capsys):
    started = []
    monkeypatch.setattr(cli, "run_chunks", lambda *args: started.append(args))
    assert cli.main(["--threads", "1", *argv]) == 2
    assert not started
    assert "usage error" in capsys.readouterr().err


def test_largest_moment_exponent_runs(tmp_path):
    for argv in (
        ["experiment", "t12", "--x-list", "100"],
        ["experiment", "t11", "--b-list", "10"],
        ["moment", "class", "--x", "100"],
    ):
        assert cli.main(["--threads", "1", "--out", str(tmp_path / "out.csv"), *argv, "--k", "32"]) == 0, argv


@pytest.mark.parametrize(
    "argv, bounds",
    [
        # the least real fundamental discriminant is 5
        (["verify", "redei", "--dmax", "5", "--sign", "pos"], [5]),
        (["verify", "redei", "--dmax", "3", "--sign", "both", "--dmax-pos", "5"], [3, 5]),
        # --sign both reads --dmax-pos, 10^4 when it is absent
        (["verify", "redei", "--dmax", "30", "--sign", "both"], [30, 10 ** 4]),
        (["density", "h3level", "--x", "6", "--sign", "pos"], [5]),
    ],
)
def test_least_real_bounds_are_accepted(argv, bounds, monkeypatch):
    started = []
    monkeypatch.setattr(cli, "run_chunks", lambda ctx, phase, worker, tasks: started.append(tasks) or [])
    assert cli.main(["--threads", "1", *argv]) == 0
    assert [tasks[-1][1] for tasks in started] == bounds


@pytest.mark.parametrize(
    "argv, message",
    [
        (["experiment", "t11", "--poly", "0", "--b-list", "10"], "need a nonzero polynomial"),
        (["density", "lemma210", "--pmax", "2"], "no primes below the cutoff"),
        (["density", "h3level", "--m", "3", "--letters", "x"], "'x' is not of the form q:e, for example 5:1"),
        (["density", "h3level", "--m", "3", "--letters", "3:1,3:y"], "'3:y' is not of the form q:e"),
        (["experiment", "t12", "--x-list", "2"], "need every X >= 3"),
        (["experiment", "t12", "--x-list", "4", "--sign", "pos"], "need every X >= 5"),
        (["experiment", "t11", "--b-list", "0"], "1 <= B <= 10^4"),
        (["verify", "selmer", "--tmax", "0"], "need 1 <= --tmax"),
        (["unlinked", "--setting", "class", "--k", "-1"], "need --k >= 0"),
    ],
)
def test_bad_input_message_names_the_problem(argv, message, capsys):
    assert cli.main(["--threads", "1", *argv]) == 2
    assert message in capsys.readouterr().err


def test_poly_text_is_not_run_as_code(tmp_path, capsys):
    target = tmp_path / "touched"
    assert cli.main(["density", "poly", "--poly", POLY_PAYLOAD.format(str(target))]) == 2
    assert not target.exists()
    assert "not a polynomial" in capsys.readouterr().err


# CLI argv, each led by a --chunk that gives at least 3 chunks
PARTITIONED = {
    "t12": ["--chunk", "100", "experiment", "t12", "--x-list", "200,400", "--sign", "neg"],
    "t12-pos": ["--chunk", "500", "experiment", "t12", "--x-list", "1000,1500", "--sign", "pos", "--k", "2"],
    "t11": ["--chunk", "20", "experiment", "t11", "--poly", "t^2+1", "--curve", "0,1,2", "--b-list", "20,40"],
    "charsum-mu2": ["--chunk", "300", "charsum", "--x", "20000", "--z", "10,20", "--scheme", "mu2"],
    "charsum-tau": ["--chunk", "100", "charsum", "--x", "5000", "--z", "5,9", "--scheme", "tau"],
    "h3level-neg": ["--chunk", "500", "density", "h3level", "--x", "2000", "--m", "3", "--letters", "3:1", "--sign", "neg"],
    "h3level-pos": ["--chunk", "500", "density", "h3level", "--x", "2000", "--m", "3", "--letters", "3:-1", "--sign", "pos"],
    "moment-selmer": ["--chunk", "25", "moment", "selmer", "--x", "80", "--k", "2", "--curve", "0,1,2"],
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(PARTITIONED))
def test_cli_equals_library(name, threads, tmp_path):
    # the run at its small --chunk equals one chunk per cut at one thread
    argv = PARTITIONED[name]
    out, whole = tmp_path / "out.csv", tmp_path / "whole.csv"
    code = cli.main(["--out", str(out), "--threads", threads, *argv])
    assert code in (0, 1)
    assert cli.main(["--out", str(whole), "--threads", "1", "--chunk", "10000000", *argv[2:]]) == code
    assert out.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("scheme", ["mu2", "tau"])
@pytest.mark.parametrize("X", [2, 3, 50, 99, 1000, 4321, 20000])
def test_charsum_matches_ordered_pair_oracle(X, scheme, tmp_path):
    z_list = [1, 2, 3, 7, 10, 33, math.isqrt(X) + 1]
    want = [oscillation_brute(X, z, scheme) for z in z_list]
    out = tmp_path / "out.csv"
    for chunk in ("1", "7", "100", "2000"):
        for threads in ("1", "2"):
            argv = ["--out", str(out), "--threads", threads, "--chunk", chunk]
            code = cli.main([*argv, "charsum", "--x", str(X), "--z", ",".join(map(str, z_list)), "--scheme", scheme])
            assert code in (0, 1)
            rows = [ln.split(",") for ln in out.read_text().splitlines() if ln.startswith("charsum,")]
            assert [int(r[4]) for r in rows] == want, (chunk, threads)


# a charsum checkpoint from before pairs were summed once by reciprocity: its
# chunks summed ordered pairs, so it must not be merged
CHARSUM_CHECKPOINT = (
    "config=('charsum', 'charsum', [(2000, 10, 11, 110, 'mu2'), (2000, 10, 111, 181, 'mu2')])\n"
    "chunk.0=-42\n"
)


# a moment checkpoint from before each chunk summed one exponent: its tasks
# carried a tuple of exponents and its chunks one list of sums for each
MOMENT_CHECKPOINT = (
    "config=('moment', 'moment', [(1, 100, (2,), None), (101, 200, (2,), None), (201, 300, (2,), None)])\n"
    "chunk.0=[[1, 216, 712]]\n"
)


def test_moment_checkpoint_of_exponent_tuples_is_refused(tmp_path, capsys):
    cp = tmp_path / "old.ckpt"
    cp.write_text(MOMENT_CHECKPOINT)
    out = tmp_path / "out.csv"
    argv = ["--threads", "1", "--chunk", "100", "--checkpoint", str(cp), "--out", str(out)]
    assert cli.main([*argv, "moment", "class", "--x", "300", "--k", "2"]) == 2
    assert "different configuration" in capsys.readouterr().err
    assert not out.exists()
    assert cp.read_text() == MOMENT_CHECKPOINT


def test_charsum_checkpoint_of_ordered_pairs_is_refused(tmp_path, capsys):
    cp = tmp_path / "old.ckpt"
    cp.write_text(CHARSUM_CHECKPOINT)
    out = tmp_path / "out.csv"
    argv = ["--threads", "1", "--chunk", "100", "--checkpoint", str(cp), "--out", str(out)]
    assert cli.main([*argv, "charsum", "--x", "2000", "--z", "10"]) == 2
    assert "different configuration" in capsys.readouterr().err
    assert not out.exists()
    assert cp.read_text() == CHARSUM_CHECKPOINT


MOMENT_RUNS = {
    "class": ["moment", "class", "--x", "300", "--k", "2", "--weight", "2^omega"],
    "selmer": ["moment", "selmer", "--x", "200", "--k", "2", "--curve", "0,1,2"],
}


@pytest.mark.parametrize("name", sorted(MOMENT_RUNS))
def test_moment_is_chunked_and_resumable(name, tmp_path):
    argv = MOMENT_RUNS[name]
    ref = tmp_path / "ref.csv"
    assert cli.main(["--out", str(ref), "--threads", "1", *argv]) == 0
    for chunk in ("1", "97", "2000"):
        out = tmp_path / f"chunk{chunk}.csv"
        assert cli.main(["--out", str(out), "--threads", "2", "--chunk", chunk, *argv]) == 0
        assert out.read_bytes() == ref.read_bytes(), chunk
    for threads in ("1", "2"):
        cp = tmp_path / f"run{threads}.ckpt"
        out = tmp_path / f"resumed{threads}.csv"
        base = ["--out", str(out), "--checkpoint", str(cp), "--threads", threads, "--chunk", "40"]
        assert cli.main([*base, "--max-chunks", "2", *argv]) == 0
        assert not out.exists()
        assert sum(ln.startswith("chunk.") for ln in cp.read_text().splitlines()) == 2
        assert cli.main([*base, *argv]) == 0
        assert out.read_bytes() == ref.read_bytes(), threads


def test_sweeps_do_not_call_class_group(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("class_group called from a sweep")

    monkeypatch.setattr(quadforms, "class_group", refuse)
    base = ["--threads", "1", "--chunk", "300", "--out", str(tmp_path / "out.csv")]
    for sign in ("neg", "pos"):
        assert cli.main([*base, "experiment", "t12", "--x-list", "500,700", "--sign", sign, "--k", "2"]) == 0
        assert cli.main([*base, "density", "h3level", "--x", "700", "--m", "3", "--sign", sign]) == 0
    assert cli.main([*base, "verify", "redei", "--dmax", "700", "--sign", "both", "--dmax-pos", "700"]) == 0
    # the classgroup worker reads invariants off the same tabulation
    assert cli.main([*base, "classgroup", "--dmax", "50"]) == 0


def test_checkpoint_with_unfinished_earlier_section_is_refused(tmp_path, capsys):
    argv, _ = MULTI_PHASE["redei-both"]
    cp = tmp_path / "run.ckpt"
    base = ["--threads", "1", "--checkpoint", str(cp), "--out", str(tmp_path / "out.csv")]
    assert cli.main([*base, *argv]) == 0
    lines = cp.read_text().splitlines()
    assert sum(ln.startswith("config=") for ln in lines) == 2
    # drop a chunk of the first section: recomputing it would append its line
    # to the second section
    del lines[next(i for i, ln in enumerate(lines) if ln.startswith("chunk."))]
    cp.write_text("\n".join(lines) + "\n")
    assert cli.main([*base, *argv]) == 2
    assert "unfinished section" in capsys.readouterr().err


def test_negative_max_chunks_is_usage_error(capsys):
    code = cli.main(["--threads", "1", "--max-chunks", "-1", "experiment", "t12", "--x-list", "300"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err
