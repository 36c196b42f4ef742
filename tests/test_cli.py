import json
import os
import shlex
from pathlib import Path

import pytest

from amoments import arith, cli, density, moments, quadforms, selmer


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


def test_exit_code_io(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = cli.main(
        ["--out", str(target), "identity", "first-moment", "--x", "20"]
    )
    assert code == 3


def test_classgroup_cache(tmp_path, capsys):
    cache = tmp_path / "cls.tsv"
    code, out = run_cli(
        ["classgroup", "--dmax", "60", "--cache", str(cache)], capsys
    )
    assert code == 0
    assert "classgroup,-23,narrow=0,invariants=3,h=3" in out
    text = cache.read_text()
    assert "-23\t0\t3" in text
    # single lookups hit the cache file
    code, out = run_cli(["classgroup", "--delta", "-23", "--cache", str(cache)], capsys)
    assert code == 0
    assert "invariants=3,h=3" in out


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
    assert cli.split_ranges(1, 5, 2) == [(1, 2), (3, 4), (5, 5)]
    for chunk in (0, -3):
        with pytest.raises(ValueError):
            cli.split_ranges(1, 5, chunk)


@pytest.mark.parametrize("chunk", ["0", "-1"])
def test_nonpositive_chunk_is_usage_error(chunk, capsys):
    code = cli.main(["--threads", "1", "--chunk", chunk, "verify", "redei", "--dmax", "50"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_worker_value_error_is_usage_error(threads, capsys):
    # repeated roots are rejected inside the chunk worker
    code = cli.main(["--threads", threads, "verify", "selmer", "--tmax", "10", "--curve", "0,0,1"])
    assert code == 2
    assert "roots must be distinct" in capsys.readouterr().err


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

    monkeypatch.setattr(cli, "Pool", RecordingPool)
    # two phases of one chunk each: a one-process pool apiece
    argv = ["--threads", "3", "verify", "selmer", "--tmax", "30", "--descent-dmax", "20"]
    assert cli.main(argv) == 0
    assert asked == [1, 1]
    asked.clear()
    argv = ["--threads", "3", "--chunk", "150", "experiment", "t12", "--x-list", "300"]
    assert cli.main(argv) == 0
    assert asked == [2]
    # six pending chunks and a huge --threads: no more processes than cores
    asked.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["--threads", "100000", "--chunk", "50", "experiment", "t12", "--x-list", "300"]
    assert cli.main(argv) == 0
    assert asked == [2]


# (argv, --max-chunks that stops the first run inside its last phase)
MULTI_PHASE = {
    "redei-both": (
        ["--chunk", "100", "verify", "redei", "--dmax", "200", "--sign", "both", "--dmax-pos", "300"], 3
    ),
    "selmer-descent": (
        ["--chunk", "20", "verify", "selmer", "--tmax", "50", "--descent-dmax", "60", "--k", "1"], 4
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


# (argv and --max-chunks of the interrupted run, the changed option and its new value)
CHANGED = {
    "chunk": (["--chunk", "50", "experiment", "t12", "--x-list", "300"], 2, "--chunk", "100"),
    "dmax-pos": (*MULTI_PHASE["redei-both"], "--dmax-pos", "400"),
    "descent-k": (*MULTI_PHASE["selmer-descent"], "--k", "2"),
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
    ],
)
def test_bad_experiment_input_fails_before_sweep(argv, monkeypatch, capsys):
    started = []
    monkeypatch.setattr(cli, "run_chunks", lambda *args: started.append(args))
    assert cli.main(["--threads", "1", *argv]) == 2
    assert not started
    assert "usage error" in capsys.readouterr().err


def test_poly_text_is_not_run_as_code(tmp_path, capsys):
    target = tmp_path / "touched"
    assert cli.main(["density", "poly", "--poly", POLY_PAYLOAD.format(str(target))]) == 2
    assert not target.exists()
    assert "not a polynomial" in capsys.readouterr().err


def _report_csv(reports):
    return "\n".join([moments.CSV_HEADER] + [r.csv_row() for r in reports]) + "\n"


def _charsum_csv(rows):
    lines = ["quantity,scheme,X,z,sum,normalized"] + [
        f"charsum,{r['scheme']},{r['X']},{r['z']},{r['sum']},{r['normalized']:.15g}" for r in rows
    ]
    if rows[0]["fitted_exponent"] is not None:
        lines.append(f"charsum_fitted_exponent,{rows[0]['scheme']},{rows[0]['X']},,,{rows[0]['fitted_exponent']:.15g}")
    return "\n".join(lines) + "\n"


def _h3_csv(rep):
    x = rep["X"]
    return (
        "quantity,parameter,value\n"
        f"h3_sum,{x},{rep['sum_h3_minus_1']}\n"
        f"h3_fields,{x},{rep['fields']}\n"
        f"h3_prediction,{x},{float(rep['prediction']):.15g}\n"
        f"h3_ratio,{x},{rep['ratio']:.15g}\n"
    )


# (CLI argv with a --chunk that gives at least 3 chunks, library result as CSV)
AGAINST_LIBRARY = {
    "t12": (
        ["--chunk", "100", "experiment", "t12", "--x-list", "200,400", "--sign", "neg"],
        lambda: _report_csv(moments.theorem12_experiment([200, 400], 1, -1)),
    ),
    "t12-pos": (
        ["--chunk", "500", "experiment", "t12", "--x-list", "1000,1500", "--sign", "pos", "--k", "2"],
        lambda: _report_csv(moments.theorem12_experiment([1000, 1500], 2, 1)),
    ),
    "t11": (
        ["--chunk", "20", "experiment", "t11", "--poly", "t^2+1", "--curve", "0,1,2", "--b-list", "20,40"],
        lambda: _report_csv(
            moments.theorem11_experiment(
                density.poly_from_string("t^2+1"), selmer.CurveData(0, 1, 2), [20, 40], 1
            )
        ),
    ),
    "charsum-mu2": (
        ["--chunk", "300", "charsum", "--x", "20000", "--z", "10,20", "--scheme", "mu2"],
        lambda: _charsum_csv(moments.oscillation_experiment(20000, [10, 20], "mu2")),
    ),
    "charsum-tau": (
        ["--chunk", "100", "charsum", "--x", "5000", "--z", "5,9", "--scheme", "tau"],
        lambda: _charsum_csv(moments.oscillation_experiment(5000, [5, 9], "tau")),
    ),
    "h3level-neg": (
        ["--chunk", "500", "density", "h3level", "--x", "2000", "--m", "3", "--letters", "3:1", "--sign", "neg"],
        lambda: _h3_csv(density.h3_level_report(2000, 3, {3: 1}, -1)),
    ),
    "h3level-pos": (
        ["--chunk", "500", "density", "h3level", "--x", "2000", "--m", "3", "--letters", "3:-1", "--sign", "pos"],
        lambda: _h3_csv(density.h3_level_report(2000, 3, {3: -1}, 1)),
    ),
    "moment-selmer": (
        ["moment", "selmer", "--x", "80", "--k", "2", "--curve", "0,1,2"],
        lambda: _report_csv(
            [moments.weighted_moment_report(80, 2, moments.weight_by_name("one"), selmer.CurveData(0, 1, 2))]
        ),
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(AGAINST_LIBRARY))
def test_cli_equals_library(name, threads, tmp_path):
    argv, library_csv = AGAINST_LIBRARY[name]
    out = tmp_path / "out.csv"
    assert cli.main(["--out", str(out), "--threads", threads, *argv]) in (0, 1)
    assert out.read_text() == library_csv()


def test_sweeps_do_not_call_class_group(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("class_group called from a sweep")

    monkeypatch.setattr(quadforms, "class_group", refuse)
    monkeypatch.setattr(quadforms, "_class_group", refuse)
    base = ["--threads", "1", "--chunk", "300", "--out", str(tmp_path / "out.csv")]
    for sign in ("neg", "pos"):
        assert cli.main([*base, "experiment", "t12", "--x-list", "500,700", "--sign", sign, "--k", "2"]) == 0
        assert cli.main([*base, "density", "h3level", "--x", "700", "--m", "3", "--sign", sign]) == 0
    assert cli.main([*base, "verify", "redei", "--dmax", "700", "--sign", "both", "--dmax-pos", "700"]) == 0
    # the classgroup worker is the one chunk function that builds invariants
    with pytest.raises(RuntimeError, match="class_group called"):
        cli.main([*base, "classgroup", "--dmax", "50"])


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
