import json
import os

import pytest

from amoments import cli


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
