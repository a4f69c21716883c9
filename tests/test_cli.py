"""The command-line interface, end to end (in-process)."""

import io
import json
import pathlib
import shutil

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_apps_lists_the_five():
    code, text = run_cli("apps")
    assert code == 0
    for app in ("gromacs", "minife", "hpcg", "clamr", "lulesh"):
        assert app in text


def test_run_native():
    code, text = run_cli("run", "--app", "gromacs", "--ranks", "4",
                         "--nodes", "1", "--steps", "3", "--native")
    assert code == 0
    assert "native run: 4 ranks" in text


def test_run_mana():
    code, text = run_cli("run", "--app", "lulesh", "--ranks", "8",
                         "--nodes", "2", "--steps", "3")
    assert code == 0
    assert "MANA run: 8 ranks" in text


def test_run_adjusts_lulesh_ranks():
    code, text = run_cli("run", "--app", "lulesh", "--ranks", "10",
                         "--nodes", "2", "--steps", "2", "--native")
    assert code == 0
    assert "running 8 ranks" in text


def test_run_checkpoint_save_inspect_restart(tmp_path):
    ckpt_dir = str(tmp_path / "ckpt")
    code, text = run_cli(
        "run", "--app", "gromacs", "--ranks", "4", "--nodes", "2",
        "--steps", "6", "--checkpoint-at", "0.001", "--out", ckpt_dir,
    )
    assert code == 0
    assert "checkpoint at t=0.001" in text
    assert "saved to" in text

    code, text = run_cli("inspect", "--ckpt", ckpt_dir)
    assert code == 0
    info = json.loads(text)
    assert info["n_ranks"] == 4

    code, text = run_cli(
        "restart", "--ckpt", ckpt_dir, "--app", "gromacs", "--steps", "6",
        "--nodes", "4", "--net", "tcp", "--mpi", "openmpi",
        "--ranks-per-node", "1",
    )
    assert code == 0
    assert "restarted 4 ranks" in text
    assert "openmpi/tcp" in text


def test_verify_two_phase():
    code, text = run_cli("verify", "--ranks", "2", "--iters", "1")
    assert code == 0
    assert "OK" in text


def test_verify_naive_finds_violation():
    code, text = run_cli("verify", "--ranks", "2", "--iters", "1", "--naive")
    assert code == 0  # expected failure found => exit 0
    assert "no-rank-in-phase2-at-ckpt" in text
    assert "counterexample" in text


def test_bench_mem():
    code, text = run_cli("bench", "--figure", "mem")
    assert code == 0
    assert "26.000" in text


def test_bench_fig9():
    code, text = run_cli("bench", "--figure", "fig9")
    assert code == 0
    assert "OpenMPI/IB (2x4)" in text


def test_unknown_app_errors():
    with pytest.raises(ValueError):
        run_cli("run", "--app", "namd", "--native")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run_cli("frobnicate")


def test_trace_example_writes_valid_chrome_trace(tmp_path):
    from repro.obs import tracing_enabled, validate_chrome_trace

    out_path = tmp_path / "trace.json"
    code, text = run_cli("trace", "examples/quickstart.py",
                         "--out", str(out_path))
    assert code == 0
    assert "Perfetto" in text or "perfetto" in text
    doc = json.loads(out_path.read_text())
    validate_chrome_trace(doc)
    assert len(doc["traceEvents"]) > 0
    # the process-wide switch is restored even though the example ran
    assert not tracing_enabled()


def test_trace_app_with_checkpoint_and_metrics(tmp_path):
    from repro.obs import validate_chrome_trace

    out_path = tmp_path / "trace.json"
    code, text = run_cli("trace", "hpcg", "--ranks", "4", "--nodes", "2",
                         "--steps", "2", "--checkpoint-at", "0.05",
                         "--out", str(out_path), "--metrics")
    assert code == 0
    doc = json.loads(out_path.read_text())
    validate_chrome_trace(doc)
    names = {e["name"] for e in doc["traceEvents"]}
    assert "ckpt" in names and "ckpt:drain" in names
    assert "metrics: engine-1" in text
    assert "mpi.coll.ops" in text


def test_facility_run_and_json(tmp_path):
    report_path = tmp_path / "facility.json"
    code, text = run_cli("facility", "--mix", "tiny", "--n-jobs", "10",
                         "--nodes", "4", "--seed", "3",
                         "--show-jobs", "3", "--json", str(report_path))
    assert code == 0
    assert "facility summary" in text
    assert "node-hours lost" in text
    assert "job0000" in text  # the per-job table was printed
    doc = json.loads(report_path.read_text())
    assert doc["completed_jobs"] == 10
    assert doc["policy"] == "fifo"


def test_facility_sweep_table():
    code, text = run_cli("facility", "--sweep", "--n-jobs", "4",
                         "--nodes", "4", "--jobs", "1")
    assert code == 0
    assert "facility sweep" in text
    for token in ("backfill", "fifo", "tiny", "mixed", "priority"):
        assert token in text


CORPUS_SET = (pathlib.Path(__file__).parent / "mana" / "images"
              / "commchurn_v4")


def test_inspect_of_a_corrupt_set_is_a_one_line_error(tmp_path, capsys):
    directory = tmp_path / "ckpt"
    shutil.copytree(CORPUS_SET, directory)
    victim = directory / "rank_00001.img"
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(bytes(blob))
    code, _text = run_cli("inspect", "--ckpt", str(directory))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("repro: error: ") and "digest mismatch" in err
    assert err.count("\n") == 1


def test_run_out_over_another_rank_count_is_a_one_line_error(tmp_path,
                                                            capsys):
    directory = tmp_path / "ckpt"
    shutil.copytree(CORPUS_SET, directory)  # a 4-rank set
    code, _text = run_cli(
        "run", "--app", "gromacs", "--ranks", "2", "--nodes", "1",
        "--steps", "3", "--checkpoint-at", "0.001", "--out", str(directory),
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"repro: error: {directory} holds a 4-rank checkpoint, "
                   "not 2 ranks\n")
