"""End-to-end checks of the console entry point."""

import csv
import json

import pytest

import ncsync.runner
from ncsync.cli import main
from ncsync.scenario import load


def test_run_command_writes_outputs(tmp_path, capsys):
    rc = main(["run", "quick_demo", "--trials", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "results.csv").is_file()
    assert (tmp_path / "manifest.json").is_file()
    out = capsys.readouterr().out
    assert "quick_demo" in out and "results.csv" in out
    header = (tmp_path / "results.csv").read_text().splitlines()[0]
    assert header.startswith("snr_db,sir_db,algorithm")


def test_run_command_rejects_unknown_scenario(tmp_path, capsys):
    rc = main(["run", "definitely_missing", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_trace_command(tmp_path, capsys):
    rc = main(["trace", "quick_demo", "--cell", "20,0", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trace.csv").is_file()
    assert "windows" in capsys.readouterr().out

    rc = main(["trace", "quick_demo", "--cell", "nonsense", "--out", str(tmp_path)])
    assert rc == 2


def test_trace_command_writes_the_trace_of_a_run_trial(tmp_path, monkeypatch):
    scored = []
    compute_trace = ncsync.runner.compute_trace
    monkeypatch.setattr(ncsync.runner, "compute_trace",
                        lambda *args, **kw: scored.append(compute_trace(*args, **kw))
                        or scored[-1])
    assert main(["run", "quick_demo", "--trials", "2", "--out", str(tmp_path / "run")]) == 0
    sc = load("quick_demo")
    cells = [(snr, sir) for snr in sc.snr_grid for sir in sc.sir_grid]
    tr = scored[2 * cells.index((20.0, 0.0)) + 1]  # cell-major: trial 1 of cell (20, 0)
    assert main(["trace", "quick_demo", "--cell", "20,0", "--trial", "1",
                 "--out", str(tmp_path / "trace")]) == 0
    with open(tmp_path / "trace" / "trace.csv", newline="") as fh:
        header, *lines = csv.reader(fh)
    assert header == ["n", "g_re", "g_im", "m", "q_re", "q_im", "g_nirs_re", "g_nirs_im",
                      "metric_sc", "metric_nirs"]
    columns = (tr.n, tr.g.real, tr.g.imag, tr.m, tr.q.real, tr.q.imag, tr.g_nirs.real,
               tr.g_nirs.imag, tr.metric_sc, tr.metric_nirs)
    assert lines == [[str(n)] + ["%.10g" % v for v in values]
                     for n, *values in zip(*columns)]
    seeds = [json.loads((tmp_path / job / "manifest.json").read_text())["master_seed"]
             for job in ("run", "trace")]
    assert seeds == [sc.master_seed] * 2


def test_trace_command_names_a_negative_trial_index(tmp_path, capsys):
    rc = main(["trace", "quick_demo", "--cell", "20,0", "--trial", "-1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error: trial index must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("cell, name", [("20,-inf", "sir_db"), ("nan,0", "snr_db")])
def test_trace_command_names_a_nan_or_minus_inf_level(cell, name, tmp_path, capsys):
    rc = main(["trace", "quick_demo", "--cell", cell, "--out", str(tmp_path)])
    assert rc == 2
    assert f"error: {name} must be a number of dB or +inf" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_sweep_command(tmp_path):
    rc = main(["sweep-bandwidth", "nbi_bandwidth_sweep", "--bandwidths", "4000",
               "--trials", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "bandwidth_sweep.csv").is_file()


def test_sweep_command_rejects_a_repeated_bandwidth(tmp_path, capsys):
    rc = main(["sweep-bandwidth", "nbi_bandwidth_sweep", "--bandwidths", "4000", "4000",
               "--trials", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "error: repeated cells" in capsys.readouterr().err
    assert not (tmp_path / "bandwidth_sweep.csv").exists()


@pytest.mark.parametrize("command", [
    ["run"], ["sweep-bandwidth"], ["trace", "--cell", "20,0"]])
def test_a_negative_master_seed_in_the_file_is_named(command, tmp_path, capsys):
    ini = tmp_path / "neg.ini"
    ini.write_text(load("quick_demo").source_text.replace("master_seed = 30115",
                                                          "master_seed = -30115"))
    assert "-30115" in ini.read_text()
    rc = main([command[0], str(ini), *command[1:], "--out", str(tmp_path)])
    assert rc == 2
    assert "error: [run] master_seed must be >= 0, got -30115" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["neg.ini"]


@pytest.mark.parametrize("command, scenario", [
    ("run", "quick_demo"), ("sweep-bandwidth", "nbi_bandwidth_sweep")])
def test_a_negative_seed_flag_is_named(command, scenario, tmp_path, capsys):
    rc = main([command, scenario, "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_count_ops_matches_cost_table(capsys):
    rc = main(["count-ops"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "per-sample real-operation averages over 1000 counted samples (N = 256):\n"
        "algorithm   add/sub  mul/div   sqrt\n"
        "sc           10.000   10.000  0.000\n"
        "nirs         24.000   24.000  1.000\n"
        "cost table check: ok\n")


def test_count_ops_takes_no_sample_count():
    with pytest.raises(SystemExit) as exc:
        main(["count-ops", "--samples", "300"])
    assert exc.value.code == 2


def test_validate_appendix_self_checks(tmp_path, capsys):
    # default trial count: the notch-width ordering is statistical and the
    # smallest ratios sit close together, so undersized runs can tie
    rc = main(["validate-appendix", "--grids", "3", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 4 and "FAIL" not in out
    assert (tmp_path / "notch_study.csv").is_file()


@pytest.mark.parametrize("flag", ["--grids", "--trials"])
def test_validate_appendix_rejects_fewer_than_one_grid_or_trial(flag, tmp_path, capsys):
    rc = main(["validate-appendix", flag, "0", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"error: {flag} must be >= 1, got 0" in captured.err
    assert "PASS" not in captured.out
    assert not (tmp_path / "notch_study.csv").exists()


def test_validate_appendix_rejects_a_negative_seed(tmp_path, capsys):
    rc = main(["validate-appendix", "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: --seed must be >= 0, got -1" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("sir", ["nan", "-inf"])
def test_validate_appendix_rejects_a_sir_without_meaning(sir, tmp_path, capsys):
    rc = main(["validate-appendix", f"--sir={sir}", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"error: --sir must be a number of dB or +inf (term off), got {sir}" in captured.err
    assert "PASS" not in captured.out
    assert not (tmp_path / "notch_study.csv").exists()


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main([])
