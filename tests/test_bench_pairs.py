"""The pairing tool's verdicts leave out runs whose outputs were wrong."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRIC = {"name": "trials_per_s", "better": "higher", "bound": 0.15}


def run(pair, side, value, **result):
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"trials_per_s": {"value": value}}, **result}
    return {"workload": "tone_grid", "side": side, "seed": 100 + pair, "pair": pair,
            "trace": 0, "result": result}


def runs_with(bad_result: dict) -> list[dict]:
    """Ten pairs, the change 10% faster, except pair 3's change run, whose
    metrics would read far slower if they counted."""
    runs = []
    for pair in range(10):
        runs.append(run(pair, "parent", 100.0 + pair))
        runs.append(run(pair, "change", 110.0 + pair))
    runs[7]["result"] = {**runs[7]["result"], **bad_result}
    runs[7]["result"]["metrics"] = {"trials_per_s": {"value": 1.0}}
    return runs


@pytest.mark.parametrize("bad, why", [
    ({"correct": False}, "outputs incorrect"),
    ({"failed": 4}, "4 of 10 operations failed"),
])
def test_an_incorrect_run_is_left_out_with_its_pair_and_named(bad, why):
    runs = runs_with(bad)
    assert runs[7]["side"] == "change" and runs[7]["pair"] == 3
    got = bench_pairs.compare(runs, "tone_grid", METRIC)
    assert got["change_wins"] == "9/9"
    assert 103.0 not in got["parent_runs"] and 1.0 not in got["change_runs"]
    assert got["parent_runs"] == [100.0 + p for p in range(10) if p != 3]
    assert got["failed_runs"] == [f"change pair 3 (seed 103): {why}"]
    assert got["state"].startswith("better")
    text = bench_pairs.verdict({"trials_per_s": got})
    assert f"failed runs, left out with their pairs: change pair 3 (seed 103): {why}" in text


def test_a_run_that_errors_is_failed():
    runs = runs_with({})
    runs[7]["result"] = {"error": "Traceback ...", "returncode": 1}
    got = bench_pairs.compare(runs, "tone_grid", METRIC)
    assert got["change_wins"] == "9/9"
    assert got["failed_runs"] == ["change pair 3 (seed 103): error (exit 1)"]


def test_clean_runs_have_no_failures():
    runs = runs_with({})
    runs[7]["result"]["metrics"] = {"trials_per_s": {"value": 113.0}}
    got = bench_pairs.compare(runs, "tone_grid", METRIC)
    assert got["change_wins"] == "10/10" and got["failed_runs"] == []
    assert "failed runs" not in bench_pairs.verdict({"trials_per_s": got})
