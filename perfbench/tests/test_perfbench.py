"""Benchmark self-tests: each workload at a tiny size, and each check
rejecting a deliberately corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from reference import (allowed_indices, check_detection, check_outcome,
                       check_trace, reference_sums, sample_indices)
from tracer import Tracer, patched
from workloads import CaptureScan, ToneGrid, TracePct

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(kind, tmp_path, **size):
    w = kind(**size)
    w.setup(run.fresh_import(), 5, tmp_path / w.name)
    return w


def run_checked(w, rounds=2):
    fails = []
    for r in range(rounds):
        out, _ = w.run_round(r)
        fails += w.check_round(r, out)
    return fails + w.final_check(np.random.default_rng(0))


def corrupting(transform):
    """Wrapper factory: pass the wrapped function's result through transform."""
    def make(fn):
        def wrapper(*args, **kwargs):
            return transform(fn(*args, **kwargs))
        return wrapper
    return make


@pytest.fixture(scope="module")
def frame():
    """One received buffer with its trace and both detections."""
    nc = run.fresh_import()
    sc = nc.scenario.load("sync_error_ideal_tone")
    recorded = []

    def keep(fn):
        def wrapper(r, n_fft, with_nirs=True):
            recorded.append(r)
            return fn(r, n_fft, with_nirs=with_nirs)
        return wrapper

    with patched([("ncsync.runner", "compute_trace", keep)]):
        rec = nc.runner.run_trial(sc, 20.0, 0.0, nc.runner.trial_rng(1, "t", 0),
                                  keep_trace=True)
    return sc, recorded[0], rec


# --- the reference itself -------------------------------------------------

def test_reference_matches_definition_on_a_small_buffer():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    n_fft, n = 16, 5
    ref = reference_sums(x, n_fft, [n])
    g = sum(np.conj(x[n + m]) * x[n + m + 8] for m in range(8))
    m_ = sum(abs(x[n + m + 8]) ** 2 for m in range(8))
    q = 0.5 * sum(np.conj(x[n + m]) * x[n + m + 4] + 2 * np.conj(x[n + m + 4]) * x[n + m + 8]
                  + np.conj(x[n + m + 8]) * x[n + m + 12] for m in range(4))
    assert np.isclose(ref["g"][0], g) and np.isclose(ref["m"][0], m_)
    assert np.isclose(ref["q"][0], q)
    assert np.isclose(ref["g_nirs"][0], g - q * q / abs(q))


def test_allowed_indices_follow_the_timing_rules():
    metric = np.array([0.0, 0.5, 0.95, 1.0, 0.92, 0.91, 0.2])
    assert allowed_indices(metric, "argmax") == {3}
    assert allowed_indices(metric, "midpoint90") == {(2 + 5) // 2}


# --- checks reject corrupted outputs --------------------------------------

def test_trace_check_rejects_a_perturbed_trace(frame):
    sc, r, rec = frame
    tr, n_fft = rec.trace, sc.frame.n_fft
    idx = sample_indices(len(tr), np.random.default_rng(0), around=[int(np.argmax(tr.metric_nirs))])
    assert check_trace(tr, r.samples, r.origin, n_fft, idx, "ok") == []
    for field in ("g", "m", "q", "metric_nirs"):
        bad = getattr(tr, field).copy()
        bad[idx[len(idx) // 2]] *= 1 + 1e-5
        assert check_trace(dataclasses.replace(tr, **{field: bad}), r.samples, r.origin,
                           n_fft, idx, "bad"), field


def test_detection_check_rejects_a_shifted_n_hat_or_nu_hat(frame):
    sc, r, rec = frame
    results = list(rec.results.values())
    args = (r.samples, r.origin, sc.frame.n_fft, rec.trace.n, sc.timing_rule, "t")
    assert check_detection(results, *args) == []
    nirs = rec.results["nirs"]
    assert check_detection([dataclasses.replace(nirs, n_hat=nirs.n_hat + 1)], *args)
    assert check_detection([dataclasses.replace(nirs, nu_hat=nirs.nu_hat + 1e-3)], *args)


def test_outcome_check_rejects_a_flipped_verdict(frame):
    sc, _, rec = frame
    res, out = rec.results["sc"], rec.outcomes["sc"]
    assert check_outcome(out, res, rec.true_cfo, sc.frame.n_cp, "t") == []
    flipped = dataclasses.replace(out, is_sync_error=not out.is_sync_error)
    assert check_outcome(flipped, res, rec.true_cfo, sc.frame.n_cp, "t")


# --- workloads at a tiny size ---------------------------------------------

def test_tone_grid_tiny_passes_and_rejects_corruption(tmp_path):
    w = tiny(ToneGrid, tmp_path, trials_per_cell=1)
    assert run_checked(w) == []

    rows, _ = w.run_round(0)
    assert w.check_round(0, [dict(rows[0], p_sync_error=1.5)] + rows[1:])
    assert w.check_round(0, [dict(rows[0], n_trials=2)] + rows[1:])

    shifted = corrupting(lambda res: dataclasses.replace(res, n_hat=res.n_hat + 2))
    w = tiny(ToneGrid, tmp_path, trials_per_cell=1)
    with patched([("ncsync.runner", "detect", shifted)]):
        assert run_checked(w, rounds=1)


def test_tone_grid_rejects_wrong_verdicts(tmp_path):
    flip = corrupting(lambda o: dataclasses.replace(o, is_sync_error=not o.is_sync_error))
    w = tiny(ToneGrid, tmp_path, trials_per_cell=1)
    with patched([("ncsync.runner", "classify", flip)]):
        fails = run_checked(w, rounds=1)
    assert any("verdict" in f for f in fails)
    assert any("not far below" in f for f in fails)


def test_trace_pct_tiny_passes_and_rejects_corruption(tmp_path):
    w = tiny(TracePct, tmp_path, n_frames=4, full_detect_frames=1)
    assert run_checked(w) == []

    rows, _ = w.run_round(0)
    swapped = [dict(row, metric_sc_p10=row["metric_sc_p90"] + 1.0) for row in rows]
    assert w.check_round(0, swapped)
    shifted = [dict(row, metric_nirs_p50=rows[-1 - i]["metric_nirs_p50"])
               for i, row in enumerate(rows)]
    assert w.check_round(0, shifted)

    def scale_p50(result):
        rows, fname = result
        return [dict(row, metric_nirs_p50=row["metric_nirs_p50"] * 1.001)
                for row in rows], fname

    w = tiny(TracePct, tmp_path, n_frames=4, full_detect_frames=1)
    with patched([("ncsync.runner", "emit_trace", corrupting(scale_p50))]):
        fails = run_checked(w, rounds=1)
    assert any("nirs p50" in f for f in fails)


def test_capture_scan_tiny_passes_and_rejects_corruption(tmp_path):
    size = dict(n_frames=4, stream_samples=600)
    assert run_checked(tiny(CaptureScan, tmp_path, **size)) == []

    cases = [
        ("ncsync.metrics", "compute_trace",
         lambda tr: dataclasses.replace(tr, m=tr.m * (1 + 1e-6)), "capture trace"),
        ("ncsync.metrics", "compute_trace",
         lambda tr: tr if tr.q is not None else dataclasses.replace(tr, g=tr.g * (1 + 1e-6)),
         "S&C-only trace"),
        ("ncsync.detect", "detect",
         lambda res: dataclasses.replace(res, n_hat=res.n_hat - 1), "n_hat"),
        ("ncsync.streaming", "trace_from_stream",
         lambda out: (out[0], dataclasses.replace(out[1], sqrt=out[1].sqrt + 1), out[2]),
         "counters"),
    ]
    for module, attr, transform, needle in cases:
        w = tiny(CaptureScan, tmp_path, **size)
        with patched([(module, attr, corrupting(transform))]):
            fails = run_checked(w, rounds=1)
        assert any(needle in f for f in fails), (attr, fails)


def test_capture_slots_hold_the_inserted_frames(tmp_path):
    w = tiny(CaptureScan, tmp_path, n_frames=3, stream_samples=600)
    spec = w.sc.frame
    for (a, b, origin, nu), nxt in zip(w.slots, w.slots[1:] + [None]):
        assert origin - a == spec.n_empty_prefix * spec.symbol_len + spec.n_cp
        assert abs(nu) <= w.sc.cfo_max_norm
        assert nxt is None or b == nxt[0]
    assert w.slots[-1][1] == len(w.capture) - spec.n_fft + 1


# --- the tracer and the command -------------------------------------------

def test_tracer_restores_the_package_and_accounts_self_time(tmp_path):
    w = tiny(ToneGrid, tmp_path, trials_per_cell=1)
    before = w.nc.runner.run_trial
    with Tracer() as tracer:
        assert w.nc.runner.run_trial is not before
        w.run_round(0)
    assert w.nc.runner.run_trial is before
    assert tracer.calls["runner.trial_rng"] == w.ops_per_round
    assert tracer.calls["impairments.freq_response"] == 2 * w.ops_per_round
    children = sum(tracer.total_ns[s] for s in tracer.total_ns
                   if "." in s and s.count(".") == 1 and s not in
                   ("runner.run", "impairments.freq_response"))
    assert tracer.root_ns == pytest.approx(children + tracer.self_ns["runner.run"], rel=1e-9)


@pytest.mark.parametrize("workload,trace", [("tone_grid", 0), ("capture_scan", 1)])
def test_command_prints_every_declared_metric(workload, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "2", "--seconds", "0.2", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tone_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
