"""What the benchmark under perfbench/ relies on in the package.

perfbench times and records the runner from outside by swapping module
attributes, so renaming or dropping one of them breaks `--trace 1` and the
benchmark's reference checks without failing any other test.
"""

import importlib
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

import ncsync.runner
import ncsync.streaming
from ncsync.ofdm import TimeSignal
from ncsync.runner import run_scenario
from ncsync.scenario import load

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_span_resolves():
    for module, _, _ in tracer.ALL_SPANS:
        importlib.import_module(module)
    # patched() looks each attribute up as the tracer does and raises
    # KeyError for one that is gone.
    with tracer.patched([(m, a, lambda fn: fn) for m, a, _ in tracer.ALL_SPANS]):
        pass


def counting_runner_spans(called: Counter):
    """patched() targets that count each RUNNER_SPANS attribute's calls."""
    def counting(key):
        def make(fn):
            def wrapper(*args, **kwargs):
                called[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make
    return [(m, a, counting(a)) for m, a, _ in tracer.RUNNER_SPANS]


def test_every_runner_span_is_called(tmp_path):
    # Resolving is not enough: an entry point that routes around a name it
    # still imports leaves that name's per-layer figure silently at 0.
    # Calls go through the module, where the tracer swaps the names.
    sc = replace(load("quick_demo"), channel_model="cost207tu")
    called = Counter()
    runner = ncsync.runner
    with tracer.Tracer() as spans, tracer.patched(counting_runner_spans(called)):
        runner.run_scenario(sc, out_dir=tmp_path / "run", trials=1)
        runner.run_nbi_bandwidth_sweep(sc, bandwidths_hz=(4000.0,), sir_list=(0.0,),
                                       trials=1, out_dir=tmp_path / "sweep")
        runner.emit_trace(sc, 20.0, 0.0, out_dir=tmp_path / "trace")
        runner.emit_trace(sc, 20.0, 0.0, percentiles=True, n_frames=2,
                          out_dir=tmp_path / "pct")
    assert [a for _, a, _ in tracer.RUNNER_SPANS if not called[a]] == []
    assert [s for _, _, s in tracer.RUNNER_SPANS if not spans.calls[s]] == []


def test_one_mix_and_trace_per_cell_trial_and_one_aggregate_per_cell_algorithm():
    # The tracer's impairments.mix and metrics.trace figures are per trial and
    # evaluate.aggregate's per cell: a plan that mixed or traced a frame twice
    # in a cell, or aggregated a cell twice, would misstate them.
    sc = load("sync_error_ideal_tone")
    trials = 2
    called = Counter()
    with tracer.patched(counting_runner_spans(called)):
        ncsync.runner.run_scenario(sc, trials=trials, seed=3)
    n_cells = len(sc.snr_grid) * len(sc.sir_grid)
    assert called["calibrate_and_mix"] == called["compute_trace"] == n_cells * trials
    assert called["aggregate"] == n_cells * len(sc.algorithms)


def test_recorder_sees_every_trial():
    sc = load("quick_demo")
    trials = 2
    rec = workloads.Recorder()
    with tracer.patched(rec.targets()):
        rows = run_scenario(sc, trials=trials, seed=11)
    assert rows == run_scenario(sc, trials=trials, seed=11)
    n_cells = len(sc.snr_grid) * len(sc.sir_grid)
    assert len(rec.trials) == n_cells * trials
    for trial in rec.trials:
        assert len(trial["trace"]) == len(trial["r"]) - trial["n_fft"] + 1
        assert [res.mode for res in trial["results"]] == list(sc.algorithms)
        assert [res for res, *_ in trial["scores"]] == trial["results"]


def test_trace_dumps_record_one_trace_per_frame_and_no_scoring():
    # A trace dump computes the trace only.  Its frames still reach
    # compute_trace through the runner's name, once each, so the Recorder
    # and the metrics.trace span see every frame of trace_pct.
    sc = replace(load("sync_error_fm_28k"), channel_model="cost207tu")
    n_frames = 3
    rec = workloads.Recorder()
    called = Counter()
    runner = ncsync.runner
    with tracer.patched(rec.targets()), tracer.patched(counting_runner_spans(called)):
        runner.emit_trace(sc, 20.0, 0.0, trial=2)
        runner.emit_trace(sc, 20.0, 0.0, percentiles=True, n_frames=n_frames)
    assert len(rec.trials) == called["compute_trace"] == 1 + n_frames
    assert all(t["results"] == [] and t["scores"] == [] for t in rec.trials)
    skipped = ("detect", "ber_preamble", "classify", "model_counters",
               "ChannelRealization.freq_response")
    assert {a: called[a] for a in skipped} == dict.fromkeys(skipped, 0)
    assert called["run_trial"] == 0


def test_streaming_push_span_steps_and_counters():
    # capture_scan times trace_from_stream as the streaming.push span and
    # checks its steps and counters against the cost table; the batch
    # kernel it runs on must not show up as a nested metrics.trace span.
    rng = np.random.default_rng(5)
    sig = TimeSignal(rng.standard_normal(2 * 600).view(np.complex128), origin=0)
    cost = ncsync.streaming.COST_PER_SAMPLE
    with tracer.Tracer() as spans:
        for mode in ("nirs", "sc"):
            trace, ops, steps = ncsync.streaming.trace_from_stream(sig, 256, mode=mode)
            assert steps == len(trace) - 1
            assert (ops.add_sub, ops.mul_div, ops.sqrt) == tuple(c * steps for c in cost[mode])
    assert spans.calls["streaming.push"] == 2
    assert spans.samples["streaming.push.nirs"] == spans.samples["streaming.push.sc"] == 600
    assert "metrics.trace" not in spans.calls
