"""The three workloads: inputs made from the seed, timed rounds, checks.

Each workload runs whole rounds of the same operations.  Round r draws its
randomness from SeedSequence((seed, r)), so a seed fixes every round's
inputs however many rounds fit in the run.  An operation is one frame
synchronized by both detectors and scored: a Monte-Carlo trial in
tone_grid and trace_pct, a frame slot of the capture in capture_scan.

check_round runs after every round and final_check once at the end; both
return failure messages.  What the program produced is compared with the
direct-sum reference in reference.py: tone_grid and trace_pct re-run
round 0 with recording wrappers in final_check, capture_scan checks its
round-0 outputs in check_round.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import (check_detection, check_outcome, check_trace,
                       is_sync_error, reference_sums, sample_indices)
from tracer import patched


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence((seed, r)).generate_state(1)[0])


class Recorder:
    """Keeps, per run_trial, the received buffer, trace, detections and scores.

    Installed with tracer.patched(recorder.targets()); each compute_trace call
    from the runner opens a new trial record.
    """

    def __init__(self):
        self.trials: list[dict] = []

    def targets(self):
        trials = self.trials

        def on_trace(fn):
            def wrapper(r, n_fft, with_nirs=True):
                trace = fn(r, n_fft, with_nirs=with_nirs)
                trials.append({"r": r, "n_fft": n_fft, "trace": trace,
                               "results": [], "scores": []})
                return trace
            return wrapper

        def on_detect(fn):
            def wrapper(*args, **kwargs):
                res = fn(*args, **kwargs)
                trials[-1]["results"].append(res)
                return res
            return wrapper

        def on_classify(fn):
            def wrapper(result, true_cfo, n_cp, *args, **kwargs):
                out = fn(result, true_cfo, n_cp, *args, **kwargs)
                trials[-1]["scores"].append((result, true_cfo, n_cp, out))
                return out
            return wrapper

        return [("ncsync.runner", "compute_trace", on_trace),
                ("ncsync.runner", "detect", on_detect),
                ("ncsync.runner", "classify", on_classify)]


def check_recorded_trial(rec: dict, timing_rule: str, rng: np.random.Generator,
                         label: str, full_detect: bool = True) -> list[str]:
    """One recorded trial against the reference: trace, detection, scores."""
    r, tr, n_fft = rec["r"], rec["trace"], rec["n_fft"]
    around = [int(np.argmax(tr.metric_nirs)), int(np.searchsorted(tr.n, 0))]
    idx = sample_indices(len(tr), rng, k=16, around=around)
    fails = check_trace(tr, r.samples, r.origin, n_fft, idx, label)
    if full_detect:
        fails += check_detection(rec["results"], r.samples, r.origin, n_fft, tr.n,
                                 timing_rule, label)
    for res, true_cfo, n_cp, out in rec["scores"]:
        fails += check_outcome(out, res, true_cfo, n_cp, label)
    return fails


@dataclasses.dataclass
class ToneGrid:
    """run_scenario on sync_error_ideal_tone, all 24 cells, few trials each."""

    trials_per_cell: int = 4
    name = "tone_grid"

    def setup(self, nc, seed: int, out_dir: Path):
        self.nc, self.seed, self.out_dir = nc, seed, out_dir
        self.sc = nc.scenario.load("sync_error_ideal_tone")
        self.cells = [(s, i) for s in self.sc.snr_grid for i in self.sc.sir_grid]
        self.ops_per_round = len(self.cells) * self.trials_per_cell
        self.cells_per_round = len(self.cells)
        self.hard = {"sc": [0, 0], "nirs": [0, 0]}  # [errors, trials]
        self.round0 = None
        out_dir.mkdir(parents=True, exist_ok=True)

    def run_round(self, r: int):
        rows = self.nc.runner.run_scenario(self.sc, out_dir=self.out_dir,
                                           trials=self.trials_per_cell,
                                           seed=round_seed(self.seed, r))
        return rows, {}

    def check_round(self, r: int, rows: list[dict]) -> list[str]:
        if r == 0:
            self.round0 = rows
        k, algos = self.trials_per_cell, self.sc.algorithms
        want = [(s, i, a) for s, i in self.cells for a in algos]
        got = [(row["snr_db"], row["sir_db"], row["algorithm"]) for row in rows]
        if got != want:
            return [f"round {r}: rows {got[:3]}... do not cover the grid"]
        fails = []
        for row in rows:
            if row["n_trials"] != k or not 0.0 <= row["p_sync_error"] <= 1.0:
                fails.append(f"round {r}: bad row {row}")
            if row["sir_db"] <= 0 and row["snr_db"] >= 12:
                tally = self.hard[row["algorithm"]]
                tally[0] += round(row["p_sync_error"] * k)
                tally[1] += k
        return fails

    def final_check(self, rng: np.random.Generator) -> list[str]:
        fails = []
        (sc_err, n), (nirs_err, _) = self.hard["sc"], self.hard["nirs"]
        # The paper's operating points: S&C locks onto the tone plateau,
        # NIRS cancels it.  Measured ~1.0 vs ~0.01 at these cells.
        if not (sc_err >= 0.5 * n and nirs_err <= 0.2 * sc_err):
            fails.append(f"at SIR <= 0 dB, SNR >= 12 dB: sc {sc_err}/{n} errors, "
                         f"nirs {nirs_err}/{n}; NIRS is not far below S&C")
        fails += self._check_files()
        rec = Recorder()
        with patched(rec.targets()):
            rows = self.nc.runner.run_scenario(self.sc, trials=self.trials_per_cell,
                                               seed=round_seed(self.seed, 0))
        if rows != self.round0:
            fails.append("re-running round 0 gives other rows")
        k, algos = self.trials_per_cell, self.sc.algorithms
        if len(rec.trials) != len(self.cells) * k:
            return fails + [f"recorded {len(rec.trials)} trials"]
        for c, (snr, sir) in enumerate(self.cells):
            trials = rec.trials[c * k:(c + 1) * k]
            for t, tr in enumerate(trials):
                fails += check_recorded_trial(tr, self.sc.timing_rule, rng,
                                              f"cell ({snr}, {sir}) trial {t}",
                                              full_detect=t == 0)
            for a, algo in enumerate(algos):
                scores = [tr["scores"][a] for tr in trials]
                errs = sum(is_sync_error(res.n_hat, res.nu_hat, cfo, n_cp)
                           for res, cfo, n_cp, _ in scores)
                mse = np.mean([res.n_hat ** 2 for res, *_ in scores])
                row = rows[c * len(algos) + a]
                if row["p_sync_error"] != errs / k or \
                        not np.isclose(row["mse_time_samples2"], mse, rtol=1e-12):
                    fails.append(f"cell ({snr}, {sir}) {algo}: row {row} does not "
                                 f"match {errs}/{k} reference verdicts")
        return fails

    def _check_files(self) -> list[str]:
        with open(self.out_dir / "results.csv", newline="") as fh:
            lines = list(csv.reader(fh))
        manifest = json.loads((self.out_dir / "manifest.json").read_text())
        want = len(self.cells) * len(self.sc.algorithms) + 1
        if len(lines) != want or lines[0][:3] != ["snr_db", "sir_db", "algorithm"]:
            return [f"results.csv has {len(lines)} lines, expected {want}"]
        if manifest["n_trials"] != self.trials_per_cell:
            return [f"manifest n_trials {manifest['n_trials']}"]
        return []


@dataclasses.dataclass
class TracePct:
    """emit_trace(percentiles=True) on sync_error_fm_28k at (20 dB, 0 dB)."""

    n_frames: int = 200
    full_detect_frames: int = 6
    name = "trace_pct"
    cell = (20.0, 0.0)

    def setup(self, nc, seed: int, out_dir: Path):
        self.nc, self.seed, self.out_dir = nc, seed, out_dir
        self.sc = nc.scenario.load("sync_error_fm_28k")
        self.ops_per_round = self.n_frames
        self.cells_per_round = 1
        self.round0 = None
        out_dir.mkdir(parents=True, exist_ok=True)

    def _scenario(self, r: int):
        return dataclasses.replace(self.sc, master_seed=round_seed(self.seed, r))

    def run_round(self, r: int):
        rows, _ = self.nc.runner.emit_trace(self._scenario(r), *self.cell,
                                            percentiles=True, n_frames=self.n_frames,
                                            out_dir=self.out_dir)
        return rows, {}

    def check_round(self, r: int, rows: list[dict]) -> list[str]:
        if r == 0:
            self.round0 = rows
        fails = []
        n = np.array([row["n"] for row in rows])
        spec = self.sc.frame
        if n.size < spec.frame_len or not np.array_equal(n, n[0] + np.arange(n.size)) \
                or n[0] != -(spec.n_empty_prefix * spec.symbol_len + spec.n_cp):
            return [f"round {r}: window axis {n[:3]}... of {n.size} is wrong"]
        for alg in ("sc", "nirs"):
            q = np.array([[row[f"metric_{alg}_p{p}"] for p in (10, 50, 90)]
                          for row in rows])
            if not (np.all(q[:, 0] <= q[:, 1]) and np.all(q[:, 1] <= q[:, 2])):
                fails.append(f"round {r}: {alg} percentiles out of order")
        p50 = np.array([row["metric_nirs_p50"] for row in rows])
        n_peak = int(n[np.argmax(p50)])
        if abs(n_peak) > spec.n_cp:
            fails.append(f"round {r}: NIRS median trajectory peaks at n={n_peak}")
        return fails

    def final_check(self, rng: np.random.Generator) -> list[str]:
        fails = []
        with open(self.out_dir / "trace_percentiles.csv", newline="") as fh:
            n_lines = sum(1 for _ in csv.reader(fh))
        if n_lines != len(self.round0) + 1:
            fails.append(f"trace_percentiles.csv has {n_lines} lines")
        rec = Recorder()
        with patched(rec.targets()):
            rows, _ = self.nc.runner.emit_trace(self._scenario(0), *self.cell,
                                                percentiles=True,
                                                n_frames=self.n_frames)
        if rows != self.round0:
            fails.append("re-running round 0 gives other rows")
        if len(rec.trials) != self.n_frames:
            return fails + [f"recorded {len(rec.trials)} frames"]
        for t, tr in enumerate(rec.trials):
            fails += check_recorded_trial(tr, self.sc.timing_rule, rng, f"frame {t}",
                                          full_detect=t < self.full_detect_frames)
        # Percentiles of the reference metrics at sampled windows.
        first = rec.trials[0]
        n_fft = first["n_fft"]
        idx = sample_indices(len(first["trace"]), rng, k=64,
                             around=[int(np.searchsorted(first["trace"].n, 0))])
        refs = [reference_sums(tr["r"].samples, n_fft, tr["trace"].n[idx] + tr["r"].origin)
                for tr in rec.trials]
        for alg in ("sc", "nirs"):
            want = np.percentile(np.vstack([ref[f"metric_{alg}"] for ref in refs]),
                                 [10, 50, 90], axis=0)
            got = np.array([[rows[i][f"metric_{alg}_p{p}"] for i in idx]
                            for p in (10, 50, 90)])
            if not np.allclose(got, want, rtol=1e-7, atol=1e-9):
                j = np.unravel_index(np.argmax(np.abs(got - want)), got.shape)
                fails.append(f"{alg} p{(10, 50, 90)[j[0]]} at n={rows[idx[j[1]]]['n']}: "
                             f"{got[j]:.9g}, reference {want[j]:.9g}")
        return fails


@dataclasses.dataclass
class CaptureScan:
    """One long capture of frames at known offsets under a constant tone.

    Set-up builds the capture with the package's own frame, channel, CFO,
    interferer and mixing functions.  A round computes the full metric trace
    (NIRS on), detects both modes in every frame slot and scores them,
    computes the S&C-only trace, then streams a fixed prefix through the
    sample-at-a-time correlator in both modes.
    """

    n_frames: int = 100
    stream_samples: int = 4096
    name = "capture_scan"
    full_detect_slots = 6
    timing_rule = "midpoint90"
    snr_db, sir_db = 20.0, 0.0

    def setup(self, nc, seed: int, out_dir: Path):
        self.nc, self.seed = nc, seed
        self.sc = nc.scenario.load("sync_error_ideal_tone")
        self.ops_per_round = self.n_frames
        self.cells_per_round = 1
        self.capture, self.slots = build_capture(nc, self.sc, self.n_frames,
                                                 self.snr_db, self.sir_db, seed)
        self.prefix = nc.ofdm.TimeSignal(self.capture.samples[:self.stream_samples], 0)
        self.round0 = None

    def run_round(self, r: int):
        nc, n_fft, n_cp = self.nc, self.sc.frame.n_fft, self.sc.frame.n_cp
        metrics, detect, evaluate = nc.metrics, nc.detect, nc.evaluate
        t0 = perf_counter()
        trace = metrics.compute_trace(self.capture, n_fft, with_nirs=True)
        results = {"sc": [], "nirs": []}
        outcomes = {"sc": [], "nirs": []}
        for a, b, origin, nu in self.slots:
            sub = slot_trace(nc, trace, a, b, origin)
            for mode in ("sc", "nirs"):
                res = detect.detect(sub, mode=mode, timing_rule=self.timing_rule)
                results[mode].append(res)
                outcomes[mode].append(evaluate.classify(res, nu, n_cp))
        stats = {mode: evaluate.aggregate(outcomes[mode]) for mode in outcomes}
        trace_sc = metrics.compute_trace(self.capture, n_fft, with_nirs=False)
        t1 = perf_counter()
        streams = {mode: nc.streaming.trace_from_stream(self.prefix, n_fft, mode=mode)
                   for mode in ("nirs", "sc")}
        t2 = perf_counter()
        out = {"results": results, "outcomes": outcomes, "stats": stats,
               "trace": trace, "trace_sc": trace_sc, "streams": streams}
        return out, {"scan": t1 - t0, "stream": t2 - t1}

    def check_round(self, r: int, out: dict) -> list[str]:
        detections = {mode: [(x.n_hat, x.nu_hat) for x in out["results"][mode]]
                      for mode in ("sc", "nirs")}
        if self.round0 is not None:
            same = detections == self.round0
            return [] if same else [f"round {r}: detections differ from round 0"]
        # Round 0 is checked against the reference here, outside the timed
        # window, and only its detections are kept: no trace outlives its
        # round to count in peak_rss_mb.
        self.round0 = detections
        # Real operations the streaming correlator counted, per mode.
        self.op_counts = {mode: (ops.add_sub + ops.mul_div + ops.sqrt, steps)
                          for mode, (_, ops, steps) in out["streams"].items()}
        return self._check_reference(out, np.random.default_rng((self.seed, 0xC4EC)))

    def final_check(self, rng: np.random.Generator) -> list[str]:
        return []

    def _check_reference(self, out: dict, rng: np.random.Generator) -> list[str]:
        nc = self.nc
        n_fft, n_cp = self.sc.frame.n_fft, self.sc.frame.n_cp
        x = self.capture.samples
        trace, trace_sc = out["trace"], out["trace_sc"]
        fails = []
        around = [origin for _, _, origin, _ in self.slots]
        idx = sample_indices(len(trace), rng, k=256, around=around)
        fails += check_trace(trace, x, 0, n_fft, idx, "capture trace")
        fails += check_trace(trace_sc, x, 0, n_fft, idx, "S&C-only trace")
        if trace_sc.q is not None:
            fails.append("S&C-only trace computed the NIRS branch")
        full = set(rng.choice(len(self.slots), size=min(self.full_detect_slots,
                                                          len(self.slots)), replace=False))
        for f, (a, b, origin, nu) in enumerate(self.slots):
            label = f"frame {f}"
            results = [out["results"][mode][f] for mode in ("sc", "nirs")]
            for mode, res in zip(("sc", "nirs"), results):
                fails += check_outcome(out["outcomes"][mode][f], res, nu, n_cp, label)
            if f in full:
                fails += check_detection(results, x, origin, n_fft,
                                         np.arange(a, b) - origin, self.timing_rule,
                                         label)
            res = out["results"]["nirs"][f]
            if abs(res.n_hat) > 2 * n_cp:
                fails.append(f"{label}: NIRS at n_hat {res.n_hat}, more than two "
                             f"cyclic prefixes from the truth")
        # Criterion 08's operating point: at 20 dB SNR, 0 dB SIR NIRS keeps
        # the frame (a few early locks just past the CP, ~5e-4 of frames)
        # while S&C locks onto the tone plateau.
        n_err = {m: sum(o.is_sync_error for o in out["outcomes"][m]) for m in ("sc", "nirs")}
        if n_err["nirs"] > 0.02 * len(self.slots) or n_err["sc"] < 0.9 * len(self.slots):
            fails.append(f"sync errors over {len(self.slots)} frames: nirs {n_err['nirs']}, "
                         f"sc {n_err['sc']}; expected nirs <= 2%, sc >= 90%")
        for mode, stats in out["stats"].items():
            errs = sum(o.is_sync_error for o in out["outcomes"][mode])
            if stats.n_trials != len(self.slots) or stats.p_sync_error != errs / len(self.slots):
                fails.append(f"{mode} aggregate {stats} for {errs} errors")
        cost = nc.streaming.COST_PER_SAMPLE
        for mode, (st, ops, steps) in out["streams"].items():
            label = f"stream {mode}"
            sidx = sample_indices(len(st), rng, k=64)
            fails += check_trace(st, self.prefix.samples, 0, n_fft, sidx, label)
            if steps != len(st) - 1 or \
                    (ops.add_sub, ops.mul_div, ops.sqrt) != tuple(c * steps for c in cost[mode]):
                fails.append(f"{label}: counters {ops} over {steps} steps, "
                             f"model {cost[mode]} per step")
        return fails


def build_capture(nc, sc, n_frames: int, snr_db: float, sir_db: float, seed: int):
    """Frames back to back with random gaps, one tone across all, and noise.

    Returns the received TimeSignal (origin 0) and per frame slot (first
    window, end window, buffer index of the frame's n = 0, true CFO).  Slot f
    holds the windows that start between frame f's first silent sample and
    frame f+1's, as run_trial's buffer holds them for a single frame.  SNR
    and SIR are set against the signal power over the frames' active parts.
    """
    ofdm, imp = nc.ofdm, nc.impairments
    spec = sc.frame
    n_fft, even = spec.n_fft, spec.smap.even_occupied().size
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xCA97)))
    pieces, frames, active = [], [], []
    pos = 0
    for _ in range(n_frames):
        grid = ofdm.SymbolGrid(spec)
        grid.data[0] = ofdm.preamble_from_bits(spec, rng.integers(0, 2, size=2 * even))
        for p in range(1, spec.n_symbols):
            grid.data[p] = ofdm.random_data_symbol(spec, rng)
        ch = imp.draw_channel_cost207tu(rng, spec.sample_rate_hz)
        nu = rng.uniform(-sc.cfo_max_norm, sc.cfo_max_norm)
        y = imp.apply_cfo(imp.apply_multipath(ofdm.build_frame(grid), ch), nu, n_fft)
        gap = int(rng.integers(0, spec.symbol_len))
        frames.append((pos, pos + y.origin, nu))
        active.append(np.arange(pos + spec.n_empty_prefix * spec.symbol_len, pos + len(y)))
        pieces += [y.samples, np.zeros(gap, dtype=np.complex128)]
        pos += len(y) + gap
    clean = ofdm.TimeSignal(np.concatenate(pieces), origin=0)
    nbi = imp.gen_nbi(sc.nbi_spec(phase0=rng.uniform(0.0, 2.0 * np.pi),
                                  freq_offset_hz=rng.uniform(-sc.nbi_offset_max_hz,
                                                             sc.nbi_offset_max_hz)),
                      pos, 0, n_fft, rng)
    # calibrate_and_mix measures power over one slice; shift the targets by
    # the ratio of whole-capture to active-part power to set them per frame.
    p_all = np.mean(np.abs(clean.samples) ** 2)
    p_active = np.mean(np.abs(clean.samples[np.concatenate(active)]) ** 2)
    shift = 10.0 * np.log10(p_all / p_active)
    mix = imp.calibrate_and_mix(clean, nbi, imp.MixSpec(snr_db + shift, sir_db + shift),
                                slice(None), rng)
    ends = [start for start, _, _ in frames[1:]] + [pos - n_fft + 1]
    slots = [(start, end, origin, nu) for (start, origin, nu), end in zip(frames, ends)]
    return mix.received, slots


def slot_trace(nc, trace, a: int, b: int, origin: int):
    """Windows [a, b) of a capture trace, indexed relative to a frame origin."""
    cut = slice(a, b)
    opt = (lambda v: None if v is None else v[cut])
    return nc.metrics.MetricTrace(n=trace.n[cut] - origin, g=trace.g[cut], m=trace.m[cut],
                                  metric_sc=trace.metric_sc[cut], q=opt(trace.q),
                                  g_nirs=opt(trace.g_nirs),
                                  metric_nirs=opt(trace.metric_nirs))


WORKLOADS = {w.name: w for w in (ToneGrid, TracePct, CaptureScan)}
