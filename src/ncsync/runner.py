"""Monte-Carlo orchestration: trials, cells, and deterministic outputs.

Trial t's frame (bits, data, channel, CFO, raw noise, interferer) is drawn
from SeedSequence((master_seed, crc32(key), t)) in a fixed order; only the mix
sets its SNR and SIR.  A plan (the grid, or the bandwidth sweep) draws each
trial once from one plan-level key and scores it in all its cells (common
random numbers), so its cells are positively correlated, not independent.
Every detector sees the same frames, so algorithm comparisons are paired.
Runs repeat byte for byte; a cell run alone with its plan's key gives its rows.
A trace dump draws from the grid's key too, so trace trial t of a cell is the
frame a run at the scenario's master seed scored as trial t there.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import mmap
import zlib
from collections import Counter
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .detect import SyncResult, detect
from .evaluate import TrialOutcome, aggregate, ber_preamble, classify
from .impairments import (ChannelRealization, MixSpec, NbiSpec, apply_cfo, apply_multipath,
                          calibrate_and_mix, check_level_db, draw_channel_cost207tu,
                          gen_nbi, mean_power)
from .metrics import MetricTrace, compute_trace
from .ofdm import SymbolGrid, TimeSignal, build_frame, preamble_from_bits, random_data_symbol
from .scenario import Scenario
from .streaming import OpCounters, model_counters

# Trial indices a plan draws at once (~200 KB each); no row depends on it.
_BLOCK = 64
# The key of the grid's frames, which `run_scenario` scores and `emit_trace` dumps.
_GRID_KEY = "grid"


def trial_rng(master_seed: int, cell_key: str, trial: int) -> np.random.Generator:
    """Deterministic, stream-disjoint generator for one trial of one key."""
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, zlib.crc32(cell_key.encode()), trial)))


@dataclass
class TrialRecord:
    """Everything one trial produced, per algorithm."""

    true_cfo: float
    results: dict[str, SyncResult]
    outcomes: dict[str, TrialOutcome]
    ops: dict[str, OpCounters]
    trace: MetricTrace | None = None


@dataclass
class Realization:
    """A frame `_draw`n up to the mix and the powers its mixes scale to; its
    first scoring sets `h` (even bins)."""

    y: TimeSignal  # after channel and CFO
    nbi: TimeSignal  # unit envelope of the interferer `nbi_of`
    noise: np.ndarray  # raw unit complex Gaussian draw
    active: slice  # the frame after its silence, where the mix measures powers
    powers: tuple[float, float]  # mean powers of y and noise over `active`
    bits: np.ndarray
    ch: ChannelRealization
    nu: float
    nbi_of: NbiSpec  # the scenario interferer `nbi` was built for
    nbi_state: dict  # the generator's state after the noise, where `_interferer` starts
    h: np.ndarray | None = None


def _draw(sc: Scenario, rng: np.random.Generator) -> Realization:
    """One frame through the impairment chain, before the mix.

    Draw order (fixed for reproducibility, and written only here and in
    `_interferer`): preamble bits, data symbols, channel, CFO, noise (drawn
    at every SNR), interferer offset and phases, after which nothing is
    drawn.  Detectors consume no randomness, so a realization does not
    depend on what is done with it.
    """
    spec = sc.frame
    bits = rng.integers(0, 2, size=2 * spec.smap.even_occupied().size)
    grid = SymbolGrid(spec)
    grid.data[0] = preamble_from_bits(spec, bits)
    grid.data[1:] = random_data_symbol(spec, rng, spec.n_symbols - 1)
    frame = build_frame(grid)

    if sc.channel_model == "flat":
        ch = ChannelRealization(np.ones(1, dtype=np.complex128))
    else:
        ch = draw_channel_cost207tu(rng, spec.sample_rate_hz)
    y = apply_multipath(frame, ch)

    nu = rng.uniform(-sc.cfo_max_norm, sc.cfo_max_norm) if sc.cfo_max_norm else 0.0
    y_cfo = apply_cfo(y, nu, spec.n_fft)

    noise = rng.standard_normal(2 * len(y_cfo)).view(np.complex128)

    state = rng.bit_generator.state
    nbi = _interferer(sc, rng, y_cfo)
    active = slice(spec.n_empty_prefix * spec.symbol_len, None)
    powers = (mean_power(y_cfo.samples[active]), mean_power(noise[active]))
    return Realization(y_cfo, nbi, noise, active, powers, bits, ch, nu, sc.nbi, state)


def _interferer(sc: Scenario, rng: np.random.Generator, y: TimeSignal) -> TimeSignal:
    """`_draw`'s interferer step over y's buffer: offset, phase0, then `gen_nbi`."""
    offset = (rng.uniform(-sc.nbi_offset_max_hz, sc.nbi_offset_max_hz)
              if sc.nbi_offset_max_hz else 0.0)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    return gen_nbi(sc.nbi_spec(phase0=phase0, freq_offset_hz=offset),
                   len(y), y.origin, sc.frame.n_fft, rng)


def _receive(sc: Scenario, snr_db: float, sir_db: float,
             rng: np.random.Generator | Realization) -> tuple[TimeSignal, Realization]:
    """A frame, or one `_draw`n from `rng`, mixed: (received, frame)."""
    frame = rng if isinstance(rng, Realization) else _draw(sc, rng)
    # Re-run the draw's interferer step for sc's interferer; `is` spares the field compare.
    if frame.nbi_of is not sc.nbi and frame.nbi_of != sc.nbi:
        replay = np.random.Generator(np.random.PCG64())
        replay.bit_generator.state = frame.nbi_state
        frame.nbi, frame.nbi_of = _interferer(sc, replay, frame.y), sc.nbi
    mix = calibrate_and_mix(frame.y, frame.nbi, MixSpec(snr_db, sir_db), frame.active,
                            frame.noise, powers=frame.powers)
    return mix.received, frame


def run_trial(sc: Scenario, snr_db: float, sir_db: float,
              rng: np.random.Generator | Realization, keep_trace: bool = False) -> TrialRecord:
    """One frame realized by `_receive`, traced, then detected by every
    detector, demodulated in one `ber_preamble` pass and scored.  A trace dump
    (`emit_trace`) stops after the trace."""
    spec = sc.frame
    received, frame = _receive(sc, snr_db, sir_db, rng)
    trace = compute_trace(received, spec.n_fft, with_nirs="nirs" in sc.algorithms)
    counted = len(trace) - 1
    if frame.h is None:
        frame.h = frame.ch.freq_response(spec.smap.even_occupied(), spec.n_fft)
    results = {algo: detect(trace, mode=algo, timing_rule=sc.timing_rule)
               for algo in sc.algorithms}
    bers = ber_preamble(received, list(results.values()), frame.h, frame.bits, spec)
    outcomes = {algo: classify(res, frame.nu, spec.n_cp, *ber)
                for (algo, res), ber in zip(results.items(), bers)}
    return TrialRecord(true_cfo=frame.nu, results=results, outcomes=outcomes,
                       ops={algo: model_counters(algo, counted) for algo in sc.algorithms},
                       trace=trace if keep_trace else None)


def run_cell(sc: Scenario, snr_db: float, sir_db: float, n_trials: int,
             master_seed: int, cell_key: str, _drawn=None) -> dict[str, list[TrialOutcome]]:
    """Outcomes of trials 0 .. n_trials - 1 at one (SNR, SIR), per detector.
    `cell_key` names a realization stream, so a cell run with its plan's key
    gives the outcomes it has in the plan; a plan passes its frames as `_drawn`."""
    _at_least("trial count", n_trials, 1)
    _at_least("seed", master_seed, 0)
    frames = _drawn or (trial_rng(master_seed, cell_key, t) for t in range(n_trials))
    out: dict[str, list[TrialOutcome]] = {algo: [] for algo in sc.algorithms}
    for frame in frames:
        rec = run_trial(sc, snr_db, sir_db, frame)
        for algo in sc.algorithms:
            out[algo].append(rec.outcomes[algo])
    return out


RESULT_COLUMNS = ("snr_db", "sir_db", "algorithm", "nbi_kind", "p_sync_error",
                  "ci95_halfwidth", "mse_time_samples2", "mse_freq_sc2",
                  "ber_preamble", "n_trials")
SWEEP_COLUMNS = ("bandwidth_hz", "sir_db", "algorithm", "p_sync_error",
                 "ci95_halfwidth", "n_trials")


def _at_least(name: str, value: int, low: int) -> int:
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _run_plan(sc: Scenario, key: str, plan, columns: tuple[str, ...], trials: int | None,
              seed: int | None, out_dir: str | Path | None, fname: str) -> list[dict]:
    """Run a plan: cells of (scenario variant, SNR, SIR, leading columns).

    Trial t is drawn once, from trial_rng(seed, key, t) under the first cell's
    variant (others may differ in their interferer, the draw's last step), and
    each `_BLOCK` of trials is scored cell by cell.  Returns a row per cell
    and algorithm in plan order: `columns` of its leading columns, algorithm,
    interferer kind and statistics.  A negative seed or repeated cell fails first.
    """
    n_trials = _at_least("trial count", sc.n_trials if trials is None else trials, 1)
    leads = Counter(tuple(lead.values()) for *_, lead in plan)
    repeated = [lead for lead, count in leads.items() if count > 1]
    if repeated:
        raise ValueError(f"repeated cells {repeated}: a grid, SIR or bandwidth value "
                         f"is listed twice")
    master_seed = _at_least("seed", sc.master_seed if seed is None else seed, 0)
    per_cell = [[] for _ in plan]  # run_cell's outcomes, one dict per block
    for start in range(0, n_trials, _BLOCK):
        block = [_draw(plan[0][0], trial_rng(master_seed, key, t))
                 for t in range(start, min(start + _BLOCK, n_trials))]
        for (cell_sc, snr_db, sir_db, _), got in zip(plan, per_cell):
            got.append(run_cell(cell_sc, snr_db, sir_db, len(block), master_seed, key, block))
        del block  # free it before the next block is drawn
    rows: list[dict] = []
    for (cell_sc, *_, lead), got in zip(plan, per_cell):
        for algo in cell_sc.algorithms:
            stats = aggregate([out for outs in got for out in outs[algo]])
            row = {**lead, "algorithm": algo, "nbi_kind": cell_sc.nbi.kind,
                   "p_sync_error": stats.p_sync_error, "ci95_halfwidth": stats.ci_halfwidth,
                   "mse_time_samples2": stats.mse_time, "mse_freq_sc2": stats.mse_freq,
                   "ber_preamble": stats.ber, "n_trials": stats.n_trials}
            rows.append({col: row[col] for col in columns})
    _write_outputs(out_dir, fname, rows, sc, master_seed, n_trials)
    return rows


def _write_outputs(out_dir: str | Path | None, fname: str, rows: list[dict],
                   sc: Scenario, master_seed: int, n_trials: int):
    if out_dir is not None:
        out_dir = Path(out_dir)
        write_csv(out_dir / fname, rows)
        write_manifest(out_dir, sc, master_seed, n_trials, [fname])


def run_scenario(sc: Scenario, out_dir: str | Path | None = None,
                 trials: int | None = None, seed: int | None = None) -> list[dict]:
    """Run the whole grid, every cell on the frames drawn under the key "grid";
    returns result rows, optionally writing CSV+manifest."""
    plan = [(sc, snr_db, sir_db, {"snr_db": snr_db, "sir_db": sir_db})
            for snr_db in sc.snr_grid for sir_db in sc.sir_grid]
    return _run_plan(sc, _GRID_KEY, plan, RESULT_COLUMNS, trials, seed, out_dir, "results.csv")


def run_nbi_bandwidth_sweep(sc: Scenario, bandwidths_hz=None, sir_list=None,
                            snr_db: float = 20.0, out_dir: str | Path | None = None,
                            trials: int | None = None, seed: int | None = None) -> list[dict]:
    """Sweep the FM interferer's occupied bandwidth at fixed SNR.

    Each bandwidth runs the scenario's interferer as `fm` at that bandwidth
    (its f_c and f_m kept), whose deviation follows from Carson's rule,
    delta_f = bandwidth/2 - f_m, so bandwidths at or below 2 f_m are
    rejected.  They, an empty bandwidth or SIR list, a repeated bandwidth or
    SIR, and a NaN or -inf SNR or SIR are rejected before any trial runs.
    The scenario's own SNR grid and interferer kind are overridden.  Every
    bandwidth scores the frames of the key "sweep" with its own interferer.
    """
    bandwidths = tuple(bandwidths_hz if bandwidths_hz is not None
                       else sc.sweep_bandwidths_hz)
    if not bandwidths:
        raise ValueError("no bandwidths given (flag or [sweep] bandwidths_hz)")
    sirs = tuple(sir_list if sir_list is not None else sc.sir_grid)
    if not sirs:
        raise ValueError("no SIR values given (sir_list or [grid] sir_db)")
    check_level_db("snr_db", snr_db)
    check_level_db("sir_db", *sirs)
    plan = [(replace(sc, nbi=replace(sc.nbi, kind="fm", bandwidth_hz=bw)),
             snr_db, sir_db, {"bandwidth_hz": bw, "sir_db": sir_db})
            for bw in bandwidths for sir_db in sirs]
    return _run_plan(sc, "sweep", plan, SWEEP_COLUMNS, trials, seed, out_dir,
                     "bandwidth_sweep.csv")


def emit_trace(sc: Scenario, snr_db: float, sir_db: float, trial: int = 0,
               percentiles: bool = False, n_frames: int = 200,
               out_dir: str | Path | None = None) -> tuple[list[dict], str]:
    """Metric-trace dump for one cell.

    Single-trial mode emits the full per-window record of frame `trial`;
    percentile mode emits per-index 10th/50th/90th percentiles of both timing
    metrics over frames 0 .. n_frames - 1.  Frame t is the one `run_scenario`
    scores as trial t of this cell at sc.master_seed (the grid's key), so a run
    made with --seed X replays from a scenario whose master seed is X.  Each
    frame runs `_receive` and the metric trace only: no detection, BER or
    scoring.  Returns (rows, filename); rows hold Python ints and floats.
    """
    _at_least("trial index", trial, 0)
    if "nirs" not in sc.algorithms:
        raise ValueError("a trace dump needs nirs in [sync] algorithms")
    check_level_db("snr_db", snr_db)
    check_level_db("sir_db", sir_db)
    n_trials = _at_least("trial count", n_frames if percentiles else 1, 1)

    def frame_trace(t: int) -> MetricTrace:
        received, *_ = _receive(sc, snr_db, sir_db, trial_rng(sc.master_seed, _GRID_KEY, t))
        return compute_trace(received, sc.frame.n_fft)

    if percentiles:
        stack = None
        for t in range(n_frames):
            tr = frame_trace(t)
            if stack is None:
                stack = _mapped_empty((2, n_frames, len(tr)))
            stack[0, t] = tr.metric_sc
            stack[1, t] = tr.metric_nirs
        q = _frame_percentiles(stack)
        columns = {"n": tr.n}
        for a, algo in enumerate(("sc", "nirs")):
            for p, pct in enumerate((10, 50, 90)):
                columns[f"metric_{algo}_p{pct}"] = q[p, a]
        fname = "trace_percentiles.csv"
    else:
        tr = frame_trace(trial)
        columns = {"n": tr.n, "g_re": tr.g.real, "g_im": tr.g.imag, "m": tr.m,
                   "q_re": tr.q.real, "q_im": tr.q.imag,
                   "g_nirs_re": tr.g_nirs.real, "g_nirs_im": tr.g_nirs.imag,
                   "metric_sc": tr.metric_sc, "metric_nirs": tr.metric_nirs}
        fname = "trace.csv"
    names = tuple(columns)
    rows = [dict(zip(names, values))
            for values in zip(*(col.tolist() for col in columns.values()))]
    _write_outputs(out_dir, fname, rows, sc, sc.master_seed, n_trials)
    return rows, fname


def _mapped_empty(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array in its own private anonymous mapping, pre-faulted.

    Freeing it unmaps its pages.  A stack this large (12 MB for 200 frames)
    freed back into the heap would stay resident there, and a later
    allocation landing in its hole would make the next stack take new heap.
    Where mmap cannot pre-fault (outside Linux) the array comes from the heap.
    """
    if not hasattr(mmap, "MAP_POPULATE"):
        return np.empty(shape)
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE | mmap.MAP_POPULATE)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


def _frame_percentiles(stack: np.ndarray) -> np.ndarray:
    """10th/50th/90th percentiles, indexed (percentile, metric, window), of a
    (metric, frame, window) stack, which is sorted in place.

    Each is numpy's linear percentile, read off the sorted columns: the two
    order statistics around (n - 1) q blended as numpy blends them.  Sorting
    changes no bit of them (metrics never hold a -0.0 to swap with a tied 0.0).
    """
    stack.sort(axis=1)
    n, out = stack.shape[1], np.empty((3, stack.shape[0], stack.shape[2]))
    for p, at in enumerate((n - 1) * q for q in (0.1, 0.5, 0.9)):
        lo = math.floor(at)
        gamma, a, b = at - lo, stack[:, lo], stack[:, min(lo + 1, n - 1)]
        out[p] = a + (b - a) * gamma if gamma < 0.5 else b - (b - a) * (1 - gamma)
    return out


def write_csv(path: Path, rows: list[dict]):
    """Write rows with a fixed float format so identical runs give identical bytes.

    The bytes are csv.writer's over each value as `%.10g` if a float, str if not;
    a row is one `%` of its column types' format unless it may need quoting.
    """
    if not rows:
        raise ValueError(f"refusing to write empty CSV {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    header, formats = list(rows[0]), {}
    pick = itemgetter(*header) if len(header) > 1 else lambda row: (row[header[0]],)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for values in map(pick, rows):
            types = tuple(map(type, values))
            if types not in formats:
                formats[types] = ",".join("%.10g" if issubclass(t, float) else "%s"
                                          for t in types)
            line = formats[types] % values
            if line and line.isprintable() and '"' not in line and line.count(",") < len(header):
                fh.write(line + "\r\n")
            else:
                writer.writerow(["%.10g" % v if isinstance(v, float) else str(v)
                                 for v in values])


def write_manifest(out_dir: Path, sc: Scenario, master_seed: int,
                   n_trials: int, outputs: list[str]):
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "scenario": sc.name,
        "config_sha256": hashlib.sha256(sc.source_text.encode()).hexdigest(),
        "master_seed": master_seed,
        "n_trials": n_trials,
        "version": __version__,
        "outputs": outputs,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
