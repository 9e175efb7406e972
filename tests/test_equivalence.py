"""Vectorized hot-path code against the straightforward form it replaced.

Each property compares bit for bit (or index for index) with a plain
reference kept here, so the golden output hashes stay a consequence of
these identities rather than of the preset seeds they happen to use.
"""

import cmath
import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import ncsync.metrics
import ncsync.runner
from ncsync import (FrameSpec, MetricTrace, NoSignalError, SubcarrierMap, SymbolGrid,
                    SyncResult, TimeSignal, apply_cfo, build_frame, compute_trace, detect,
                    map_qpsk, modulate_symbol, random_data_symbol)
from ncsync.detect import TIMING_RULES, _plateau_midpoint
from ncsync.evaluate import AggregateStats, TrialOutcome, aggregate
from ncsync.impairments import (COST207_TU_DELAYS_US, COST207_TU_POWERS_DB, MixResult,
                                MixSpec, NbiSpec, calibrate_and_mix, carson_deviation_hz,
                                check_level_db, draw_channel_cost207tu, gen_nbi, mean_power)
from ncsync.runner import (_frame_percentiles, _receive, emit_trace, run_trial,
                           trial_rng, write_csv)
from ncsync.scenario import load, preset_names

SETTINGS = settings(max_examples=150, deadline=None)


def loop_plateau_midpoint(metric, i_peak):
    """The one-window-at-a-time walk _plateau_midpoint replaced."""
    thresh = 0.9 * metric[i_peak]
    lo = i_peak
    while lo > 0 and metric[lo - 1] >= thresh:
        lo -= 1
    hi = i_peak
    while hi < metric.size - 1 and metric[hi + 1] >= thresh:
        hi += 1
    return (lo + hi) // 2


def loop_random_data_symbol(spec, rng):
    """One data symbol as drawn before symbols were drawn as a stack."""
    occ = spec.smap.occupied_array()
    column = np.zeros(spec.n_fft, dtype=np.complex128)
    column[spec.smap.columns(occ)] = map_qpsk(rng.integers(0, 2, size=2 * occ.size))
    return column


@st.composite
def plateau_metrics(draw):
    """Non-negative metrics with a peak, values at exactly 0.9 of it, and
    plateaus that may run into either end of the trace."""
    size = draw(st.integers(1, 60))
    # Level 0.9 lands exactly on the threshold 0.9 * peak: a tie.
    levels = st.sampled_from([0.0, 0.5, 0.89, 0.9, 0.95, 1.0])
    metric = np.array(draw(st.lists(levels, min_size=size, max_size=size)))
    peak = draw(st.floats(1e-300, 1e300))
    metric *= peak
    i_peak = draw(st.integers(0, size - 1))
    metric[i_peak] = peak
    for end in draw(st.sets(st.sampled_from(["lo", "hi"]))):
        run = draw(st.integers(0, size))
        cut = slice(0, run) if end == "lo" else slice(size - run, size)
        metric[cut] = np.maximum(metric[cut], 0.9 * peak)
    return metric, int(np.argmax(metric)) if draw(st.booleans()) else i_peak


@SETTINGS
@given(plateau_metrics())
def test_plateau_midpoint_matches_the_loop(case):
    metric, i_peak = case
    assert _plateau_midpoint(metric, i_peak) == loop_plateau_midpoint(metric, i_peak)


@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 80),
                  elements=st.floats(0.0, 1e6, allow_subnormal=True)),
       st.data())
def test_plateau_midpoint_matches_the_loop_on_any_trace(metric, data):
    i_peak = data.draw(st.integers(0, metric.size - 1))
    assert _plateau_midpoint(metric, i_peak) == loop_plateau_midpoint(metric, i_peak)


def frozen_plateau_midpoint(metric, i_peak):
    """_plateau_midpoint as it was: two flatnonzero passes."""
    outside = ~(metric >= 0.9 * metric[i_peak])
    before = np.flatnonzero(outside[:i_peak])
    after = np.flatnonzero(outside[i_peak + 1:])
    lo = int(before[-1]) + 1 if before.size else 0
    hi = i_peak + int(after[0]) if after.size else metric.size - 1
    return (lo + hi) // 2


@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 40),
                  elements=st.sampled_from([np.nan, -np.inf, -1.0, 0.0, 0.9, 1.0, np.inf])),
       st.data())
def test_plateau_midpoint_equals_the_frozen_one_at_any_peak(metric, data):
    # A NaN or negative value at i_peak fails its own threshold; the
    # outward scans must still stop where the two flatnonzero passes did.
    i_peak = data.draw(st.integers(0, metric.size - 1))
    with np.errstate(invalid="ignore"):
        assert _plateau_midpoint(metric, i_peak) == frozen_plateau_midpoint(metric, i_peak)


def frozen_detect(trace, mode="nirs", timing_rule="argmax"):
    """detect as it was: the energy scan first, then the peak, np.angle for the CFO."""
    if timing_rule not in TIMING_RULES:
        raise ValueError(f"unknown timing rule {timing_rule!r}")
    if len(trace) == 0:
        raise ValueError("empty metric trace")
    if not np.any(trace.m > 0):
        raise NoSignalError("energy normalizer is zero over the whole trace")
    metric = trace.metric(mode)
    i_peak = int(np.argmax(metric))
    idx = i_peak if timing_rule == "argmax" else frozen_plateau_midpoint(metric, i_peak)
    num = trace.numerator(mode)[idx]
    if not (math.isfinite(metric[i_peak]) and cmath.isfinite(num)):
        raise ValueError("non-finite metric or numerator")
    nu_hat = float(np.angle(num) / np.pi)
    return SyncResult(n_hat=int(trace.n[idx]), nu_hat=nu_hat,
                      peak_value=float(metric[i_peak]), mode=mode)


@st.composite
def metric_traces(draw):
    """Traces whose metric is 0 wherever M is (as compute_trace's are): all
    silent or not, with NaN and inf peaks, ties at exactly 0.9 of the peak,
    plateaus at either end, single windows, and NaN or inf numerators."""
    size = draw(st.one_of(st.just(1), st.integers(1, 40)))
    silent = draw(st.integers(0, 3)) == 0
    levels = st.sampled_from([0.0, 0.5, 0.89, 0.9, 0.95, 1.0, 1.0, np.nan, np.inf])
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    seeds = st.integers(0, 2**32 - 1)
    specials = st.sampled_from([0j, complex(-0.0, -0.0), complex(np.nan, 0.0),
                                complex(np.inf, 1.0), complex(0.0, -np.inf)])

    def metric():
        if silent:
            return np.zeros(size)
        return np.array(draw(st.lists(levels, min_size=size, max_size=size))) * scale

    def numerator():
        # Seeded Gaussian values: on hypothesis's own floats, and on unit
        # magnitudes, cmath.phase and numpy's arctan2 mostly agree.
        num = np.random.default_rng(draw(seeds)).standard_normal(2 * size).view(np.complex128)
        for i in draw(st.lists(st.integers(0, size - 1), max_size=3)):
            num[i] = draw(specials)
        return num

    metric_sc = metric()
    with_nirs = draw(st.booleans())
    metric_nirs = metric() if with_nirs else None
    energetic = metric_sc != 0
    if with_nirs:
        energetic |= metric_nirs != 0  # NaN counts: only M > 0 can give it
    spare = np.array(draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=size,
                                   max_size=size)))
    m = np.where(energetic, 1.0, 0.0 if silent else spare)
    g_nirs = numerator() if with_nirs else None
    trace = MetricTrace(n=np.arange(size) - draw(st.integers(0, size)), g=numerator(), m=m,
                        metric_sc=metric_sc, q=g_nirs, g_nirs=g_nirs, metric_nirs=metric_nirs)
    return trace, draw(st.sampled_from(("sc", "nirs") if with_nirs else ("sc",)))


def outcome(fn, *args):
    """repr of the result (exact for floats, -0.0 included), or the exception type."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(metric_traces(), st.sampled_from(TIMING_RULES))
def test_detect_equals_the_frozen_detect(case, timing_rule):
    trace, mode = case
    with np.errstate(invalid="ignore"):
        assert outcome(detect, trace, mode, timing_rule) == \
            outcome(frozen_detect, trace, mode, timing_rule)


def masked_divide_or_zero(num, den, nonzero):
    """The trace kernel's division as it ran for every buffer: masked, then filled."""
    np.divide(num, den, out=num, where=nonzero)
    np.copyto(num, 0.0, where=~nonzero)
    return num


@SETTINGS
@given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.booleans(), st.floats(-160, 160))
def test_trace_kernel_divides_as_its_masked_path(quarter, seed, silent, log_scale):
    # Without a silent stretch every M and |Q| is positive and the kernel
    # takes the unmasked divides; with one it keeps the masked path.
    n_fft = 4 * quarter
    rng = np.random.default_rng(seed)
    size = n_fft + int(rng.integers(0, 4 * n_fft))
    s = rng.standard_normal(2 * size).view(np.complex128) * 10.0 ** log_scale
    if silent:
        start = int(rng.integers(0, size))
        s[start:start + int(rng.integers(n_fft // 2, 2 * n_fft))] = 0
    r = TimeSignal(s, origin=int(rng.integers(0, size)))
    with np.errstate(over="ignore", invalid="ignore"):
        got = compute_trace(r, n_fft)
        with mock.patch.object(ncsync.metrics, "_divide_or_zero", masked_divide_or_zero):
            want = compute_trace(r, n_fft)
    for field in ("n", "g", "m", "metric_sc", "q", "g_nirs", "metric_nirs"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@st.composite
def frame_specs(draw):
    n_fft = 4 * draw(st.integers(2, 64))
    occupied = draw(st.sets(st.integers(-n_fft // 2, n_fft // 2 - 1), min_size=1))
    smap = SubcarrierMap(n_fft=n_fft, occupied=tuple(sorted(occupied)))
    return FrameSpec(smap=smap, n_cp=draw(st.integers(0, n_fft)),
                     n_symbols=draw(st.integers(1, 12)),
                     n_empty_prefix=draw(st.integers(0, 3)))


@SETTINGS
@given(frame_specs(), st.integers(0, 2**32 - 1))
def test_build_frame_equals_per_symbol_concatenation(spec, seed):
    rng = np.random.default_rng(seed)
    shape = (spec.n_symbols, spec.n_fft)
    grid = SymbolGrid(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    frame = build_frame(grid)
    want = np.concatenate(
        [np.zeros(spec.n_empty_prefix * spec.symbol_len, dtype=np.complex128)]
        + [modulate_symbol(row, spec).samples for row in grid.data])
    assert frame.origin == spec.n_empty_prefix * spec.symbol_len + spec.n_cp
    assert frame.samples.tobytes() == want.tobytes()


@SETTINGS
@given(frame_specs(), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_data_symbol_stack_equals_per_symbol_draws(spec, count, seed):
    stack_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = random_data_symbol(spec, stack_rng, count)
    want = np.zeros((count, spec.n_fft), dtype=np.complex128)
    for p in range(count):
        want[p] = loop_random_data_symbol(spec, loop_rng)
    assert stack.tobytes() == want.tobytes()
    # Both leave the generator at the same point in its stream.
    assert stack_rng.integers(0, 2**62) == loop_rng.integers(0, 2**62)
    single = random_data_symbol(spec, stack_rng)
    assert single.shape == (spec.n_fft,)
    assert single.tobytes() == loop_random_data_symbol(spec, loop_rng).tobytes()


TRACE_SCENARIO, TRACE_CELL = "sync_error_fm_28k", (20.0, 0.0)


def cell_traces(sc, trials):
    """The traces emit_trace reduces: the grid's trials, as a run draws them."""
    return [run_trial(sc, *TRACE_CELL, trial_rng(sc.master_seed, "grid", t),
                      keep_trace=True).trace for t in trials]


def stacked_percentile_rows(traces):
    """Percentile rows as built from per-frame lists and one np.vstack each."""
    sc_q = np.percentile(np.vstack([tr.metric_sc for tr in traces]), [10, 50, 90], axis=0)
    nirs_q = np.percentile(np.vstack([tr.metric_nirs for tr in traces]),
                           [10, 50, 90], axis=0)
    return [{"n": int(n),
             "metric_sc_p10": sc_q[0, i], "metric_sc_p50": sc_q[1, i],
             "metric_sc_p90": sc_q[2, i],
             "metric_nirs_p10": nirs_q[0, i], "metric_nirs_p50": nirs_q[1, i],
             "metric_nirs_p90": nirs_q[2, i]}
            for i, n in enumerate(traces[-1].n)]


def per_window_rows(tr):
    """Single-trace rows as built by indexing the trace one window at a time."""
    return [{"n": int(n),
             "g_re": tr.g[i].real, "g_im": tr.g[i].imag,
             "m": tr.m[i],
             "q_re": tr.q[i].real, "q_im": tr.q[i].imag,
             "g_nirs_re": tr.g_nirs[i].real, "g_nirs_im": tr.g_nirs[i].imag,
             "metric_sc": tr.metric_sc[i],
             "metric_nirs": tr.metric_nirs[i]}
            for i, n in enumerate(tr.n)]


def assert_same_rows(got, want, tmp_path):
    """Equal by ==, bit for bit (signed zeros included), and as CSV bytes."""
    assert got == want
    assert all(type(v) in (int, float) for row in got for v in row.values())
    assert np.array([list(r.values()) for r in got], dtype=np.float64).tobytes() == \
        np.array([list(r.values()) for r in want], dtype=np.float64).tobytes()
    write_csv(tmp_path / "got.csv", got)
    write_csv(tmp_path / "want.csv", want)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("n_frames", [1, 2, 3, 12, 37])
def test_percentile_rows_equal_the_stacked_reduction(n_frames, tmp_path):
    sc = load(TRACE_SCENARIO)
    rows, _ = emit_trace(sc, *TRACE_CELL, percentiles=True, n_frames=n_frames)
    assert_same_rows(rows, stacked_percentile_rows(cell_traces(sc, range(n_frames))),
                     tmp_path)


def test_single_trace_rows_equal_the_per_window_dicts(tmp_path):
    sc = load(TRACE_SCENARIO)
    rows, _ = emit_trace(sc, *TRACE_CELL, trial=1)
    assert_same_rows(rows, per_window_rows(cell_traces(sc, [1])[0]), tmp_path)


# Ties, exact zeros, and magnitudes across the double range, of either sign.
# No -0.0: it ties with 0.0 under sorting, so which zero reaches an order
# statistic depends on the algorithm; a metric is |num|^2 / M^2 or +0.0.
stack_elements = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                           st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.just(2), st.integers(1, 40), st.integers(1, 12)),
                  elements=stack_elements))
def test_sorted_stack_percentiles_equal_the_unsorted_ones(stack):
    want = [np.percentile(stack[k], [10, 50, 90], axis=0) for k in range(2)]
    got = _frame_percentiles(stack.copy())
    for k in range(2):
        assert got[:, k].tobytes() == want[k].tobytes()


def exp_apply_cfo(x, nu, n_fft):
    """The CFO as it was applied: a complex exp of a complex argument."""
    return TimeSignal(x.samples * np.exp(2j * np.pi * nu * x.n_axis() / n_fft),
                      origin=x.origin)


def loop_random_data_symbols(spec, rng, count=None):
    """random_data_symbol as it was: one bit draw per symbol."""
    if count is None:
        return loop_random_data_symbol(spec, rng)
    stack = np.zeros((count, spec.n_fft), dtype=np.complex128)
    for p in range(count):
        stack[p] = loop_random_data_symbol(spec, rng)
    return stack


sample_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-1e6, 1e6))


@SETTINGS
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 300), st.just(2)), elements=sample_parts),
       st.data(), st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5]), st.floats(-1e3, 1e3)),
       st.integers(1, 4096))
def test_real_phase_cfo_equals_the_complex_exp(parts, data, nu, n_fft):
    """apply_cfo against the complex exp it replaced, compared by value.

    The two phasors have the same bits but for the sign of an exact zero
    part, and so have the products: over 4000 random cases with zero samples
    and zero or signed-zero CFOs, 399 differed in the bytes and none in
    value.  In a realization the mix adds the interferer and noise terms,
    zeros included, which turns every -0.0 into 0.0, so the received buffer
    keeps its bytes (next test).
    """
    x = TimeSignal(parts.view(np.complex128).ravel(),
                   origin=data.draw(st.integers(0, parts.shape[0] - 1)))
    got, want = apply_cfo(x, nu, n_fft), exp_apply_cfo(x, nu, n_fft)
    assert got.origin == want.origin
    assert np.array_equal(got.samples, want.samples)


@pytest.mark.parametrize("name", preset_names())
@pytest.mark.parametrize("cell", [(20.0, 0.0), (np.inf, 10.0), (5.0, np.inf),
                                  (np.inf, np.inf)])
def test_received_buffer_equals_the_per_symbol_complex_exp_chain(name, cell, monkeypatch):
    sc = load(name)
    got = [_receive(sc, *cell, trial_rng(sc.master_seed, "eq", t))[0] for t in range(3)]
    monkeypatch.setattr(ncsync.runner, "random_data_symbol", loop_random_data_symbols)
    monkeypatch.setattr(ncsync.runner, "apply_cfo", exp_apply_cfo)
    for t, received in enumerate(got):
        want = _receive(sc, *cell, trial_rng(sc.master_seed, "eq", t))[0]
        assert received.origin == want.origin
        assert received.samples.tobytes() == want.samples.tobytes()


def reference_write_csv(path, rows):
    """write_csv as it was: csv.writer over each value formatted on its own."""
    def fmt(value):
        return "{:.10g}".format(value) if isinstance(value, float) else str(value)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(row[key]) for key in header])


special_floats = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 0.1])
csv_values = st.one_of(
    special_floats, st.floats(), special_floats.map(np.float64), st.floats().map(np.float64),
    st.floats(width=32).map(np.float32), st.integers(), st.integers(10**10, 10**20),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans(),
    st.text(st.sampled_from('a1.,"\n\r \t-e'), max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from('ab,"\n '), min_size=0, max_size=3),
                min_size=1, max_size=4, unique=True), st.data())
@example(["n", "v"], None)
def test_write_csv_writes_the_bytes_of_csv_writer(header, data):
    if data is None:  # A column that is an int in one row and a float in the next.
        rows = [{"n": 1, "v": 12345678901}, {"n": 2, "v": 12345678901.0},
                {"n": 3.5, "v": "x,y"}, {"n": 4, "v": 0.1}]
    else:
        rows = data.draw(st.lists(st.fixed_dictionaries({key: csv_values for key in header}),
                                  min_size=1, max_size=6))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_csv(got, rows)
        reference_write_csv(want, rows)
        assert got.read_bytes() == want.read_bytes()


# Frozen copies of the realization's building blocks before they were cut
# to their numpy kernels; the current ones must give the same bytes.
FROZEN = settings(max_examples=200, deadline=None)


def frozen_map_qpsk(bits):
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size % 2 != 0:
        raise ValueError(f"bit count must be even, got {bits.size}")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    b = bits.reshape(-1, 2)
    return ((1 - 2 * b[:, 0]) + 1j * (1 - 2 * b[:, 1])) * (1.0 / np.sqrt(2.0))


def frozen_build_frame(grid):
    spec = grid.spec
    n, n_cp = spec.n_fft, spec.n_cp
    body = np.fft.ifft(np.fft.ifftshift(grid.data, axes=1), axis=1) * np.sqrt(n)
    prefix = spec.n_empty_prefix * spec.symbol_len
    samples = np.zeros(spec.total_len, dtype=np.complex128)
    symbols = samples[prefix:].reshape(spec.n_symbols, spec.symbol_len)
    symbols[:, n_cp:] = body
    symbols[:, :n_cp] = body[:, n - n_cp:]
    return TimeSignal(samples, origin=prefix + n_cp)


def frozen_draw_channel(rng, sample_rate_hz):
    delays = np.rint(np.asarray(COST207_TU_DELAYS_US) * 1e-6 * sample_rate_hz).astype(int)
    powers = 10.0 ** (np.asarray(COST207_TU_POWERS_DB) / 10.0)
    powers /= powers.sum()
    taps = np.zeros(int(delays.max()) + 1, dtype=np.complex128)
    sigma = np.sqrt(powers / 2.0)
    g = rng.standard_normal(2 * powers.size)
    for i, d in enumerate(delays):
        taps[d] += sigma[i] * (g[2 * i] + 1j * g[2 * i + 1])
    return taps


def frozen_mean_power(x):
    return float(np.mean(np.abs(np.asarray(x)) ** 2))


def frozen_n_axis(x):
    return np.arange(x.samples.size) - x.origin


def frozen_gen_nbi(spec, length, origin, n_fft, rng=None):
    n = np.arange(length, dtype=np.float64) - origin
    phase = 2.0 * np.pi * spec.f_total * n / n_fft + spec.phase0
    if spec.kind != "ideal_tone":
        if spec.kind == "fm_wideband":
            delta_f = carson_deviation_hz(spec.bandwidth_hz, spec.f_m_hz)
        else:
            delta_f = spec.delta_f_hz
        beta = delta_f / spec.f_m_hz
        theta = 0.0 if rng is None else rng.uniform(0.0, 2.0 * np.pi)
        fs = n_fft * spec.sc_spacing_hz
        phase = phase + beta * np.sin(2.0 * np.pi * spec.f_m_hz * n / fs + theta)
    return TimeSignal(np.exp(1j * phase), origin=origin)


def assert_same_outcome(fn, frozen, *args):
    """Both calls give the same dtype, shape and bytes, or both raise ValueError."""
    try:
        want = frozen(*args)
    except ValueError:
        with pytest.raises(ValueError):
            fn(*args)
        return
    got = fn(*args)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@FROZEN
@given(st.integers(0, 200), st.integers(1, 3), st.data())
@example(0, 1, None)
def test_map_qpsk_equals_the_frozen_one(n_pairs, rows, data):
    if data is None:
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])  # every point once
    else:
        values = st.integers(0, 1) if data.draw(st.booleans()) else st.integers(-2, 3)
        shape = (rows, 2 * n_pairs + data.draw(st.integers(0, 1)))
        bits = data.draw(hnp.arrays(np.int64, shape, elements=values))
    assert_same_outcome(map_qpsk, frozen_map_qpsk, bits)


@st.composite
def edge_frame_specs(draw):
    """frame_specs with a CP of 0 or N and no leading silence drawn often."""
    spec = draw(frame_specs())
    n_cp = draw(st.sampled_from([0, spec.n_fft, spec.n_cp]))
    prefix = draw(st.sampled_from([0, spec.n_empty_prefix]))
    return FrameSpec(smap=spec.smap, n_cp=n_cp, n_symbols=spec.n_symbols,
                     n_empty_prefix=prefix)


@FROZEN
@given(edge_frame_specs(), st.integers(0, 2**32 - 1), st.booleans())
def test_build_frame_equals_the_frozen_one(spec, seed, signed_zeros):
    rng = np.random.default_rng(seed)
    shape = (spec.n_symbols, spec.n_fft)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if signed_zeros:
        data[rng.random(shape) < 0.5] = complex(-0.0, -0.0)
    got, want = build_frame(SymbolGrid(spec, data)), frozen_build_frame(SymbolGrid(spec, data))
    assert got.origin == want.origin
    assert got.samples.tobytes() == want.samples.tobytes()


@FROZEN
@given(st.one_of(st.sampled_from([1e6, 1.92e6, 3.84e6, 7.68e6, 30.72e6]),
                 st.floats(1e4, 1e8)), st.integers(0, 2**32 - 1))
@example(1e6, 0)  # 0, 0.2 and 0.5 us round onto tap 0, 1.6 and 2.3 us onto tap 2
def test_urban_channel_draw_equals_the_frozen_one(sample_rate_hz, seed):
    rng, frozen_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    taps = draw_channel_cost207tu(rng, sample_rate_hz).taps
    assert taps.tobytes() == frozen_draw_channel(frozen_rng, sample_rate_hz).tobytes()
    assert rng.bit_generator.state == frozen_rng.bit_generator.state


power_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1e-300, 1e150]),
                        st.floats(-1e100, 1e100))


@FROZEN
@given(hnp.arrays(st.sampled_from([np.complex128, np.float64]),
                  hnp.array_shapes(min_dims=1, max_dims=2, max_side=300),
                  elements=power_parts))
def test_mean_power_equals_np_mean(x):
    got, want = mean_power(x), frozen_mean_power(x)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@FROZEN
@given(st.integers(1, 5000), st.integers(-10_000, 10_000))
def test_n_axis_equals_the_frozen_one(size, origin):
    x = TimeSignal(np.zeros(size), origin)
    got, want = x.n_axis(), frozen_n_axis(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def nbi_specs(draw):
    kind = draw(st.sampled_from(["ideal_tone", "fm_carson", "fm_wideband"]))
    f_m = draw(st.floats(1.0, 1e5))
    return NbiSpec(kind=kind, f_c=draw(st.floats(-200.0, 200.0)),
                   phase0=draw(st.floats(-10.0, 10.0)),
                   freq_offset_hz=draw(st.floats(-1e5, 1e5)), f_m_hz=f_m,
                   delta_f_hz=draw(st.floats(1.0, 1e6)),
                   bandwidth_hz=2.0 * f_m + draw(st.floats(1.0, 1e6)),
                   sc_spacing_hz=draw(st.sampled_from([15e3, 7.5e3, 31.25e3])))


@FROZEN
@given(nbi_specs(), st.integers(1, 3000), st.integers(-3000, 3000),
       st.sampled_from([8, 64, 256, 1024]), st.integers(0, 2**32 - 1), st.booleans())
def test_gen_nbi_equals_the_frozen_one(spec, length, origin, n_fft, seed, with_rng):
    rng, frozen_rng = (np.random.default_rng(seed), np.random.default_rng(seed)) \
        if with_rng else (None, None)
    got = gen_nbi(spec, length, origin, n_fft, rng)
    want = frozen_gen_nbi(spec, length, origin, n_fft, frozen_rng)
    assert got.origin == want.origin
    assert got.samples.tobytes() == want.samples.tobytes()
    if with_rng:
        assert rng.bit_generator.state == frozen_rng.bit_generator.state


# Frozen copies of the per-cell scalar steps from before their single numbers
# left numpy (math.isnan/isinf/sqrt, np.add.reduce in place of np.mean).


def frozen_check_level_db(name, *values):
    for value in values:
        if np.isnan(value) or value == -np.inf:
            raise ValueError(f"{name} must be a number of dB or +inf (term off), "
                             f"got {value}")


def frozen_calibrate_and_mix(y, nbi, mix, active, noise, *, powers=None):
    if len(nbi) != len(y) or nbi.origin != y.origin:
        raise ValueError("nbi buffer must match y in length and origin")
    if noise.shape != y.samples.shape:
        raise ValueError("noise draw must match y in length")
    sig = y.samples
    p_sig = mean_power(sig[active]) if powers is None else powers[0]
    if not 0 < p_sig < math.inf:
        raise ValueError(f"signal power over the active region is {p_sig}, not > 0 and finite")
    if np.isinf(mix.sir_db):
        sigma_i2 = 0.0
        nbi_part = np.zeros_like(sig)
    else:
        sigma_i2 = p_sig * 10.0 ** (-mix.sir_db / 10.0)
        nbi_part = np.sqrt(sigma_i2) * nbi.samples
    if np.isinf(mix.snr_db):
        sigma_w2 = 0.0
        noise_part = np.zeros_like(sig)
    else:
        sigma_w2 = p_sig * 10.0 ** (-mix.snr_db / 10.0)
        p_noise = mean_power(noise[active]) if powers is None else powers[1]
        if not 0 < p_noise < math.inf:
            raise ValueError(f"noise power over the active region is {p_noise}, "
                             "not > 0 and finite")
        noise_part = noise * np.sqrt(sigma_w2 / p_noise)
    received = TimeSignal(sig + nbi_part, origin=y.origin)
    received.samples += noise_part
    return MixResult(received, nbi_part, noise_part, sigma_i2, sigma_w2)


def frozen_aggregate(outcomes):
    if not outcomes:
        raise ValueError("cannot aggregate an empty list of outcomes")
    n = len(outcomes)
    errs = sum(1 for o in outcomes if o.is_sync_error)
    p = errs / n
    ci = 1.96 * np.sqrt(p * (1.0 - p) / n)
    mse_time = float(np.mean([o.timing_error ** 2 for o in outcomes]))
    mse_freq = float(np.mean([o.cfo_error ** 2 for o in outcomes]))
    bits = sum(o.bits_total for o in outcomes)
    ber = (sum(o.bit_errors for o in outcomes) / bits) if bits else 0.0
    return AggregateStats(n_trials=n, p_sync_error=p, ci_halfwidth=float(ci),
                          mse_time=mse_time, mse_freq=mse_freq, ber=float(ber))


def exact_fields(obj):
    """A dataclass's fields as (type, value) with floats by their bits."""
    return [(type(v), v.hex() if isinstance(v, float) else v)
            for v in (getattr(obj, f) for f in obj.__dataclass_fields__)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20_000), st.sampled_from([0, 1, 256, 4051, 8192, 419_994]),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@example(8192, 4051, 0.1, 0)  # one full cast buffer of numpy's float64 reduce
@example(8193, 8192, 0.5, 1)  # one element into the second
@example(20_000, 419_994, 1.0, 2)
@example(1, 0, 0.0, 3)
def test_aggregate_equals_the_frozen_one(n, max_timing, p_err, seed):
    # Timing errors up to a capture's length, so their int64 squares reach
    # ~1.8e11; CFO errors of 1 down to subnormals (and squares that underflow).
    rng = np.random.default_rng(seed)
    timing = rng.integers(-max_timing, max_timing, n, endpoint=True).tolist()
    cfo = (rng.standard_normal(n) * 10.0 ** rng.uniform(-330.0, 0.0, n)).tolist()
    bits = int(rng.integers(0, 3)) * 200
    errors = rng.integers(0, bits, n, endpoint=True).tolist()
    outcomes = [TrialOutcome(t, c, bool(e), b, bits)
                for t, c, e, b in zip(timing, cfo, rng.random(n) < p_err, errors)]
    assert exact_fields(aggregate(outcomes)) == exact_fields(frozen_aggregate(outcomes))


levels = st.one_of(st.floats(-80.0, 80.0), st.just(math.inf))


@FROZEN
@given(st.integers(1, 300), st.data(), levels, levels, st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(10, None, math.inf, math.inf, False, False, 0)
def test_calibrate_and_mix_equals_the_frozen_one(size, data, snr_db, sir_db, numpy_levels,
                                                 given_powers, seed):
    rng = np.random.default_rng(seed)
    start = 0 if data is None else data.draw(st.integers(0, size - 1))
    origin = int(rng.integers(-size, size))
    y = TimeSignal(rng.standard_normal(2 * size).view(np.complex128), origin)
    nbi = gen_nbi(NbiSpec("ideal_tone", f_c=rng.uniform(-5, 5)), size, origin, 8)
    noise = rng.standard_normal(2 * size).view(np.complex128)
    active = slice(start, None)
    if numpy_levels:
        snr_db, sir_db = np.float64(snr_db), np.float64(sir_db)
    kwargs = {"powers": (mean_power(y.samples[active]), mean_power(noise[active]))
              } if given_powers else {}
    got = calibrate_and_mix(y, nbi, MixSpec(snr_db, sir_db), active, noise, **kwargs)
    want = frozen_calibrate_and_mix(y, nbi, MixSpec(snr_db, sir_db), active, noise,
                                    **kwargs)
    assert got.received.origin == want.received.origin
    for part in ("nbi_part", "noise_part"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
    assert got.received.samples.tobytes() == want.received.samples.tobytes()
    assert [(type(v), np.float64(v).tobytes()) for v in (got.sigma_i2, got.sigma_w2)] == \
        [(type(v), np.float64(v).tobytes()) for v in (want.sigma_i2, want.sigma_w2)]


@pytest.mark.parametrize("value", [
    math.nan, -math.inf, np.float64("nan"), np.float64(-np.inf), np.float32("nan"),
    np.float32(-np.inf), 0.0, -1e308, math.inf, np.float64(np.inf), np.float32(3),
    -5])
def test_check_level_db_says_what_the_frozen_one_says(value):
    try:
        frozen_check_level_db("sir_db", 1.0, value)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            check_level_db("sir_db", 1.0, value)
        assert str(got.value) == str(exc)
    else:
        check_level_db("sir_db", 1.0, value)
