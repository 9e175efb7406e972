"""Correlation metrics, the streaming engine, and peak detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsync import (ChunkCorrelator, FrameSpec, NoSignalError, OpCounters,
                    SubcarrierMap, SymbolGrid, TimeSignal, apply_cfo, build_frame,
                    compute_trace, count_report, detect, generate_preamble,
                    nirs_numerator, preamble_from_bits, random_data_symbol,
                    trace_from_recursions, trace_from_stream)
from ncsync.metrics import MetricTrace
from ncsync.streaming import COST_PER_SAMPLE, MODES, model_counters

N_FFT = 256
STREAM_TOL = 1e-9 * N_FFT
NON_FINITE = [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0)]
TRACE_FIELDS = ("g", "m", "metric_sc", "q", "g_nirs", "metric_nirs")


def tone(f, length, amp=1.0, phi=0.0, n_fft=N_FFT):
    n = np.arange(length)
    return TimeSignal(amp * np.exp(1j * (2 * np.pi * f * n / n_fft + phi)), origin=0)


def clean_frame(spec, rng):
    grid = SymbolGrid(spec)
    grid.data[0] = generate_preamble(spec, rng)
    for p in range(1, spec.n_symbols):
        grid.data[p] = random_data_symbol(spec, rng)
    return build_frame(grid)


def direct_sums(samples, n):
    """Reference G, M, Q at window start n by plain summation."""
    half, quarter = N_FFT // 2, N_FFT // 4
    w = samples[n : n + N_FFT]
    g = np.sum(np.conj(w[:half]) * w[half:])
    m = np.sum(np.abs(w[half:]) ** 2)
    q = 0.5 * (np.sum(np.conj(w[:quarter]) * w[quarter : 2 * quarter])
               + 2 * np.sum(np.conj(w[quarter : 2 * quarter]) * w[2 * quarter : 3 * quarter])
               + np.sum(np.conj(w[2 * quarter : 3 * quarter]) * w[3 * quarter :]))
    return g, m, q


def test_constant_input_levels():
    sig = TimeSignal(np.ones(3 * N_FFT, dtype=complex), origin=0)
    tr = compute_trace(sig, N_FFT)
    np.testing.assert_allclose(tr.g, 128.0, atol=1e-9)
    np.testing.assert_allclose(tr.m, 128.0, atol=1e-9)
    np.testing.assert_allclose(tr.q, 128.0, atol=1e-9)
    np.testing.assert_allclose(tr.metric_sc, 1.0, atol=1e-9)


def test_pure_tone_correlations():
    tr = compute_trace(tone(24.5, 2 * N_FFT), N_FFT)
    np.testing.assert_allclose(tr.g, 128.0j, atol=1e-8)
    np.testing.assert_allclose(tr.q, 128.0 * np.exp(0.25j * np.pi), atol=1e-8)
    np.testing.assert_allclose(tr.m, 128.0, atol=1e-9)
    # the quarter-lag probe doubles its phase into exactly the half-lag phase,
    # so the corrected numerator vanishes
    assert np.abs(tr.g_nirs).max() < 1e-9 * 128.0
    np.testing.assert_allclose(tr.metric_sc, 1.0, atol=1e-9)


@settings(max_examples=400, deadline=None)
@given(n_fft=st.sampled_from([8, 64, 256]), f_frac=st.floats(0, 1, exclude_max=True),
       phi=st.floats(0, 2 * np.pi), log_amp=st.floats(-6, 6))
def test_nirs_cancels_a_tone_at_any_frequency_phase_and_amplitude(n_fft, f_frac, phi,
                                                                   log_amp):
    # f spans [-N/2, N/2), the whole band, and the amplitude twelve decades.
    amp = 10.0 ** log_amp
    tr = compute_trace(tone(n_fft * (f_frac - 0.5), 3 * n_fft, amp, phi, n_fft), n_fft)
    assert np.abs(tr.g_nirs).max() <= 1e-9 * amp * amp * n_fft / 2


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(-1, 1, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_noiseless_cfo_readout_is_exact_over_the_open_range(main_spec, nu, seed):
    y = apply_cfo(clean_frame(main_spec, np.random.default_rng(seed)), nu, N_FFT)
    tr = compute_trace(y, N_FFT)
    (i0,) = np.flatnonzero(tr.n == 0)
    assert abs(np.angle(tr.g_nirs[i0]) / np.pi - nu) < 1e-10


@settings(max_examples=250, deadline=None)
@given(zero=st.sets(st.sampled_from(range(-128, 128, 4)), min_size=1),
       two=st.sets(st.sampled_from(range(-126, 128, 4)), min_size=1),
       odd=st.sets(st.sampled_from(range(-127, 128, 2))),
       nu=st.floats(-0.7, 0.7), seed=st.integers(0, 2**32 - 1))
def test_nirs_peak_is_fixed_by_the_even_class_balance(zero, two, odd, nu, seed):
    """NIRS's blind spot, exactly: on a noiseless flat frame the metric at the
    frame start is (2 min(E0, E2) / (E0 + E2))^2, with E0 and E2 the preamble
    energy on even bins k = 0 and k = 2 (mod 4), at any CFO in the envelope."""
    smap = SubcarrierMap(n_fft=N_FFT, occupied=tuple(zero | two | odd))
    spec = FrameSpec(smap=smap, n_cp=32, n_symbols=2)
    rng = np.random.default_rng(seed)
    grid = SymbolGrid(spec)
    grid.data[0] = generate_preamble(spec, rng)
    grid.data[1] = random_data_symbol(spec, rng)
    tr = compute_trace(apply_cfo(build_frame(grid), nu, N_FFT), N_FFT)
    energy = np.abs(grid.data[0]) ** 2
    k = np.arange(N_FFT) - N_FFT // 2
    e0, e2 = energy[k % 4 == 0].sum(), energy[k % 4 == 2].sum()
    (i0,) = np.flatnonzero(tr.n == 0)
    assert abs(tr.metric_nirs[i0] - (2 * min(e0, e2) / (e0 + e2)) ** 2) < 1e-12


def test_nirs_numerator_degenerate_q():
    assert nirs_numerator(5 + 2j, 0.0) == 5 + 2j
    rng = np.random.default_rng(17)
    q = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    corr = -nirs_numerator(np.zeros(100), q)  # isolates Q^2 / |Q|
    np.testing.assert_allclose(np.abs(corr), np.abs(q), rtol=1e-12)


def test_trace_matches_direct_sums():
    rng = np.random.default_rng(19)
    sig = TimeSignal(rng.standard_normal(2000).view(np.complex128), origin=0)
    tr = compute_trace(sig, N_FFT)
    for n in range(len(tr)):
        g, m, q = direct_sums(sig.samples, n)
        assert abs(tr.g[n] - g) < STREAM_TOL
        assert abs(tr.m[n] - m) < STREAM_TOL
        assert abs(tr.q[n] - q) < STREAM_TOL


def test_trace_window_count_and_short_buffer():
    rng = np.random.default_rng(21)
    sig = TimeSignal(rng.standard_normal(2 * 300).view(np.complex128), origin=40)
    tr = compute_trace(sig, N_FFT)
    assert len(tr) == 300 - N_FFT + 1
    assert tr.n[0] == -40
    with pytest.raises(ValueError):
        compute_trace(TimeSignal(np.zeros(100, dtype=complex), 0), N_FFT)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_trace_rejects_non_finite_samples(bad):
    # Through the cumsums a NaN blanks the metric of every later window, so
    # detect would pick a peak from before the bad sample instead.  The
    # samples are scanned only when the energy's running sum ends non-finite:
    # a bad sample anywhere sets that off, and the first one is named.
    rng = np.random.default_rng(59)
    for at in (0, 1700, 2999):
        x = rng.standard_normal(2 * 3000).view(np.complex128)
        x[at] = x[-1] = bad
        for with_nirs in (True, False):
            with pytest.raises(ValueError, match=rf"sample {at} \(n = {at - 500}\) is not finite"):
                compute_trace(TimeSignal(x, origin=500), N_FFT, with_nirs=with_nirs)


def test_trace_accepts_finite_samples_whose_energy_overflows():
    # |r|^2 = 1e320 overflows the energy's running sum, but no sample is
    # non-finite: the scan it sets off must find nothing to report.
    rng = np.random.default_rng(67)
    x = 1e160 * rng.standard_normal(2 * 600).view(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for with_nirs in (True, False):
            tr = compute_trace(TimeSignal(x, origin=0), N_FFT, with_nirs=with_nirs)
            assert len(tr) == 600 - N_FFT + 1


def test_stream_matches_batch_both_modes():
    # One push of a whole buffer is the batch kernel: equal bit for bit.
    rng = np.random.default_rng(23)
    sig = TimeSignal(rng.standard_normal(2 * 1200).view(np.complex128), origin=300)
    for mode in MODES:
        batch = compute_trace(sig, N_FFT, with_nirs=mode == "nirs")
        streamed, ops, counted = trace_from_stream(sig, N_FFT, mode)
        assert counted == 1200 - N_FFT
        np.testing.assert_array_equal(streamed.n, batch.n)
        for name in TRACE_FIELDS:
            want = getattr(batch, name)
            if want is None:
                assert getattr(streamed, name) is None
            else:
                np.testing.assert_array_equal(getattr(streamed, name), want)


def test_stream_counters_are_exact():
    rng = np.random.default_rng(29)
    sig = TimeSignal(rng.standard_normal(2 * 700).view(np.complex128), origin=0)
    for mode, (adds, muls, sqrts) in COST_PER_SAMPLE.items():
        _, ops, counted = trace_from_stream(sig, N_FFT, mode)
        assert counted == 700 - N_FFT
        assert ops.add_sub == adds * counted
        assert ops.mul_div == muls * counted
        assert ops.sqrt == sqrts * counted
        assert count_report(ops, counted) == (float(adds), float(muls), float(sqrts))


def test_counter_helpers():
    with pytest.raises(ValueError):
        count_report(OpCounters(), 0)
    model = model_counters("nirs", 100)
    assert (model.add_sub, model.mul_div, model.sqrt) == (2400, 2400, 100)
    assert COST_PER_SAMPLE == {"sc": (10, 10, 0), "nirs": (24, 24, 1)}


def test_streaming_input_validation():
    ones = TimeSignal(np.ones(300, dtype=complex), 0)
    with pytest.raises(ValueError):
        trace_from_recursions(ones, 10)  # not a multiple of 4
    with pytest.raises(ValueError):
        trace_from_recursions(ones, 256, mode="fast")
    with pytest.raises(ValueError):
        ChunkCorrelator(10)
    with pytest.raises(ValueError):
        ChunkCorrelator(256, mode="fast")
    with pytest.raises(ValueError):
        ChunkCorrelator(16).push(np.ones((4, 4)))
    short = TimeSignal(np.zeros(10, dtype=complex), 0)
    x = np.ones(300, dtype=complex)
    x[280] = np.nan
    for run in (trace_from_stream, trace_from_recursions):
        with pytest.raises(ValueError, match=r"buffer of 10 samples is shorter than one window"):
            run(short, N_FFT)
        with pytest.raises(ValueError, match=r"stream sample 280 is not finite"):
            run(TimeSignal(x, origin=50), N_FFT)
    for mode in MODES:
        one, ops, counted = trace_from_recursions(TimeSignal(np.ones(16), origin=3), 16, mode)
        assert one.n.tolist() == [-3]
        assert counted == 0 and ops == OpCounters()  # warm-up emission is free


@pytest.mark.parametrize("n_fft", [4, 6, 10, 255])
def test_compute_trace_rejects_a_bad_n_fft(n_fft):
    # Unchecked, 6 and 10 would give a trace with a wrong Q, 255 a broadcast error.
    sig = TimeSignal(np.ones(600, dtype=complex), origin=0)
    for with_nirs in (True, False):
        with pytest.raises(ValueError,
                           match=rf"n_fft must be a multiple of 4 and >= 8, got {n_fft}$"):
            compute_trace(sig, n_fft, with_nirs=with_nirs)


@settings(max_examples=300, deadline=None)
@given(n_fft=st.sampled_from([8, 16, 32]), mode=st.sampled_from(MODES),
       extra=st.integers(0, 150), seed=st.integers(0, 2**32 - 1))
def test_recursions_match_the_batch_trace(n_fft, mode, extra, seed):
    """From its zero state the per-sample model agrees with compute_trace at
    every window, window 0 included, and counts every window after the first."""
    x = np.random.default_rng(seed).standard_normal(2 * (n_fft + extra)).view(np.complex128)
    model, ops, counted = trace_from_recursions(TimeSignal(x, 0), n_fft, mode)
    one = compute_trace(TimeSignal(x, 0), n_fft, with_nirs=mode == "nirs")
    np.testing.assert_array_equal(model.n, one.n)
    tol = 1e-9 * n_fft
    for name in TRACE_FIELDS:
        want = getattr(one, name)
        if want is None:
            assert getattr(model, name) is None
        else:
            assert np.max(np.abs(getattr(model, name) - want)) < (
                1e-9 if name.startswith("metric") else tol), name
    assert counted == len(one) - 1
    assert ops == model_counters(mode, counted)


@settings(max_examples=150, deadline=None)
@given(n_fft=st.sampled_from([8, 16, 32]), mode=st.sampled_from(MODES),
       extra=st.integers(0, 100), origin=st.integers(-50, 200),
       seed=st.integers(0, 2**32 - 1))
def test_recursions_count_what_the_engine_reports(n_fft, mode, extra, origin, seed):
    """The tallied counters and steps equal the cost table trace_from_stream reads."""
    x = np.random.default_rng(seed).standard_normal(2 * (n_fft + extra)).view(np.complex128)
    sig = TimeSignal(x, origin)
    model, ops, counted = trace_from_recursions(sig, n_fft, mode)
    streamed, want_ops, want_counted = trace_from_stream(sig, n_fft, mode)
    assert (ops, counted) == (want_ops, want_counted)
    np.testing.assert_array_equal(model.n, streamed.n)


@settings(max_examples=150, deadline=None)
@given(n_fft=st.sampled_from([8, 16, 32]), mode=st.sampled_from(MODES),
       length=st.integers(0, 200), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_any_chunking_equals_one_shot(n_fft, mode, length, seed, data):
    length += n_fft
    # Repeated and end cut points give empty chunks; close ones give chunks
    # shorter than a window.
    cuts = sorted(data.draw(st.lists(st.integers(0, length), max_size=12)))
    x = np.random.default_rng(seed).standard_normal(2 * length).view(np.complex128)
    corr = ChunkCorrelator(n_fft, mode=mode)
    parts = []
    for chunk in np.split(x, cuts):
        trace = corr.push(chunk)
        if trace is not None:
            parts.append(trace)
    one = compute_trace(TimeSignal(x, 0), n_fft, with_nirs=mode == "nirs")
    np.testing.assert_array_equal(np.concatenate([p.n for p in parts]), one.n)
    for name in TRACE_FIELDS:
        want = getattr(one, name)
        if want is None:
            assert all(getattr(p, name) is None for p in parts)
            continue
        got = np.concatenate([getattr(p, name) for p in parts])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("at", [
    30,   # first chunk, shorter than a window
    200,  # second chunk, the first to complete windows
    560,  # a later chunk
    390,  # among the samples the second chunk carries over to the third
])
def test_chunk_push_rejects_non_finite_by_stream_index(mode, bad, at):
    cuts = (100, 400)
    x = np.random.default_rng(61).standard_normal(2 * 700).view(np.complex128)
    clean, corr = ChunkCorrelator(N_FFT, mode=mode), ChunkCorrelator(N_FFT, mode=mode)
    for chunk, lo in zip(np.split(x, cuts), (0,) + cuts):
        if lo <= at < lo + chunk.size:
            broken = chunk.copy()
            broken[at - lo] = bad
            with pytest.raises(ValueError, match=rf"stream sample {at} is not finite"):
                corr.push(broken)
        got, want = corr.push(chunk), clean.push(chunk)
        # The rejected chunk left the carried samples as they were.
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got.n, want.n)
            np.testing.assert_array_equal(got.metric(mode), want.metric(mode))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("at", [30, N_FFT - 1, 390])  # warm-up, its last sample, a step
def test_recursions_reject_non_finite_by_stream_index(mode, bad, at):
    # The index is the sample's position in the buffer, whatever the origin.
    x = np.random.default_rng(67).standard_normal(2 * 500).view(np.complex128)
    x[at] = x[-1] = bad
    with pytest.raises(ValueError, match=rf"stream sample {at} is not finite"):
        trace_from_recursions(TimeSignal(x, origin=100), N_FFT, mode)


def test_metric_bound_and_normalizer_sign():
    rng = np.random.default_rng(31)
    sig = TimeSignal(rng.standard_normal(2 * 2000).view(np.complex128), origin=0)
    tr = compute_trace(sig, N_FFT)
    assert np.all(tr.m >= 0)
    assert tr.metric_sc.max() <= 1 + 1e-9
    assert np.all(np.isfinite(tr.metric_sc))
    assert np.all(np.isfinite(tr.metric_nirs))


def test_metric_is_scale_invariant():
    rng = np.random.default_rng(37)
    smap = SubcarrierMap(n_fft=N_FFT, occupied=tuple(range(-100, 0)) + (1, 2, 3)
                         + tuple(range(46, 101)))
    spec = FrameSpec(smap=smap, n_cp=32, n_symbols=2, n_empty_prefix=1)
    base = clean_frame(spec, rng)
    noise = 0.05 * rng.standard_normal(2 * len(base)).view(np.complex128)
    ref = TimeSignal(base.samples + noise, base.origin)
    picks = {}
    for scale in (1e-3, 1.0, 7.0, 1e3):
        tr = compute_trace(TimeSignal(scale * ref.samples, ref.origin), N_FFT)
        for mode in ("sc", "nirs"):
            picks.setdefault(mode, set()).add(int(np.argmax(tr.metric(mode))))
    assert len(picks["sc"]) == 1
    assert len(picks["nirs"]) == 1


def test_clean_frame_detection(main_spec):
    """The CP makes the metric exactly 1 over [-n_cp, 0].

    The peak search may drift a sample or two past the plateau's right edge,
    where the second-half energy normalizer can dip slightly below the
    first-half energy, so the timing check is |n_hat| <= n_cp (the operating
    success condition), while midpoint90 is expected to land well inside.
    """
    rng = np.random.default_rng(41)
    spec = FrameSpec(smap=main_spec.smap, n_cp=32, n_symbols=3, n_empty_prefix=1)
    frame = clean_frame(spec, rng)
    tr = compute_trace(frame, N_FFT)
    plateau = (tr.n >= -spec.n_cp) & (tr.n <= 0)
    np.testing.assert_allclose(tr.metric_sc[plateau], 1.0, atol=1e-9)

    res_sc = detect(tr, mode="sc")
    assert abs(res_sc.n_hat) <= spec.n_cp
    assert res_sc.peak_value >= 1.0 - 1e-9
    assert abs(res_sc.nu_hat) < 0.01
    for mode in ("sc", "nirs"):
        mid = detect(tr, mode=mode, timing_rule="midpoint90")
        assert -spec.n_cp <= mid.n_hat <= 0
        assert abs(mid.nu_hat) < 1e-10


def test_clean_frame_cfo_readout(main_spec):
    from ncsync import apply_cfo

    rng = np.random.default_rng(43)
    spec = FrameSpec(smap=main_spec.smap, n_cp=32, n_symbols=3, n_empty_prefix=1)
    frame = apply_cfo(clean_frame(spec, rng), 0.37, N_FFT)
    tr = compute_trace(frame, N_FFT)
    for mode in ("sc", "nirs"):
        res = detect(tr, mode=mode, timing_rule="midpoint90")
        assert -spec.n_cp <= res.n_hat <= 0
        assert abs(res.nu_hat - 0.37) < 1e-10


def test_midpoint90_centers_a_symmetric_plateau():
    n = np.arange(41) - 20
    metric = np.full(41, 0.2)
    metric[15:26] = 1.0  # plateau centered on index 20, i.e. n = 0
    tr = MetricTrace(n=n, g=metric.astype(complex), m=np.ones(41),
                     metric_sc=metric)
    res = detect(tr, mode="sc", timing_rule="midpoint90")
    assert res.n_hat == 0
    assert detect(tr, mode="sc", timing_rule="argmax").n_hat == -5


def test_midpoint90_takes_the_run_around_the_peak():
    n = np.arange(30)
    metric = np.full(30, 0.1)
    metric[3:6] = 0.95   # secondary bump
    metric[12:19] = 1.0  # the winner: run midpoint is 15
    tr = MetricTrace(n=n, g=metric.astype(complex), m=np.ones(30),
                     metric_sc=metric)
    assert detect(tr, mode="sc", timing_rule="midpoint90").n_hat == 15


def test_detect_errors():
    silent = TimeSignal(np.zeros(400, dtype=complex), origin=0)
    tr = compute_trace(silent, N_FFT)
    with pytest.raises(NoSignalError):
        detect(tr, mode="sc")
    rng = np.random.default_rng(47)
    live = compute_trace(
        TimeSignal(rng.standard_normal(2 * 400).view(np.complex128), 0), N_FFT,
        with_nirs=False)
    with pytest.raises(ValueError):
        detect(live, mode="nirs")  # trace has no quarter-lag branch
    with pytest.raises(ValueError):
        detect(live, mode="sc", timing_rule="best")
    empty = MetricTrace(n=np.array([], dtype=int), g=np.array([], dtype=complex),
                        m=np.array([]), metric_sc=np.array([]))
    with pytest.raises(ValueError):
        detect(empty, mode="sc")


@pytest.mark.parametrize("mode", ["sc", "nirs"])
@pytest.mark.parametrize("timing_rule", ["argmax", "midpoint90"])
@pytest.mark.parametrize("where", ["nan_metric", "inf_metric", "nan_numerator"])
def test_detect_rejects_a_non_finite_peak(mode, timing_rule, where):
    metric = np.array([0.1, 0.2, 0.9, 0.3, 0.1, 0.1])
    num = np.full(6, np.exp(0.3j))
    tr = MetricTrace(n=np.arange(6), g=num, m=np.ones(6), metric_sc=metric,
                     q=num, g_nirs=num, metric_nirs=metric)
    assert detect(tr, mode=mode, timing_rule=timing_rule).n_hat == 2
    if where == "nan_metric":
        metric[1] = np.nan  # argmax stops at the first NaN, before the peak
    elif where == "inf_metric":
        metric[4] = np.inf
    else:
        num[2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        detect(tr, mode=mode, timing_rule=timing_rule)


def test_cfo_estimate_stays_in_range():
    rng = np.random.default_rng(53)
    for _ in range(20):
        sig = TimeSignal(rng.standard_normal(2 * 300).view(np.complex128), 0)
        res = detect(compute_trace(sig, N_FFT), mode="nirs")
        assert -1.0 <= res.nu_hat <= 1.0
