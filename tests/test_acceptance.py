"""Release gate: one test per headline requirement, each printing a verdict.

Every test times itself, prints a single PASS/FAIL line (visible through
pytest's capture), and then asserts, so a red run still shows the full
scoreboard.  Monte-Carlo thresholds follow the desk-scale trial counts
noted inline.
"""

import time

import numpy as np
import pytest

from ncsync import (ChannelRealization, FrameSpec, SymbolGrid, TimeSignal,
                    apply_cfo, apply_multipath, build_frame, generate_preamble,
                    modulate_symbol, random_data_symbol)
from ncsync.crossterm import (b_closed_form, b_direct, decompose, notched_map,
                              relative_cross_power)
from ncsync.evaluate import aggregate
from ncsync.metrics import compute_trace
from ncsync.runner import run_cell, run_nbi_bandwidth_sweep, run_scenario
from ncsync.scenario import load
from ncsync.streaming import COST_PER_SAMPLE, count_report, trace_from_recursions
from ncsync.cli import main as cli_main  # noqa: F401  (import sanity)

N_FFT = 256


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}")


def _clean_frame(spec, rng):
    grid = SymbolGrid(spec)
    grid.data[0] = generate_preamble(spec, rng)
    for p in range(1, spec.n_symbols):
        grid.data[p] = random_data_symbol(spec, rng)
    return build_frame(grid)


def _direct_gmq(r, n_fft):
    half, quarter = n_fft // 2, n_fft // 4
    n_win = len(r) - n_fft + 1
    g = np.empty(n_win, complex)
    m = np.empty(n_win)
    q = np.empty(n_win, complex)
    for i in range(n_win):
        w = r[i : i + n_fft]
        g[i] = np.vdot(w[:half], w[half:])
        m[i] = float(np.sum(np.abs(w[half:]) ** 2))
        q[i] = 0.5 * (np.vdot(w[:quarter], w[quarter:half])
                      + 2.0 * np.vdot(w[quarter:half], w[half : half + quarter])
                      + np.vdot(w[half : half + quarter], w[half + quarter :]))
    return g, m, q


def test_criterion_01_pure_tone_cancellation(capsys):
    """Constant-envelope tones leave no residue in the robust numerator."""
    rng = np.random.default_rng(20001)
    t0 = time.perf_counter()
    worst = 0.0
    n = np.arange(3 * N_FFT)
    for _ in range(100):
        amp = 10.0 ** rng.uniform(-1, 1)
        f = rng.uniform(-N_FFT / 2, N_FFT / 2)
        phi = rng.uniform(0, 2 * np.pi)
        tone = TimeSignal(amp * np.exp(1j * (2 * np.pi * f * n / N_FFT + phi)), 0)
        tr = compute_trace(tone, N_FFT)
        worst = max(worst, float(np.max(np.abs(tr.g_nirs))) / (amp * amp * N_FFT / 2))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 1.0
    _report(capsys, 1, ok,
            f"tone residue max {worst:.2e} of A^2 N/2 (bound 1e-9), {dt:.2f} s")
    assert worst < 1e-9
    assert dt < 1.0


def test_criterion_02_zero_variance_cfo(capsys, main_spec):
    """Noiseless flat-channel CFO readout is exact at the true timing."""
    rng = np.random.default_rng(20002)
    t0 = time.perf_counter()
    worst = 0.0
    for nu in np.linspace(-0.9, 0.9, 9):
        y = apply_cfo(_clean_frame(main_spec, rng), float(nu), N_FFT)
        tr = compute_trace(y, N_FFT)
        i0 = int(np.searchsorted(tr.n, 0))
        nu_hat = float(np.angle(tr.g_nirs[i0])) / np.pi
        worst = max(worst, abs(nu_hat - float(nu)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 1.0
    _report(capsys, 2, ok,
            f"max |nu_hat - nu| = {worst:.2e} over 9-point grid (bound 1e-10), {dt:.2f} s")
    assert worst < 1e-10
    assert dt < 1.0


def test_criterion_03_plateau_law(capsys):
    """Tone+noise plateau height tracks gamma/(gamma+1) in the INR gamma."""
    rng = np.random.default_rng(20003)
    t0 = time.perf_counter()
    length = 1000 * N_FFT + N_FFT
    n = np.arange(length)
    rel_errs = {}
    for gamma in (0.1, 1.0, 10.0):
        sigma_w = np.sqrt(1.0 / gamma)
        r = (np.exp(2j * np.pi * 24.5 * n / N_FFT)
             + sigma_w * (rng.standard_normal(length)
                          + 1j * rng.standard_normal(length)) / np.sqrt(2))
        tr = compute_trace(TimeSignal(r, 0), N_FFT, with_nirs=False)
        idx = np.arange(1000) * N_FFT
        stat = abs(np.mean(tr.g[idx])) / np.mean(tr.m[idx])
        expect = gamma / (gamma + 1.0)
        rel_errs[gamma] = abs(stat - expect) / expect
    dt = time.perf_counter() - t0
    worst = max(rel_errs.values())
    ok = worst < 0.05 and dt < 5.0
    _report(capsys, 3, ok,
            f"plateau ratio off by {worst:.1%} worst case over gamma "
            f"{{0.1, 1, 10}} (bound 5%), {dt:.2f} s")
    assert worst < 0.05
    assert dt < 5.0


def test_criterion_04_streaming_equals_direct(capsys):
    """O(1) recursions reproduce the direct correlation sums."""
    rng = np.random.default_rng(20004)
    t0 = time.perf_counter()
    r = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    tr, _, _ = trace_from_recursions(TimeSignal(r, 0), N_FFT, mode="nirs")
    g, m, q = _direct_gmq(r, N_FFT)
    worst = max(float(np.max(np.abs(tr.g - g))),
                float(np.max(np.abs(tr.m - m))),
                float(np.max(np.abs(tr.q - q))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 * N_FFT and dt < 1.0
    _report(capsys, 4, ok,
            f"max |recursions - direct| = {worst:.2e} over 10^3 samples "
            f"(bound {1e-9 * N_FFT:.2e}), {dt:.2f} s")
    assert worst < 1e-9 * N_FFT
    assert dt < 1.0


def test_criterion_05_operation_counts(capsys):
    """Instrumented per-sample costs equal the cost table exactly."""
    rng = np.random.default_rng(20005)
    t0 = time.perf_counter()
    reports = {}
    ok = True
    for mode in ("sc", "nirs"):
        for n_counted in (100, 257, 1000):
            r = (rng.standard_normal(N_FFT + n_counted)
                 + 1j * rng.standard_normal(N_FFT + n_counted))
            _, ops, counted = trace_from_recursions(TimeSignal(r, 0), N_FFT, mode=mode)
            assert counted == n_counted
            rep = count_report(ops, counted)
            ok &= rep == tuple(float(c) for c in COST_PER_SAMPLE[mode])
            reports[mode] = rep
    dt = time.perf_counter() - t0
    _report(capsys, 5, ok,
            f"per-sample (add,mul) sc={reports['sc'][:2]} nirs={reports['nirs'][:2]} "
            f"exact at 100/257/1000 samples, {dt:.2f} s")
    assert ok


def test_criterion_06_closed_form_window_transform(capsys):
    """Closed-form single-symbol correlation matches brute force everywhere."""
    rng = np.random.default_rng(20006)
    t0 = time.perf_counter()
    spec = FrameSpec(smap=notched_map(42), n_cp=32, n_symbols=1)
    pad = N_FFT
    worst = 0.0
    for _ in range(20):
        col = random_data_symbol(spec, rng)
        sym = modulate_symbol(col, spec)
        buf = np.zeros(2 * pad + len(sym), dtype=complex)
        buf[pad : pad + len(sym)] = sym.samples
        y = TimeSignal(buf, origin=pad + spec.n_cp)
        f = 24.5 + rng.uniform(-1, 1)
        nu = rng.uniform(-0.7, 0.7)
        for n in range(-N_FFT // 2 - spec.n_cp + 1, N_FFT):
            bd = b_direct(y, f, nu, n, N_FFT)
            bc = b_closed_form(col, f, nu, n, spec)
            worst = max(worst, abs(bc - bd) / max(1.0, abs(bd)))

    # singular bins: tone parked exactly on an active subcarrier
    col = np.zeros(N_FFT, dtype=complex)
    col[N_FFT // 2 + 46] = 1.0 - 1.0j
    sym = modulate_symbol(col, spec)
    buf = np.zeros(2 * pad + len(sym), dtype=complex)
    buf[pad : pad + len(sym)] = sym.samples
    y = TimeSignal(buf, origin=pad + spec.n_cp)
    for f, nu in ((46.0, 0.0), (46.25, 0.25)):
        for n in (-32, 0, 100):
            bd = b_direct(y, f, nu, n, N_FFT)
            bc = b_closed_form(col, f, nu, n, spec)
            worst = max(worst, abs(bc - bd) / max(1.0, abs(bd)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 5.0
    _report(capsys, 6, ok,
            f"worst rel err {worst:.2e} over 20 grids x all window cases "
            f"+ singular bins (bound 1e-9), {dt:.2f} s")
    assert worst < 1e-9
    assert dt < 5.0


def test_criterion_07_decomposition_identities(capsys):
    """G and Q split exactly into signal, interferer, and cross parts."""
    rng = np.random.default_rng(20007)
    t0 = time.perf_counter()
    spec = FrameSpec(smap=notched_map(42), n_cp=32, n_symbols=4)
    worst = 0.0
    for _ in range(100):
        grid = SymbolGrid(spec)
        grid.data[0] = generate_preamble(spec, rng)
        for p in range(1, spec.n_symbols):
            grid.data[p] = random_data_symbol(spec, rng)
        taps = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / 3.0
        y = apply_multipath(build_frame(grid), ChannelRealization(taps))
        nu = rng.uniform(-0.7, 0.7)
        f = 24.5 + rng.uniform(-1, 1)
        phi = rng.uniform(0, 2 * np.pi)
        sigma_i = rng.uniform(0.2, 2.0)
        tone = TimeSignal(
            sigma_i * np.exp(1j * (2 * np.pi * f * y.n_axis() / N_FFT + phi)),
            y.origin)
        n = int(rng.integers(0, 3 * spec.symbol_len))
        rec = decompose(y, tone, nu, n, N_FFT)
        mix = TimeSignal(apply_cfo(y, nu, N_FFT).samples + tone.samples, y.origin)
        tr = compute_trace(mix, N_FFT)
        i = n + y.origin
        worst = max(worst,
                    abs(rec.g_total - tr.g[i]) / max(1.0, abs(tr.g[i])),
                    abs(rec.q_total - tr.q[i]) / max(1.0, abs(tr.q[i])))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10
    _report(capsys, 7, ok,
            f"worst rel err {worst:.2e} over 100 random mixtures (bound 1e-10), "
            f"{dt:.2f} s")
    assert worst < 1e-10


def test_criterion_08_sync_error_operating_points(capsys):
    """Urban-multipath grid anchors: classic detector fooled by an in-notch
    tone at high SNR, robust detector fine there and in the clean cell."""
    sc = load("sync_error_ideal_tone")
    t0 = time.perf_counter()
    trials = 2000
    hot = run_cell(sc, 20.0, 0.0, trials, sc.master_seed, "snr=20.0|sir=0.0")
    clean = run_cell(sc, 8.0, 100.0, trials, sc.master_seed, "snr=8.0|sir=100.0")
    p_sc = aggregate(hot["sc"]).p_sync_error
    p_nirs = aggregate(hot["nirs"]).p_sync_error
    p_clean = aggregate(clean["nirs"]).p_sync_error
    dt = time.perf_counter() - t0
    ok = p_sc > 0.9 and p_nirs < 0.05 and p_clean <= 0.02
    _report(capsys, 8, ok,
            f"p_err at (20 dB, 0 dB): sc {p_sc:.4f} (>0.9), nirs {p_nirs:.4f} "
            f"(<0.05); nirs at (8 dB, 100 dB): {p_clean:.4f} (<=0.02); "
            f"{trials}/cell, {dt:.0f} s")
    assert p_sc > 0.9
    assert p_nirs < 0.05
    assert p_clean <= 0.02


def test_criterion_09_bandwidth_sweep_trends(capsys):
    """Spreading the interferer helps the classic detector and hurts the
    robust one; wobbles must stay inside the binomial error bars."""
    sc = load("nbi_bandwidth_sweep")
    t0 = time.perf_counter()
    trials = 1000
    rows = run_nbi_bandwidth_sweep(sc, sir_list=(0.0,), snr_db=20.0,
                                   trials=trials, seed=sc.master_seed)
    bws = sorted({row["bandwidth_hz"] for row in rows})
    ok = len(bws) >= 5 and min(bws) >= 4e3 and max(bws) <= 200e3
    detail_parts = []
    for algo, direction in (("nirs", +1), ("sc", -1)):
        seq = [(row["p_sync_error"], row["ci95_halfwidth"])
               for bw in bws for row in rows
               if row["bandwidth_hz"] == bw and row["algorithm"] == algo]
        for (p0, c0), (p1, c1) in zip(seq, seq[1:]):
            violation = (p0 - p1) if direction > 0 else (p1 - p0)
            if violation > 0:
                ok &= violation <= c0 + c1
        detail_parts.append(
            f"{algo} [" + ", ".join(f"{p:.3f}" for p, _ in seq) + "]")
    dt = time.perf_counter() - t0
    _report(capsys, 9, ok,
            f"p_err vs bandwidth {bws[0] / 1e3:.0f}..{bws[-1] / 1e3:.0f} kHz: "
            + "; ".join(detail_parts) + f"; {trials}/point, {dt:.0f} s")
    assert ok


def test_criterion_10_notch_width_study(capsys):
    """Cross-term power falls monotonically as the spectral notch widens."""
    rng = np.random.default_rng(20010)
    t0 = time.perf_counter()
    widths = (0, 6, 14, 26, 42)
    ok = True
    details = []
    for timing in ("optimal", "random_data"):
        ratios, cis = [], []
        for w in widths:
            stats = relative_cross_power(w, 0.0, timing, 400, rng)
            ratios.append(stats.ratio)
            cis.append(stats.bootstrap_ci(rng))
        decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
        separated = cis[-1][1] < cis[0][0]  # widest notch clears the CI of none
        ok &= decreasing and separated
        details.append(f"{timing}: {ratios[0]:.3g}->{ratios[-1]:.3g} "
                       f"{'dec' if decreasing else 'NOT-DEC'}/"
                       f"{'sep' if separated else 'NOT-SEP'}")
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    _report(capsys, 10, ok, "; ".join(details) + f"; 400 trials/point, {dt:.0f} s")
    assert ok
    assert dt < 60.0


def test_criterion_11_preamble_ber_under_strong_tone(capsys):
    """Robust detector keeps the preamble demodulable at SIR = -10 dB."""
    sc = load("sync_error_ideal_tone")
    t0 = time.perf_counter()
    trials = 2000
    out = run_cell(sc, 20.0, -10.0, trials, sc.master_seed, "snr=20.0|sir=-10.0")
    stats = aggregate(out["nirs"])
    dt = time.perf_counter() - t0
    ok = stats.ber < 0.1
    _report(capsys, 11, ok,
            f"nirs preamble BER {stats.ber:.4f} at (20 dB, -10 dB) over "
            f"{trials} frames (bound 0.1), {dt:.0f} s")
    assert stats.ber < 0.1


def test_criterion_12_byte_identical_reruns(capsys, tmp_path):
    """Same preset, same seed, same bytes out."""
    sc = load("quick_demo")
    t0 = time.perf_counter()
    for d in ("first", "second"):
        run_scenario(sc, out_dir=tmp_path / d, trials=25, seed=sc.master_seed)
    a = (tmp_path / "first/results.csv").read_bytes()
    b = (tmp_path / "second/results.csv").read_bytes()
    same_manifest = ((tmp_path / "first/manifest.json").read_bytes()
                     == (tmp_path / "second/manifest.json").read_bytes())
    dt = time.perf_counter() - t0
    ok = a == b and same_manifest
    _report(capsys, 12, ok,
            f"results.csv identical: {a == b}; manifest identical: "
            f"{same_manifest}; {dt:.1f} s")
    assert a == b
    assert same_manifest
