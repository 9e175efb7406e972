"""Window-transform closed forms and the G/Q mixture decomposition."""

import numpy as np
import pytest

from ncsync import (ChannelRealization, FrameSpec, SubcarrierMap, SymbolGrid,
                    TimeSignal, apply_multipath, build_frame, generate_preamble,
                    modulate_symbol, random_data_symbol)
from ncsync import crossterm
from ncsync.crossterm import (b_closed_form, b_direct, decompose,
                              g_cross_from_b, notched_map, q_cross_from_b,
                              relative_cross_power, tone_g, tone_q)
from ncsync.metrics import compute_trace
from ncsync.scenario import load

N_FFT = 256
N_CP = 32
REL_TOL = 1e-9


def padded_symbol(column, spec, pad=N_FFT):
    """One CP-extended symbol inside a zero buffer, origin on the body start."""
    sym = modulate_symbol(column, spec)
    buf = np.zeros(2 * pad + len(sym), dtype=complex)
    buf[pad : pad + len(sym)] = sym.samples
    return TimeSignal(buf, origin=pad + spec.n_cp)


@pytest.fixture(scope="module")
def notch_spec():
    return FrameSpec(smap=notched_map(42), n_cp=N_CP, n_symbols=1)


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(b))


def test_b_direct_basics(notch_spec):
    zeros = TimeSignal(np.zeros(300, dtype=complex), origin=0)
    assert b_direct(zeros, 3.7, 0.1, 10, N_FFT) == 0
    assert b_closed_form(np.zeros(N_FFT), 3.7, 0.1, 10, notch_spec) == 0
    ones = TimeSignal(np.ones(300, dtype=complex), origin=0)
    # f = nu makes every rotation factor unity
    assert b_direct(ones, 0.25, 0.25, 40, N_FFT) == pytest.approx(N_FFT / 2)
    with pytest.raises(ValueError):
        b_direct(ones, 0.0, 0.0, 200, N_FFT)  # window exceeds the buffer


def test_closed_form_matches_direct_everywhere(notch_spec):
    rng = np.random.default_rng(83)
    worst = 0.0
    for _ in range(5):
        column = random_data_symbol(notch_spec, rng)
        y = padded_symbol(column, notch_spec)
        f = 24.5 + rng.uniform(-1, 1)
        nu = rng.uniform(-0.7, 0.7)
        # a handful of window starts from each overlap case
        for n in (-159, -140, -50, -33, -32, -1, 0, 64, 128, 129, 200, 255):
            assert rel_err(b_closed_form(column, f, nu, int(n), notch_spec),
                           b_direct(y, f, nu, int(n), N_FFT)) < REL_TOL
            worst = max(worst, rel_err(
                b_closed_form(column, f, nu, int(n), notch_spec),
                b_direct(y, f, nu, int(n), N_FFT)))
    assert worst < REL_TOL


def test_closed_form_rejects_windows_off_the_symbol(notch_spec):
    column = np.zeros(N_FFT, dtype=complex)
    column[N_FFT // 2 + 46] = 1.0
    with pytest.raises(ValueError):
        b_closed_form(column, 24.5, 0.0, -160, notch_spec)
    with pytest.raises(ValueError):
        b_closed_form(column, 24.5, 0.0, 256, notch_spec)
    with pytest.raises(ValueError):
        b_closed_form(np.zeros(10, dtype=complex), 24.5, 0.0, 0, notch_spec)


def test_singular_bin_takes_the_limit_value(notch_spec):
    """Bins with k - f + nu on a multiple of N get the exact window-length
    value instead of a 0/0 sine ratio."""
    column = np.zeros(N_FFT, dtype=complex)
    column[N_FFT // 2 + 46] = 0.8 - 0.6j
    y = padded_symbol(column, notch_spec)
    for f, nu in ((46.25, 0.25), (46.0, 0.0), (46.0 - N_FFT, 0.0)):
        for n in (-32, 0, 17, 128):
            bc = b_closed_form(column, f, nu, n, notch_spec)
            assert rel_err(bc, b_direct(y, f, nu, n, N_FFT)) < REL_TOL
        # full-window case: |b| = |d_k| sqrt(N) / 2
        assert abs(b_closed_form(column, f, nu, 0, notch_spec)) == pytest.approx(
            np.sqrt(N_FFT) / 2, rel=1e-12)


def test_peak_envelope_decays_with_frequency_distance(notch_spec):
    """Max |b| over all window positions falls off as sqrt(N) / (pi * delta)."""
    column = np.zeros(N_FFT, dtype=complex)
    k = 46
    column[N_FFT // 2 + k] = 1.0
    for delta in (2, 4, 8):
        f = k - delta
        peak = max(abs(b_closed_form(column, f, 0.0, n, notch_spec))
                   for n in range(-N_FFT // 2 - N_CP + 1, N_FFT))
        expected = np.sqrt(N_FFT) / (np.pi * delta)
        assert abs(peak - expected) / expected < 0.10


def test_tone_only_decomposition():
    zeros = TimeSignal(np.zeros(600, dtype=complex), origin=0)
    n_axis = np.arange(600)
    f = 24.5
    tone = TimeSignal(np.exp(2j * np.pi * f * n_axis / N_FFT), origin=0)
    rec = decompose(zeros, tone, 0.3, 100, N_FFT)
    assert rec.g_y == 0 and rec.q_y == 0
    assert rec.g_cross == 0 and rec.q_cross == 0
    np.testing.assert_allclose(rec.g_i, tone_g(1.0, f, N_FFT), atol=1e-9)
    np.testing.assert_allclose(rec.q_i, tone_q(1.0, f, N_FFT), atol=1e-9)
    np.testing.assert_allclose(rec.g_i, 128j, atol=1e-8)


def test_no_interferer_decomposition(notch_spec):
    rng = np.random.default_rng(89)
    y = padded_symbol(random_data_symbol(notch_spec, rng), notch_spec)
    silent = TimeSignal(np.zeros(len(y), dtype=complex), origin=y.origin)
    rec = decompose(y, silent, 0.0, 0, N_FFT)
    assert rec.g_i == 0 and rec.g_cross == 0
    assert rec.q_i == 0 and rec.q_cross == 0
    tr = compute_trace(y, N_FFT)
    i = 0 + y.origin
    np.testing.assert_allclose(rec.g_y, tr.g[i], rtol=1e-12)


def test_decomposition_sums_to_the_full_correlations(notch_spec):
    rng = np.random.default_rng(97)
    spec = FrameSpec(smap=notch_spec.smap, n_cp=N_CP, n_symbols=4)
    for _ in range(10):
        grid = SymbolGrid(spec)
        grid.data[0] = generate_preamble(spec, rng)
        for p in range(1, 4):
            grid.data[p] = random_data_symbol(spec, rng)
        taps = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / 2.5
        y = apply_multipath(build_frame(grid), ChannelRealization(taps))
        nu = rng.uniform(-0.7, 0.7)
        f = 24.5 + rng.uniform(-1, 1)
        phi = rng.uniform(0, 2 * np.pi)
        sigma_i = rng.uniform(0.2, 2.0)
        idx = y.n_axis()
        tone = TimeSignal(
            sigma_i * np.exp(1j * (2 * np.pi * f * idx / N_FFT + phi)), y.origin)
        n = int(rng.integers(0, 3 * spec.symbol_len))
        rec = decompose(y, tone, nu, n, N_FFT)

        from ncsync import apply_cfo
        mix = TimeSignal(apply_cfo(y, nu, N_FFT).samples + tone.samples, y.origin)
        tr = compute_trace(mix, N_FFT)
        i = n + y.origin
        assert tr.n[i] == n
        assert abs(rec.g_total - tr.g[i]) < 1e-10 * max(1.0, abs(tr.g[i]))
        assert abs(rec.q_total - tr.q[i]) < 1e-10 * max(1.0, abs(tr.q[i]))

        # cross terms predicted through the window transform
        gc = g_cross_from_b(y, f, nu, sigma_i, phi, n, N_FFT)
        qc = q_cross_from_b(y, f, nu, sigma_i, phi, n, N_FFT)
        assert rel_err(gc, rec.g_cross) < 1e-10
        assert rel_err(qc, rec.q_cross) < 1e-10


def test_notched_map_widths():
    assert notched_map(0).n_occupied == 200
    main = notched_map(42)
    assert main.occupied == tuple(range(-100, 0)) + (1, 2, 3) + tuple(range(46, 101))
    # The notch study's preset, whose interferer the notch is centred on.
    assert main == load(crossterm.STUDY_PRESET).frame.smap
    narrow = notched_map(2)
    assert 24 not in narrow.occupied and 25 not in narrow.occupied
    assert 23 in narrow.occupied and 26 in narrow.occupied
    with pytest.raises(ValueError):
        notched_map(3)
    with pytest.raises(ValueError):
        notched_map(-2)


def test_relative_cross_power_basics():
    rng = np.random.default_rng(103)
    quiet = relative_cross_power(0, np.inf, "optimal", 3, rng)
    assert quiet.ratio == 0.0
    with pytest.raises(ValueError):
        relative_cross_power(0, 0.0, "peak", 3, rng)
    with pytest.raises(ValueError):
        relative_cross_power(0, 0.0, "optimal", 0, rng)


@pytest.mark.parametrize("sir_db", [np.nan, -np.inf])
def test_relative_cross_power_rejects_a_sir_without_meaning(sir_db):
    with pytest.raises(ValueError, match="sir_db must be a number of dB"):
        relative_cross_power(0, sir_db, "optimal", 3, np.random.default_rng(0))


def test_wider_notch_leaves_less_cross_power():
    rng = np.random.default_rng(107)
    open_map = relative_cross_power(0, 0.0, "optimal", 80, rng)
    notched = relative_cross_power(42, 0.0, "optimal", 80, rng)
    assert notched.ratio < open_map.ratio
    lo, hi = open_map.bootstrap_ci(rng)
    assert lo <= open_map.ratio <= hi
