"""Channel, CFO, interference, and calibration behavior."""

import numpy as np
import pytest

from ncsync import (ChannelRealization, MixSpec, NbiSpec, TimeSignal, apply_cfo,
                    apply_multipath, calibrate_and_mix, draw_channel_cost207tu,
                    gen_nbi)
from ncsync.impairments import carson_deviation_hz, mean_power

EXACT_TOL = 1e-12
RATIO_TOL = 1e-9
N_FFT = 256
FS = 256 * 15e3


def cn_signal(rng, size, origin=0):
    return TimeSignal(rng.standard_normal(2 * size).view(np.complex128), origin)


def test_multipath_identity_channel():
    rng = np.random.default_rng(1)
    x = cn_signal(rng, 64, origin=10)
    y = apply_multipath(x, ChannelRealization(np.array([1.0])))
    np.testing.assert_array_equal(y.samples, x.samples)  # a flat channel keeps every value
    assert y.origin == 10


def test_multipath_pure_delay():
    rng = np.random.default_rng(2)
    x = cn_signal(rng, 32)
    y = apply_multipath(x, ChannelRealization(np.array([0.0, 1.0])))
    assert len(y) == 33
    np.testing.assert_allclose(y.samples[1:], x.samples, atol=EXACT_TOL)
    assert y.samples[0] == 0


def test_multipath_impulse_response():
    x = TimeSignal(np.array([1.0 + 0j]), origin=0)
    y = apply_multipath(x, ChannelRealization(np.array([0.6, 0.8j])))
    np.testing.assert_allclose(y.samples, [0.6, 0.8j], atol=EXACT_TOL)


def test_channel_rejects_empty_taps():
    with pytest.raises(ValueError):
        ChannelRealization(np.array([]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.5, np.nan),
                                   complex(-np.inf, 1.0)])
def test_channel_rejects_a_non_finite_tap_naming_its_index(value):
    # A NaN tap once passed silently into every filtered sample.
    taps = np.array([0.8, 0.0, 0.3j, 0.1], dtype=np.complex128)
    taps[2] = value
    with pytest.raises(ValueError, match=r"^channel tap 2 is not finite: "):
        ChannelRealization(taps)


def test_channel_freq_response():
    flat = ChannelRealization(np.array([1.0]))
    np.testing.assert_allclose(flat.freq_response([-5, 0, 7], 16), 1.0, atol=EXACT_TOL)
    delay = ChannelRealization(np.array([0.0, 1.0]))
    ks = np.array([-8, -1, 0, 3])
    np.testing.assert_allclose(delay.freq_response(ks, 16),
                               np.exp(-2j * np.pi * ks / 16), atol=EXACT_TOL)


def test_cfo_zero_is_identity():
    rng = np.random.default_rng(3)
    x = cn_signal(rng, 50, origin=7)
    y = apply_cfo(x, 0.0, N_FFT)
    np.testing.assert_array_equal(y.samples, x.samples)


def test_cfo_full_cycle_wraps():
    # nu = N means a phase ramp of exactly 2 pi per sample
    rng = np.random.default_rng(4)
    x = cn_signal(rng, 400, origin=100)
    y = apply_cfo(x, float(N_FFT), N_FFT)
    np.testing.assert_allclose(y.samples, x.samples, atol=1e-12)


def test_cfo_unimodular_and_invertible():
    rng = np.random.default_rng(5)
    x = cn_signal(rng, 200, origin=60)
    y = apply_cfo(x, 0.41, N_FFT)
    np.testing.assert_allclose(np.abs(y.samples), np.abs(x.samples), rtol=1e-12)
    back = apply_cfo(y, -0.41, N_FFT)
    np.testing.assert_allclose(back.samples, x.samples, atol=1e-12)


def test_cfo_phase_reference_is_the_origin():
    x = TimeSignal(np.ones(8, dtype=complex), origin=3)
    y = apply_cfo(x, 0.3, N_FFT)
    assert y.samples[3] == pytest.approx(1.0 + 0.0j)
    assert np.angle(y.samples[4]) == pytest.approx(2 * np.pi * 0.3 / N_FFT)


def test_tone_nbi_samples():
    spec = NbiSpec(kind="ideal_tone", f_c=24.5)
    sig = gen_nbi(spec, 64, 0, N_FFT)
    assert sig.samples[0] == pytest.approx(1.0 + 0.0j, abs=EXACT_TOL)
    np.testing.assert_allclose(np.abs(sig.samples), 1.0, atol=EXACT_TOL)
    step = np.exp(2j * np.pi * 24.5 / N_FFT)
    np.testing.assert_allclose(sig.samples[1:], sig.samples[:-1] * step, atol=1e-12)
    # with a nonzero origin the zero-phase sample moves there
    shifted = gen_nbi(spec, 64, 17, N_FFT)
    assert shifted.samples[17] == pytest.approx(1.0 + 0.0j, abs=EXACT_TOL)


def test_nbi_offset_moves_the_carrier():
    spec = NbiSpec(kind="ideal_tone", f_c=24.5, freq_offset_hz=7.5e3,
                   sc_spacing_hz=15e3)
    assert spec.f_total == pytest.approx(25.0)


def test_all_nbi_kinds_have_unit_envelope():
    rng = np.random.default_rng(6)
    for kind in ("ideal_tone", "fm_carson", "fm_wideband"):
        spec = NbiSpec(kind=kind, f_c=24.5, phase0=1.2)
        sig = gen_nbi(spec, 500, 30, N_FFT, rng)
        np.testing.assert_allclose(np.abs(sig.samples), 1.0, atol=EXACT_TOL)


def test_fm_with_vanishing_deviation_is_a_tone():
    beta = 1e-6
    tone = gen_nbi(NbiSpec(kind="ideal_tone", f_c=24.5), 1000, 0, N_FFT)
    fm = gen_nbi(NbiSpec(kind="fm_carson", f_c=24.5, f_m_hz=1e3,
                         delta_f_hz=beta * 1e3), 1000, 0, N_FFT, rng=None)
    # |exp(j beta m) - 1| = 2 |sin(beta m / 2)|, and the message m reaches 1
    # at n = 960, so the supremum is attained: the bound is it plus rounding.
    bound = 2 * np.sin(beta / 2) + 4 * np.finfo(float).eps
    assert np.abs(fm.samples - tone.samples).max() < bound


def test_carson_bandwidth_values():
    # 28 kHz at a 1 kHz message is sync_error_fm_28k's 13 kHz deviation
    assert carson_deviation_hz(28e3, 1e3) == 13e3
    assert carson_deviation_hz(200e3, 1e3) == 99e3
    for bandwidth in (2e3, 1e3):
        with pytest.raises(ValueError, match="Carson"):
            carson_deviation_hz(bandwidth, 1e3)


def test_nbi_spec_validation():
    with pytest.raises(ValueError):
        NbiSpec(kind="chirp", f_c=0.0)
    with pytest.raises(ValueError):
        NbiSpec(kind="fm_carson", f_c=0.0, delta_f_hz=0.0)
    with pytest.raises(ValueError):
        NbiSpec(kind="fm_carson", f_c=0.0, f_m_hz=-1.0)
    with pytest.raises(ValueError):
        NbiSpec(kind="fm_wideband", f_c=0.0, f_m_hz=1e3, bandwidth_hz=2e3)
    with pytest.raises(ValueError):
        gen_nbi(NbiSpec(kind="ideal_tone", f_c=0.0), 0, 0, N_FFT)


NBI_NUMBERS = ("f_c", "phase0", "freq_offset_hz", "f_m_hz", "delta_f_hz", "bandwidth_hz",
               "sc_spacing_hz")


@pytest.mark.parametrize("kind", ["ideal_tone", "fm_carson", "fm_wideband"])
@pytest.mark.parametrize("field", NBI_NUMBERS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nbi_spec_rejects_a_non_finite_number_naming_it(kind, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        NbiSpec(kind=kind, **{"f_c": 3.5, field: value})


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, 0.0, -1e6])
def test_urban_channel_rejects_a_rate_that_is_not_positive_and_finite(rate):
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match=f"sample_rate_hz must be positive and finite, "
                                         f"got {rate}"):
        draw_channel_cost207tu(rng, rate)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def test_fm_phase_is_locally_linear_at_28khz():
    """Over any one-FFT-length window the FM phase is close to a line.

    RMS residual of the best linear fit stays below 0.1 rad for a 28 kHz
    occupied bandwidth, which is what lets the quarter-lag probe treat the
    interferer as a tone.
    """
    rng = np.random.default_rng(7)
    spec = NbiSpec(kind="fm_carson", f_c=24.5, f_m_hz=1e3, delta_f_hz=13e3,
                   sc_spacing_hz=15e3)
    sig = gen_nbi(spec, 8192, 0, N_FFT, rng)  # covers two message periods
    phase = np.unwrap(np.angle(sig.samples))
    t = np.arange(N_FFT)
    worst = 0.0
    for start in range(0, 8192 - N_FFT, 16):
        seg = phase[start : start + N_FFT]
        resid = seg - np.polyval(np.polyfit(t, seg, 1), t)
        worst = max(worst, float(np.sqrt(np.mean(resid**2))))
    assert worst < 0.1


def test_calibration_hits_requested_levels():
    rng = np.random.default_rng(8)
    y = cn_signal(rng, 2000, origin=500)
    nbi = gen_nbi(NbiSpec(kind="ideal_tone", f_c=24.5), 2000, 500, N_FFT)
    active = slice(400, None)
    mix = calibrate_and_mix(y, nbi, MixSpec(snr_db=13.0, sir_db=4.0), active,
                            rng.standard_normal(2 * 2000).view(np.complex128))

    p_sig = mean_power(y.samples[active])
    p_nbi = mean_power(mix.nbi_part[active])
    p_noise = mean_power(mix.noise_part[active])
    np.testing.assert_allclose(p_sig / p_nbi, 10 ** 0.4, rtol=RATIO_TOL)
    np.testing.assert_allclose(p_sig / p_noise, 10 ** 1.3, rtol=RATIO_TOL)
    # round trip in dB
    assert 10 * np.log10(p_sig / p_noise) == pytest.approx(13.0, abs=0.01)
    assert 10 * np.log10(p_sig / p_nbi) == pytest.approx(4.0, abs=0.01)
    np.testing.assert_allclose(
        mix.received.samples,
        y.samples + mix.nbi_part + mix.noise_part, atol=EXACT_TOL)


def test_calibration_inf_sentinels_disable_terms():
    rng = np.random.default_rng(9)
    y = cn_signal(rng, 300)
    nbi = gen_nbi(NbiSpec(kind="ideal_tone", f_c=10.0), 300, 0, N_FFT)
    mix = calibrate_and_mix(y, nbi, MixSpec(snr_db=np.inf, sir_db=np.inf),
                            slice(0, None), rng.standard_normal(2 * 300).view(np.complex128))
    assert np.all(mix.noise_part == 0)
    assert np.all(mix.nbi_part == 0)
    assert mix.sigma_i2 == 0.0 and mix.sigma_w2 == 0.0
    np.testing.assert_array_equal(mix.received.samples, y.samples)


@pytest.mark.parametrize("snr_db, sir_db, name", [
    (20.0, -np.inf, "sir_db"), (-np.inf, 0.0, "snr_db"),
    (np.nan, 0.0, "snr_db"), (20.0, np.nan, "sir_db"),
])
def test_mix_levels_reject_nan_and_minus_inf(snr_db, sir_db, name):
    # -inf once zeroed its term like +inf, a silently wrong answer.
    with pytest.raises(ValueError, match=f"^{name} must be a number of dB or \\+inf"):
        MixSpec(snr_db, sir_db)


def test_calibration_sir_100db_power_gap():
    rng = np.random.default_rng(10)
    y = cn_signal(rng, 1000)
    nbi = gen_nbi(NbiSpec(kind="ideal_tone", f_c=24.5), 1000, 0, N_FFT)
    mix = calibrate_and_mix(y, nbi, MixSpec(snr_db=np.inf, sir_db=100.0),
                            slice(0, None), rng.standard_normal(2 * 1000).view(np.complex128))
    gap = mean_power(y.samples) / mean_power(mix.nbi_part)
    np.testing.assert_allclose(gap, 1e10, rtol=1e-6)


def test_calibration_rejects_bad_buffers():
    rng = np.random.default_rng(11)
    y = cn_signal(rng, 100)
    short = gen_nbi(NbiSpec(kind="ideal_tone", f_c=1.0), 99, 0, N_FFT)
    with pytest.raises(ValueError):
        calibrate_and_mix(y, short, MixSpec(10, 10), slice(0, None),
                          rng.standard_normal(2 * 100).view(np.complex128))
    moved = gen_nbi(NbiSpec(kind="ideal_tone", f_c=1.0), 100, 5, N_FFT)
    with pytest.raises(ValueError):
        calibrate_and_mix(y, moved, MixSpec(10, 10), slice(0, None),
                          rng.standard_normal(2 * 100).view(np.complex128))
    silent = TimeSignal(np.zeros(100, dtype=complex), origin=0)
    tone = gen_nbi(NbiSpec(kind="ideal_tone", f_c=1.0), 100, 0, N_FFT)
    with pytest.raises(ValueError):
        calibrate_and_mix(silent, tone, MixSpec(10, 10), slice(0, None),
                          rng.standard_normal(2 * 100).view(np.complex128))
    with pytest.raises(ValueError, match="noise draw"):
        calibrate_and_mix(y, tone, MixSpec(10, 10), slice(0, None),
                          rng.standard_normal(2 * 99).view(np.complex128))


@pytest.mark.parametrize("which, y_value, noise_value, got", [
    ("signal", 0.0, 1.0, "0.0"), ("signal", np.nan, 1.0, "nan"),
    ("signal", np.inf, 1.0, "inf"), ("signal", 1e200, 1.0, "inf"),
    ("noise", 1.0, 0.0, "0.0"), ("noise", 1.0, np.nan, "nan"), ("noise", 1.0, np.inf, "inf"),
])
def test_mix_names_a_zero_or_non_finite_measured_power(which, y_value, noise_value, got):
    # Zeros over the active region, a value outside it: only the region counts.
    y = TimeSignal(np.full(100, complex(y_value)), origin=0)
    y.samples[:10] = 1.0
    noise = np.full(100, complex(noise_value))
    noise[:10] = 1.0
    nbi = gen_nbi(NbiSpec(kind="ideal_tone", f_c=1.0), 100, 0, N_FFT)
    named = f"{which} power over the active region is {got}, not > 0 and finite"
    with np.errstate(over="ignore"):  # |1e200|^2 overflows to inf
        with pytest.raises(ValueError, match=named):
            calibrate_and_mix(y, nbi, MixSpec(10.0, 10.0), slice(10, None), noise)
        powers = (mean_power(y.samples[10:]), mean_power(noise[10:]))
    with pytest.raises(ValueError, match=named):
        calibrate_and_mix(y, nbi, MixSpec(10.0, 10.0), slice(10, None), noise, powers=powers)


def test_mix_does_not_measure_the_noise_at_an_infinite_snr():
    y = cn_signal(np.random.default_rng(18), 100)
    nbi = gen_nbi(NbiSpec(kind="ideal_tone", f_c=1.0), 100, 0, N_FFT)
    mix = calibrate_and_mix(y, nbi, MixSpec(np.inf, 10.0), slice(0, None),
                            np.zeros(100, dtype=complex))
    assert mix.sigma_w2 == 0.0 and not mix.noise_part.any()


def test_mix_draws_from_a_generator_only_at_a_finite_snr():
    # A generator in place of the noise draw is drawn from as the draw is
    # made, so the mix is the same either way.
    y = cn_signal(np.random.default_rng(13), 400, origin=50)
    nbi = gen_nbi(NbiSpec(kind="ideal_tone", f_c=24.5), 400, 50, N_FFT)
    active = slice(100, None)
    drawn = np.random.default_rng(14).standard_normal(2 * 400).view(np.complex128)
    want = calibrate_and_mix(y, nbi, MixSpec(13.0, 4.0), active, drawn)
    got = calibrate_and_mix(y, nbi, MixSpec(13.0, 4.0), active, np.random.default_rng(14))
    assert got.received.samples.tobytes() == want.received.samples.tobytes()
    rng = np.random.default_rng(15)
    calibrate_and_mix(y, nbi, MixSpec(np.inf, 4.0), active, rng)
    assert rng.uniform() == np.random.default_rng(15).uniform()


@pytest.mark.parametrize("snr_db, sir_db", [(13.0, 4.0), (np.inf, 4.0), (13.0, np.inf),
                                            (np.inf, np.inf)])
def test_mix_with_measured_powers_is_the_measuring_mix(snr_db, sir_db):
    # A draw mixed at many levels measures its two powers once and passes
    # them in; the mix must be the one that measures them itself.
    y = cn_signal(np.random.default_rng(16), 400, origin=50)
    nbi = gen_nbi(NbiSpec(kind="ideal_tone", f_c=24.5), 400, 50, N_FFT)
    active = slice(100, None)
    noise = np.random.default_rng(17).standard_normal(2 * 400).view(np.complex128)
    powers = (mean_power(y.samples[active]), mean_power(noise[active]))
    want = calibrate_and_mix(y, nbi, MixSpec(snr_db, sir_db), active, noise)
    got = calibrate_and_mix(y, nbi, MixSpec(snr_db, sir_db), active, noise, powers=powers)
    for field in ("nbi_part", "noise_part"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert got.received.samples.tobytes() == want.received.samples.tobytes()
    assert got.received.origin == want.received.origin
    assert (got.sigma_i2, got.sigma_w2) == (want.sigma_i2, want.sigma_w2)


def test_urban_channel_profile():
    rng = np.random.default_rng(12)
    n_draws = 10_000
    total = 0.0
    tap_sum = np.zeros(20, dtype=np.complex128)
    for _ in range(n_draws):
        ch = draw_channel_cost207tu(rng, FS)
        assert ch.taps.size == 20  # last tap at 5.0 us * 3.84 MHz = 19 samples
        nz = np.nonzero(ch.taps)[0]
        assert set(nz) <= {0, 1, 2, 6, 9, 19}
        total += np.sum(np.abs(ch.taps) ** 2)
        tap_sum += ch.taps
    mean_total = total / n_draws
    assert abs(mean_total - 1.0) < 0.02

    # per-tap means should be consistent with zero-mean complex Gaussians
    powers = 10.0 ** (np.array([-3.0, 0.0, -2.0, -6.0, -8.0, -10.0]) / 10.0)
    powers /= powers.sum()
    for idx, p in zip((0, 1, 2, 6, 9, 19), powers):
        assert abs(tap_sum[idx] / n_draws) < 4 * np.sqrt(p / n_draws)


def test_urban_channel_delay_quantization():
    rng = np.random.default_rng(13)
    # at a coarser sample rate several profile delays collapse onto one tap
    ch = draw_channel_cost207tu(rng, 1e6)
    assert ch.taps.size == 6  # delays round to {0, 0, 0, 2, 2, 5}
    assert set(np.nonzero(ch.taps)[0]) <= {0, 2, 5}
    with pytest.raises(ValueError):
        draw_channel_cost207tu(rng, 0.0)
