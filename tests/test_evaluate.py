"""Trial scoring: error classification, preamble BER, aggregation."""

import warnings

import numpy as np
import pytest

from ncsync import (ChannelRealization, FrameSpec, SubcarrierMap, SymbolGrid,
                    TimeSignal, build_frame, preamble_from_bits)
from ncsync.detect import SyncResult
from ncsync.evaluate import aggregate, ber_preamble, classify, TrialOutcome
from ncsync.ofdm import demap_qpsk

N_CP = 32


def sync_at(n_hat, nu_hat=0.0, mode="sc"):
    return SyncResult(n_hat=n_hat, nu_hat=nu_hat, peak_value=1.0, mode=mode)


def preamble_frame(spec, bits):
    grid = SymbolGrid(spec)
    grid.data[0] = preamble_from_bits(spec, bits)
    return build_frame(grid)


def response(ch, spec):
    return ch.freq_response(spec.smap.even_occupied(), spec.n_fft)


def test_classification_thresholds_are_strict():
    assert classify(sync_at(33), 0.0, N_CP).is_sync_error
    assert classify(sync_at(-33), 0.0, N_CP).is_sync_error
    assert classify(sync_at(0, 0.51), 0.0, N_CP).is_sync_error
    assert classify(sync_at(0, -0.51), 0.0, N_CP).is_sync_error
    # the boundary itself still counts as a success
    assert not classify(sync_at(-32, 0.49), 0.0, N_CP).is_sync_error
    assert not classify(sync_at(32, -0.5), 0.0, N_CP).is_sync_error
    assert not classify(sync_at(0), 0.0, N_CP).is_sync_error


def test_classification_fields():
    out = classify(sync_at(5, 0.3), 0.1, N_CP, bit_errors=3, bits_total=158)
    assert out.timing_error == 5
    assert out.cfo_error == pytest.approx(0.2)
    assert not out.is_sync_error
    assert (out.bit_errors, out.bits_total) == (3, 158)


def test_aggregate_math():
    perfect = [TrialOutcome(0, 0.0, False, 0, 100) for _ in range(4)]
    stats = aggregate(perfect)
    assert (stats.p_sync_error, stats.mse_time, stats.mse_freq, stats.ber) == (0, 0, 0, 0)
    assert stats.ci_halfwidth == 0.0
    assert stats.n_trials == 4

    single = aggregate([TrialOutcome(10, 0.1, False)])
    assert single.mse_time == pytest.approx(100.0)
    assert single.mse_freq == pytest.approx(0.01)
    assert single.ber == 0.0  # no bits demodulated

    mixed = aggregate([TrialOutcome(0, 0.0, False, 1, 10),
                       TrialOutcome(40, 0.6, True, 5, 10)])
    assert mixed.p_sync_error == pytest.approx(0.5)
    assert mixed.ci_halfwidth == pytest.approx(1.96 * np.sqrt(0.25 / 2))
    assert mixed.mse_time == pytest.approx(800.0)
    assert mixed.ber == pytest.approx(0.3)

    with pytest.raises(ValueError):
        aggregate([])


def test_ber_zero_on_perfect_sync(main_spec):
    rng = np.random.default_rng(61)
    spec = FrameSpec(smap=main_spec.smap, n_cp=32, n_symbols=2, n_empty_prefix=1)
    bits = rng.integers(0, 2, size=158)
    frame = preamble_frame(spec, bits)
    flat = ChannelRealization(np.array([1.0]))
    [(errs, total)] = ber_preamble(frame, [sync_at(0)], response(flat, spec), bits, spec)
    assert (errs, total) == (0, 158)


def test_ber_zero_for_timing_offsets_inside_cp(main_spec):
    """A timing miss absorbed by the CP is a pure per-bin phase ramp, and the
    equalizer compensates it from the detected offset."""
    rng = np.random.default_rng(67)
    spec = FrameSpec(smap=main_spec.smap, n_cp=32, n_symbols=2, n_empty_prefix=1)
    bits = rng.integers(0, 2, size=158)
    frame = preamble_frame(spec, bits)
    flat = ChannelRealization(np.array([1.0]))
    for offset in (-32, -17, 0):
        [(errs, total)] = ber_preamble(frame, [sync_at(offset)], response(flat, spec), bits,
                                       spec)
        assert (errs, total) == (0, 158), f"offset {offset}"


def test_ber_is_half_on_pure_noise(main_spec):
    rng = np.random.default_rng(71)
    spec = FrameSpec(smap=main_spec.smap, n_cp=32, n_symbols=2, n_empty_prefix=1)
    flat = ChannelRealization(np.array([1.0]))
    errors = total = 0
    for _ in range(70):
        bits = rng.integers(0, 2, size=158)
        noise = TimeSignal(rng.standard_normal(2 * spec.total_len).view(np.complex128),
                           origin=spec.n_empty_prefix * spec.symbol_len + spec.n_cp)
        [(e, t)] = ber_preamble(noise, [sync_at(0)], response(flat, spec), bits, spec)
        errors += e
        total += t
    assert total >= 10_000
    assert abs(errors / total - 0.5) < 0.02


def test_ber_skips_bins_the_channel_nulls():
    spec = FrameSpec(smap=SubcarrierMap(n_fft=16, occupied=(0, 2)), n_cp=4,
                     n_symbols=1)
    bits = np.array([0, 1, 1, 0])
    frame = preamble_frame(spec, bits)
    # h = [1, -1] has a spectral null exactly at k = 0
    ch = ChannelRealization(np.array([1.0, -1.0]))
    from ncsync import apply_multipath

    received = apply_multipath(frame, ch)
    with pytest.warns(RuntimeWarning, match="zero channel response"):
        [(errs, total)] = ber_preamble(received, [sync_at(0)], response(ch, spec), bits, spec)
    assert total == 2  # only the k = 2 bin survives equalization
    assert errs == 0


def ber_alone(r, sync, h, bits, spec):
    """One detection's (errors, bits), as the per-detection loop computed it."""
    n_fft, even = spec.n_fft, spec.smap.even_occupied()
    n_idx = sync.n_hat + np.arange(n_fft)
    derotated = r.window(sync.n_hat, n_fft) * np.exp(-2j * np.pi * sync.nu_hat * n_idx / n_fft)
    at_even = np.fft.fft(derotated)[even % n_fft] / np.sqrt(n_fft)
    usable = np.abs(h) > 0
    ramp = np.exp(2j * np.pi * even * sync.n_hat / n_fft)
    d_hat = np.zeros(even.size, dtype=np.complex128)
    d_hat[usable] = at_even[usable] / (h[usable] * ramp[usable])
    decided = demap_qpsk(d_hat).reshape(-1, 2)
    truth = bits.reshape(-1, 2)
    return int(np.sum(decided[usable] != truth[usable])), int(2 * np.count_nonzero(usable))


@pytest.mark.parametrize("n_fft", [8, 16, 32, 64, 128, 256])
def test_ber_of_several_detections_is_each_alone(n_fft):
    # One pass over stacked windows gives every detection the bits it gets
    # alone, with or without bins the channel nulls, and the sign-only
    # equalizer the bits of zero-forcing (ber_alone).
    rng = np.random.default_rng(83 + n_fft)
    occupied = tuple(k for k in range(-n_fft // 2 + 1, n_fft // 2) if k != 0)
    spec = FrameSpec(smap=SubcarrierMap(n_fft=n_fft, occupied=occupied), n_cp=n_fft // 8,
                     n_symbols=2)
    n_bins = spec.smap.even_occupied().size
    r = TimeSignal(rng.standard_normal(2 * 5 * n_fft).view(np.complex128), origin=2 * n_fft)
    for zeros in (0, 1, min(3, n_bins)):  # N = 8 has 2 preamble bins
        bits = rng.integers(0, 2, size=2 * n_bins)
        h = rng.standard_normal(2 * n_bins).view(np.complex128)
        h[rng.choice(n_bins, size=zeros, replace=False)] = 0
        syncs = [sync_at(int(rng.integers(-2 * n_fft, 2 * n_fft)), float(rng.uniform(-1, 1)))
                 for _ in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            together = ber_preamble(r, syncs, h, bits, spec)
            alone = [ber_preamble(r, [s], h, bits, spec)[0] for s in syncs]
            want = [ber_alone(r, s, h, bits, spec) for s in syncs]
        assert together == alone == want
        assert all(total == 2 * (n_bins - zeros) for _, total in together)


def test_ber_warns_once_per_detection_on_a_null(main_spec):
    spec = FrameSpec(smap=main_spec.smap, n_cp=32, n_symbols=2, n_empty_prefix=1)
    bits = np.random.default_rng(89).integers(0, 2, size=158)
    frame = preamble_frame(spec, bits)
    h = response(ChannelRealization(np.array([1.0])), spec)
    h[5] = 0
    with pytest.warns(RuntimeWarning, match="skipping 1 preamble bin") as caught:
        got = ber_preamble(frame, [sync_at(0), sync_at(-3), sync_at(-9)], h, bits, spec)
    assert len(caught) == 3
    assert got == [(0, 156)] * 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_ber_rejects_a_non_finite_channel_response(main_spec, bad):
    spec = FrameSpec(smap=main_spec.smap, n_cp=32, n_symbols=2, n_empty_prefix=1)
    bits = np.random.default_rng(101).integers(0, 2, size=158)
    h = response(ChannelRealization(np.array([1.0])), spec)
    h[[7, 40]] = bad, np.nan
    k = spec.smap.even_occupied()[7]
    with pytest.raises(ValueError, match=rf"bin k = {k} is not finite"):
        ber_preamble(preamble_frame(spec, bits), [sync_at(0)], h, bits, spec)


def test_ber_rejects_an_empty_detection_list(main_spec):
    spec = FrameSpec(smap=main_spec.smap, n_cp=32, n_symbols=2, n_empty_prefix=1)
    bits = np.random.default_rng(97).integers(0, 2, size=158)
    with pytest.raises(ValueError, match="no detections"):
        ber_preamble(preamble_frame(spec, bits), [],
                     response(ChannelRealization(np.array([1.0])), spec), bits, spec)


def test_ber_rejects_wrong_bit_count(main_spec):
    rng = np.random.default_rng(73)
    spec = FrameSpec(smap=main_spec.smap, n_cp=32, n_symbols=2, n_empty_prefix=1)
    frame = preamble_frame(spec, rng.integers(0, 2, size=158))
    with pytest.raises(ValueError):
        ber_preamble(frame, [sync_at(0)], response(ChannelRealization(np.array([1.0])), spec),
                     np.zeros(10, dtype=int), spec)


def test_ber_rejects_a_response_not_one_per_preamble_bin(main_spec):
    rng = np.random.default_rng(79)
    spec = FrameSpec(smap=main_spec.smap, n_cp=32, n_symbols=2, n_empty_prefix=1)
    bits = rng.integers(0, 2, size=158)
    frame = preamble_frame(spec, bits)
    # the response over every occupied bin, not only the even ones
    h_all = ChannelRealization(np.array([1.0])).freq_response(
        spec.smap.occupied_array(), spec.n_fft)
    with pytest.raises(ValueError, match="one per preamble bin"):
        ber_preamble(frame, [sync_at(0)], h_all, bits, spec)
