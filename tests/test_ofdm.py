"""Signal construction: subcarrier maps, QPSK, symbols, preambles, frames."""

import re

import numpy as np
import pytest

from ncsync import (FrameSpec, SubcarrierMap, SymbolGrid, TimeSignal,
                    UnsatisfiablePreambleError, build_frame, demap_qpsk,
                    generate_preamble, map_qpsk, modulate_symbol,
                    preamble_from_bits, random_data_symbol)

EXACT_TOL = 1e-12
PARSEVAL_TOL = 1e-9


def small_spec(occupied=(-3, -2, 1, 2), n_fft=16, n_cp=4, n_symbols=2, prefix=0):
    return FrameSpec(smap=SubcarrierMap(n_fft=n_fft, occupied=occupied),
                     n_cp=n_cp, n_symbols=n_symbols, n_empty_prefix=prefix)


def test_map_rejects_bad_geometry():
    with pytest.raises(ValueError):
        SubcarrierMap(n_fft=10, occupied=(1,))
    with pytest.raises(ValueError):
        SubcarrierMap(n_fft=4, occupied=(1,))
    with pytest.raises(ValueError):
        SubcarrierMap(n_fft=16, occupied=())
    with pytest.raises(ValueError):
        SubcarrierMap(n_fft=16, occupied=(1, 1, 2))
    with pytest.raises(ValueError):
        SubcarrierMap(n_fft=16, occupied=(8,))  # valid range is [-8, 7]
    with pytest.raises(ValueError):
        SubcarrierMap(n_fft=16, occupied=(-9,))


@pytest.mark.parametrize("k", [1.5, 2.0, np.float64(3.0), np.nan, np.inf, True, np.True_, "1"])
def test_map_rejects_an_index_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {k!r}")):
        SubcarrierMap(256, (k, 3))


def test_map_takes_numpy_integers():
    smap = SubcarrierMap(256, (np.int64(3), np.int32(-1), np.uint8(7)))
    assert smap.occupied == (-1, 3, 7)
    assert all(type(k) is int for k in smap.occupied)


def test_map_even_subset_and_columns():
    smap = SubcarrierMap(n_fft=16, occupied=(-2, -1, 1, 2))
    np.testing.assert_array_equal(smap.even_occupied(), [-2, 2])
    np.testing.assert_array_equal(smap.columns([-8, 0, 7]), [0, 8, 15])
    assert smap.n_occupied == 4
    # occupied comes back sorted regardless of input order
    assert SubcarrierMap(16, (3, -3, 1)).occupied == (-3, 1, 3)


def test_main_map_counts(main_spec):
    smap = main_spec.smap
    assert smap.n_occupied == 158
    assert smap.even_occupied().size == 79
    assert 0 not in smap.occupied
    assert all(-100 <= k <= 100 for k in smap.occupied)
    assert not any(4 <= k <= 45 for k in smap.occupied)


def test_frame_spec_lengths(main_spec):
    assert main_spec.symbol_len == 288
    assert main_spec.frame_len == 11 * 288
    assert main_spec.total_len == 14 * 288
    assert main_spec.sample_rate_hz == pytest.approx(3.84e6)


def test_frame_spec_validation():
    smap = SubcarrierMap(n_fft=16, occupied=(1, 2))
    with pytest.raises(ValueError):
        FrameSpec(smap=smap, n_cp=-1, n_symbols=1)
    with pytest.raises(ValueError):
        FrameSpec(smap=smap, n_cp=17, n_symbols=1)
    with pytest.raises(ValueError):
        FrameSpec(smap=smap, n_cp=4, n_symbols=0)
    with pytest.raises(ValueError):
        FrameSpec(smap=smap, n_cp=4, n_symbols=1, n_empty_prefix=-1)
    # CP as long as the whole symbol body is allowed
    assert FrameSpec(smap=smap, n_cp=16, n_symbols=1).symbol_len == 32


def test_time_signal_window_and_axis():
    sig = TimeSignal(np.arange(10, dtype=complex), origin=4)
    np.testing.assert_array_equal(sig.n_axis(), np.arange(10) - 4)
    np.testing.assert_array_equal(sig.window(-4, 3), [0, 1, 2])
    np.testing.assert_array_equal(sig.window(0, 2), [4, 5])
    with pytest.raises(ValueError):
        sig.window(-5, 3)
    with pytest.raises(ValueError):
        sig.window(4, 3)


def test_qpsk_map_corners_and_round_trip():
    s = map_qpsk([0, 0, 0, 1, 1, 0, 1, 1])
    inv = 1 / np.sqrt(2)
    np.testing.assert_allclose(
        s, [inv * (1 + 1j), inv * (1 - 1j), inv * (-1 + 1j), inv * (-1 - 1j)],
        atol=EXACT_TOL)
    np.testing.assert_allclose(np.abs(s), 1.0, atol=EXACT_TOL)

    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=200)
    np.testing.assert_array_equal(demap_qpsk(map_qpsk(bits)), bits)


def test_qpsk_demap_is_sign_based():
    np.testing.assert_array_equal(demap_qpsk(np.array([1.7 - 0.3j])), [0, 1])
    np.testing.assert_array_equal(demap_qpsk(np.array([-0.1 + 9j])), [1, 0])


def test_qpsk_rejects_bad_bits():
    with pytest.raises(ValueError):
        map_qpsk([0, 1, 0])
    with pytest.raises(ValueError):
        map_qpsk([0, 2])


def test_modulate_dc_only_is_constant():
    spec = FrameSpec(smap=SubcarrierMap(n_fft=256, occupied=(0,)),
                     n_cp=32, n_symbols=1)
    column = np.zeros(256, dtype=complex)
    column[128] = np.sqrt(256.0)
    sym = modulate_symbol(column, spec)
    assert len(sym) == 288
    assert sym.origin == 32
    np.testing.assert_allclose(sym.samples, 1.0 + 0.0j, atol=EXACT_TOL)


def test_modulate_matches_direct_sum():
    rng = np.random.default_rng(11)
    spec = small_spec(occupied=(-7, -3, 0, 2, 5), n_fft=64, n_cp=8)
    column = np.zeros(64, dtype=complex)
    column[spec.smap.columns(spec.smap.occupied_array())] = (
        rng.standard_normal(5) + 1j * rng.standard_normal(5))
    body = modulate_symbol(column, spec).samples[spec.n_cp:]
    n = np.arange(64)
    direct = np.zeros(64, dtype=complex)
    for k in spec.smap.occupied:
        direct += column[k + 32] * np.exp(2j * np.pi * n * k / 64)
    direct /= np.sqrt(64)
    np.testing.assert_allclose(body, direct, atol=1e-12)


def test_modulate_rejects_wrong_length():
    spec = small_spec()
    with pytest.raises(ValueError):
        modulate_symbol(np.zeros(8, dtype=complex), spec)


def test_symbol_energy_parseval(main_spec):
    rng = np.random.default_rng(23)
    for column in (random_data_symbol(main_spec, rng),
                   generate_preamble(main_spec, rng)):
        body = modulate_symbol(column, main_spec).samples[main_spec.n_cp:]
        energy = np.sum(np.abs(body) ** 2)
        np.testing.assert_allclose(energy, np.sum(np.abs(column) ** 2),
                                   rtol=PARSEVAL_TOL)
        # every occupied bin is unit power on average, so both symbol kinds
        # carry the same total energy
        np.testing.assert_allclose(energy, main_spec.smap.n_occupied,
                                   rtol=PARSEVAL_TOL)


def test_preamble_body_repeats_after_half(main_spec):
    rng = np.random.default_rng(31)
    for _ in range(5):
        column = generate_preamble(main_spec, rng)
        body = modulate_symbol(column, main_spec).samples[main_spec.n_cp:]
        np.testing.assert_allclose(body[:128], body[128:], atol=1e-12)


def test_preamble_bin_amplitude_and_bit_count(main_spec):
    bits = np.zeros(158, dtype=int)
    column = preamble_from_bits(main_spec, bits)
    used = column[np.abs(column) > 0]
    assert used.size == 79
    np.testing.assert_allclose(np.abs(used), np.sqrt(2.0), atol=EXACT_TOL)
    with pytest.raises(ValueError):
        preamble_from_bits(main_spec, np.zeros(100, dtype=int))


def test_preamble_requires_an_even_subcarrier():
    spec = small_spec(occupied=(-3, -1, 1, 3))
    rng = np.random.default_rng(0)
    with pytest.raises(UnsatisfiablePreambleError):
        generate_preamble(spec, rng)
    with pytest.raises(UnsatisfiablePreambleError):
        preamble_from_bits(spec, [])


def test_data_symbol_spectral_nulling(main_spec):
    rng = np.random.default_rng(37)
    column = random_data_symbol(main_spec, rng)
    body = modulate_symbol(column, main_spec).samples[main_spec.n_cp:]
    spectrum = np.fft.fftshift(np.fft.fft(body))
    occupied_cols = main_spec.smap.columns(main_spec.smap.occupied_array())
    mask = np.ones(256, dtype=bool)
    mask[occupied_cols] = False
    assert np.abs(spectrum[mask]).max() < 1e-10 * np.sqrt(256)


def test_random_data_symbol_support(main_spec):
    rng = np.random.default_rng(41)
    column = random_data_symbol(main_spec, rng)
    cols = main_spec.smap.columns(main_spec.smap.occupied_array())
    np.testing.assert_allclose(np.abs(column[cols]), 1.0, atol=EXACT_TOL)
    mask = np.ones(256, dtype=bool)
    mask[cols] = False
    assert np.all(column[mask] == 0)


def test_grid_rejects_wrong_shape():
    spec = small_spec()
    with pytest.raises(ValueError):
        SymbolGrid(spec, data=np.zeros((3, 16)))


def test_build_frame_layout_and_origin():
    rng = np.random.default_rng(43)
    spec = small_spec(prefix=2)
    grid = SymbolGrid(spec)
    grid.data[0] = preamble_from_bits(spec, rng.integers(0, 2, size=4))
    grid.data[1] = random_data_symbol(spec, rng)
    frame = build_frame(grid)
    sym_len = spec.symbol_len
    assert len(frame) == 4 * sym_len
    assert frame.origin == 2 * sym_len + spec.n_cp
    np.testing.assert_array_equal(frame.samples[: 2 * sym_len], 0)
    for p in range(2):
        chunk = frame.samples[(2 + p) * sym_len : (3 + p) * sym_len]
        np.testing.assert_allclose(
            chunk, modulate_symbol(grid.data[p], spec).samples, atol=EXACT_TOL)
