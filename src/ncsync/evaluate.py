"""Trial scoring: sync-error classification, preamble BER, aggregation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .detect import SyncResult
from .ofdm import FrameSpec, TimeSignal, demap_qpsk


@dataclass
class TrialOutcome:
    """Per-trial scores; bit counts are zero when BER was not evaluated."""

    timing_error: int
    cfo_error: float
    is_sync_error: bool
    bit_errors: int = 0
    bits_total: int = 0


@dataclass
class AggregateStats:
    """Cell-level summary over a batch of trials."""

    n_trials: int
    p_sync_error: float
    ci_halfwidth: float
    mse_time: float
    mse_freq: float
    ber: float


def classify(result: SyncResult, true_cfo: float, n_cp: int,
             bit_errors: int = 0, bits_total: int = 0) -> TrialOutcome:
    """Score one detection against the known truth (frame origin is n = 0).

    A trial is a sync error when the timing lands outside the cyclic prefix
    (|n_hat| > n_cp) or the CFO misses by more than half a subcarrier spacing
    (|nu_hat - nu| > 0.5); both comparisons are strict, so the boundary values
    still count as successes.
    """
    timing_error = result.n_hat
    cfo_error = result.nu_hat - true_cfo
    is_err = abs(timing_error) > n_cp or abs(cfo_error) > 0.5
    return TrialOutcome(timing_error=timing_error, cfo_error=cfo_error,
                        is_sync_error=is_err, bit_errors=bit_errors,
                        bits_total=bits_total)


def ber_preamble(r: TimeSignal, syncs: list[SyncResult], h: np.ndarray,
                 preamble_bits: np.ndarray, spec: FrameSpec) -> list[tuple[int, int]]:
    """Demodulate the preamble at each detected position in `syncs` (at least
    one) and count bit errors: one (errors, bits) per detection, in order.

    The receiver-side chain: de-rotate the estimated CFO, take the unitary DFT
    of the N samples starting at n_hat, then zero-force each preamble bin by
    the known channel response and the timing-offset phase ramp
    exp(j 2 pi k n_hat / N) before hard QPSK decisions; one FFT serves all the
    stacked windows, and each detection's bits are those it would get alone.
    h is the channel response at the preamble bins (spec.smap.even_occupied()),
    one value per bin.  Bins where it is exactly zero cannot be equalized; they
    are skipped (with a warning per detection) and excluded from the bit total.
    """
    n_fft = spec.n_fft
    even = spec.smap.even_occupied()
    preamble_bits = np.asarray(preamble_bits, dtype=np.int64)
    if preamble_bits.size != 2 * even.size:
        raise ValueError(
            f"expected {2 * even.size} preamble bits for {even.size} bins, "
            f"got {preamble_bits.size}"
        )
    h = np.asarray(h)
    if h.shape != (even.size,):
        raise ValueError(f"expected {even.size} channel response values, one per "
                         f"preamble bin, got shape {h.shape}")
    if not syncs:
        raise ValueError("no detections to demodulate")
    n_hat = np.array([[s.n_hat] for s in syncs])
    nu_hat = np.array([[s.nu_hat] for s in syncs])
    windows = np.stack([r.window(s.n_hat, n_fft) for s in syncs])
    n_idx = n_hat + np.arange(n_fft)
    derotated = windows * np.exp(-2j * np.pi * nu_hat * n_idx / n_fft)
    # Centered bin k sits at FFT output index k mod N.
    at_even = np.fft.fft(derotated)[:, even % n_fft] / np.sqrt(n_fft)
    ramp = np.exp(2j * np.pi * even * n_hat / n_fft)

    usable = np.abs(h) > 0
    n_usable = int(np.count_nonzero(usable))
    for _ in syncs if n_usable < even.size else ():
        warnings.warn(f"skipping {even.size - n_usable} preamble bin(s) with zero "
                      f"channel response", RuntimeWarning, stacklevel=2)
    usable = usable if n_usable < even.size else slice(None)  # all bins: views, no copies
    d_hat = at_even[:, usable] / (h[usable] * ramp[:, usable])
    wrong = demap_qpsk(d_hat).reshape(len(syncs), -1, 2) != preamble_bits.reshape(-1, 2)[usable]
    return [(int(errors), 2 * n_usable) for errors in wrong.sum(axis=(1, 2))]


def aggregate(outcomes: list[TrialOutcome]) -> AggregateStats:
    """Summarize a batch: error rate with a 95% Wald interval, MSEs, BER.

    MSEs include every trial (erroneous ones dominate them by design); BER
    averages over all demodulated bits.  Raises on an empty batch.
    """
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
