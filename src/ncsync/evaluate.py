"""Trial scoring: sync-error classification, preamble BER, aggregation."""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detect import SyncResult
from .ofdm import FrameSpec, TimeSignal


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

    The receiver-side chain: de-rotate the estimated CFO, take the DFT of the N
    samples from n_hat, equalize each preamble bin by the channel response h and
    the timing ramp exp(j 2 pi k n_hat / N), and decide each axis by its sign.
    Only signs count, so a bin is multiplied by conj(h) exp(-j 2 pi k n_hat / N)
    after an unscaled DFT: unitary zero-forcing times a positive factor.  One FFT
    serves all stacked windows; each detection gets the bits it would alone.  h
    holds one finite value per preamble bin (spec.smap.even_occupied()); a zero
    bin is skipped (with a warning per detection) and left out of the bit total.
    """
    n_fft = spec.n_fft
    even = spec.smap.even_occupied()
    preamble_bits = np.asarray(preamble_bits, dtype=np.int64)
    if preamble_bits.size != 2 * even.size:
        raise ValueError(f"expected {2 * even.size} preamble bits for {even.size} bins, "
                         f"got {preamble_bits.size}")
    h = np.asarray(h)
    if h.shape != (even.size,):
        raise ValueError(f"expected {even.size} channel response values, one per "
                         f"preamble bin, got shape {h.shape}")
    # sum |h|^2 is finite when every h is, unless it overflows; only then scan.
    if not math.isfinite(np.vdot(h, h).real) and not np.isfinite(h).all():
        i = int(np.isfinite(h).argmin())
        raise ValueError(f"channel response at preamble bin k = {even[i]} is not finite: {h[i]}")
    if not syncs:
        raise ValueError("no detections to demodulate")
    n_hat = np.array([[s.n_hat] for s in syncs])
    rate = np.array([[s.nu_hat * (-2.0 * np.pi / n_fft)] for s in syncs])  # rad per sample
    phase = (n_hat + np.arange(float(n_fft))) * rate
    windows = np.empty(phase.shape, dtype=np.complex128)
    windows.real, windows.imag = np.cos(phase), np.sin(phase)
    for row, s in zip(windows, syncs):
        row *= r.window(s.n_hat, n_fft)
    # Centered bin k sits at FFT output index k mod N, as a negative index does.
    at_even = np.fft.fft(windows).take(even, axis=1)
    at_even *= _roots_of_unity(n_fft).take(even * n_hat % n_fft)
    at_even *= h.conj()
    # Each (re, im) pair against its bit pair: a negative axis decodes as 1.
    wrong = (at_even.view(np.float64) < 0) != preamble_bits
    n_usable = int(np.count_nonzero(h))
    if n_usable < even.size:
        wrong &= np.repeat(h != 0, 2)
        for _ in syncs:
            warnings.warn(f"skipping {even.size - n_usable} preamble bin(s) with zero "
                          f"channel response", RuntimeWarning, stacklevel=2)
    return [(errors, 2 * n_usable) for errors in wrong.sum(axis=1).tolist()]


@functools.lru_cache(maxsize=16)
def _roots_of_unity(n_fft: int) -> np.ndarray:
    """exp(-j 2 pi m / N) for m = 0 .. N - 1, read-only."""
    roots = np.exp(-2j * np.pi / n_fft * np.arange(n_fft))
    roots.flags.writeable = False
    return roots


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
