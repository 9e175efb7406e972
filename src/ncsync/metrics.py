"""Sliding correlation metrics for preamble timing and CFO recovery.

Two numerators share one energy normalizer M(n):

  G(n) = sum_{m=0}^{N/2-1} conj(r(n+m)) r(n+m+N/2)          half-lag correlation
  Q(n) = (1/2) sum_{m=0}^{N/4-1} [ conj(r(n+m)) r(n+m+N/4)
           + 2 conj(r(n+m+N/4)) r(n+m+N/2)
           + conj(r(n+m+N/2)) r(n+m+3N/4) ]                  quarter-lag probe
  M(n) = sum_{m=0}^{N/2-1} |r(n+m+N/2)|^2

A tone at any frequency contributes equal magnitude to G and Q with exactly
twice the phase progression, so G - Q^2/|Q| cancels it while the preamble
(whose quarter-lag products carry data-dependent signs) survives.  The plain
timing metric is |G/M|^2, the interference-hardened one |(G - Q^2/|Q|)/M|^2,
and the CFO estimate at the detected peak is arg(numerator)/pi subcarrier
spacings.

This module computes whole traces at once with cumulative sums.  streaming.py
runs this kernel over a stream chunk by chunk, and runs the sample-at-a-time
recursions from a zero state as the per-sample op-count model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ofdm import TimeSignal, check_n_fft

MODES = ("sc", "nirs")


@dataclass
class MetricTrace:
    """Per-window metric records over every full window position in a buffer.

    Entry i corresponds to window start n[i] (frame-relative):
    g, m and metric_sc always present; q, g_nirs, metric_nirs are None when
    the trace was computed for the plain correlator only.
    """

    n: np.ndarray
    g: np.ndarray
    m: np.ndarray
    metric_sc: np.ndarray
    q: np.ndarray | None = None
    g_nirs: np.ndarray | None = None
    metric_nirs: np.ndarray | None = None

    def __len__(self) -> int:
        return self.n.size

    def numerator(self, mode: str) -> np.ndarray:
        return _pick(mode, self.g, self.g_nirs)

    def metric(self, mode: str) -> np.ndarray:
        return _pick(mode, self.metric_sc, self.metric_nirs)


def _pick(mode: str, sc: np.ndarray, nirs: np.ndarray | None) -> np.ndarray:
    """The field of `mode`; raises for an unknown mode or a missing NIRS branch."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "nirs" and nirs is None:
        raise ValueError("trace was computed without the NIRS branch")
    return sc if mode == "sc" else nirs


def nirs_numerator(g, q):
    """Tone-cancelling numerator G - Q^2 / |Q| (defined as G where Q = 0)."""
    q = np.asarray(q, dtype=np.complex128)
    mag = np.abs(q)
    corr = _divide_or_zero(np.multiply(q, q, out=np.empty_like(q)), mag, mag > 0)
    return np.subtract(g, corr, out=corr)


def _divide_or_zero(num: np.ndarray, den: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """num / den where nonzero, else 0, in num's buffer."""
    if nonzero.all():  # the masked divide and fill cost more than the divide
        return np.divide(num, den, out=num)
    np.divide(num, den, out=num, where=nonzero)
    np.copyto(num, 0.0, where=~nonzero)
    return num


def _sliding_sum(cs: np.ndarray, width: int) -> np.ndarray:
    """sums[u] = x[u] + ... + x[u + width - 1] from cs = cumsum(x)."""
    sums = np.empty(cs.size - width + 1, dtype=cs.dtype)
    sums[0] = cs[width - 1]
    np.subtract(cs[width:], cs[:-width], out=sums[1:])
    return sums


def _safe_ratio_sq(num: np.ndarray, mm: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """|num|^2 / mm where positive, else 0 (mm = M^2, positive = M > 0)."""
    out = np.abs(num)
    return _divide_or_zero(np.square(out, out=out), mm, positive)


def compute_trace(r: TimeSignal, n_fft: int, with_nirs: bool = True) -> MetricTrace:
    """Evaluate G, M (and optionally Q, the NIRS numerator) at every window.

    Window start n is valid when [n, n + N - 1] lies inside the buffer, so a
    buffer of T samples yields T - N + 1 entries.  Windows where M(n) = 0 get
    metric 0 by convention.  Raises ValueError for an n_fft check_n_fft
    rejects, and names the first non-finite sample, which would otherwise
    blank every later window's metric: the samples are scanned only when the
    energy's running sum ends non-finite, and pass if |r|^2 merely overflows.
    """
    check_n_fft(n_fft)
    s = r.samples
    half = n_fft // 2
    quarter = n_fft // 4
    n_windows = s.size - n_fft + 1
    if n_windows < 1:
        raise ValueError(f"buffer of {s.size} samples is shorter than one window ({n_fft})")
    energy = s.real * s.real + s.imag * s.imag
    np.cumsum(energy, out=energy)
    if not math.isfinite(energy[-1]) and not np.isfinite(s).all():
        u = int(np.argmin(np.isfinite(s)))
        raise ValueError(f"sample {u} (n = {u - r.origin}) is not finite: {s[u]}")
    m = _sliding_sum(energy, half)[half:]
    del energy

    # Each temporary is dropped once used, summands before their window sums:
    # on a long capture they would otherwise add several buffer sizes to the peak.
    s_conj = np.conj(s)
    products = s_conj[:-half] * s[half:]
    g = _sliding_sum(np.cumsum(products, out=products), half)
    del products

    mm = m * m
    positive = m > 0
    metric_sc = _safe_ratio_sq(g, mm, positive)
    n_axis = np.arange(-r.origin, n_windows - r.origin)

    if not with_nirs:
        return MetricTrace(n=n_axis, g=g, m=m, metric_sc=metric_sc)

    products = s_conj[:-quarter] * s[quarter:]
    del s_conj
    s4 = _sliding_sum(np.cumsum(products, out=products), quarter)
    del products
    q = 2.0 * s4[quarter : quarter + n_windows]  # 0.5 (s4[n] + 2 s4[n + N/4] + s4[n + N/2])
    q += s4[:n_windows]
    q += s4[half : half + n_windows]
    q *= 0.5
    del s4
    g_nirs = nirs_numerator(g, q)
    metric_nirs = _safe_ratio_sq(g_nirs, mm, positive)
    return MetricTrace(n=n_axis, g=g, m=m, metric_sc=metric_sc,
                       q=q, g_nirs=g_nirs, metric_nirs=metric_nirs)
