"""Streaming correlation: a chunk engine and the per-sample operation-count model.

ChunkCorrelator is the engine a receiver runs.  Each push(chunk) joins the
last N - 1 samples of the stream to the chunk and evaluates every window the
chunk completes with metrics.compute_trace, so streamed windows carry the
batch kernel's arithmetic and the stream's sample indices.

trace_from_recursions is the paper's hardware cost model.  From a zero state
(the stream reads as zero before its first sample) it advances one sample at
a time by retiring one term and admitting one term per quantity:

  G(n) = G(n-1) - p_g(n-1)            + p_g(n-1+N/2)
  M(n) = M(n-1) - |r(n-1+N/2)|^2      + |r(n-1+N)|^2
  Q(n) = Q(n-1) + [p_q(n-1+3N/4) - p_q(n-1) + p_q(n-1+N/2) - p_q(n-1+N/4)] / 2

with p_g(i) = conj(r(i)) r(i+N/2) and p_q(i) = conj(r(i)) r(i+N/4).  Retired
and interior terms come from product delay lines, so each step performs exactly
one new complex multiply per product stream.  Real-operation counters tick at
the sites where that arithmetic happens; the totals per counted step are the
per-sample hardware cost of each algorithm (plain correlator: 10 add/sub,
10 mul/div; interference-hardened: 24, 24, plus one square root), and
COST_PER_SAMPLE tabulates them for callers that need the counts only.

The model keeps the paper's arithmetic, |num|^2 / M^2 and Q^2 / |Q|, where
the batch kernel forms (|num| / M)^2 and Q (Q / |Q|) to stay in the double
range.  The paper's form needs no |num|, a square root per sample the
counted circuit does not pay, and a fixed-point datapath sets its range by
scaling, not by the order of its operations.  So its traces match the
kernel's to rounding at moderate amplitudes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import MODES, MetricTrace, _safe_ratio_sq, compute_trace
from .ofdm import TimeSignal, check_n_fft

# Real-operation cost per counted step, keyed by mode:
# (add_sub, mul_div, sqrt).
COST_PER_SAMPLE = {"sc": (10, 10, 0), "nirs": (24, 24, 1)}


@dataclass
class OpCounters:
    """Tallies of real arithmetic operations (a complex multiply is 4m + 2a)."""

    add_sub: int = 0
    mul_div: int = 0
    sqrt: int = 0

    def tally(self, add: int = 0, mul: int = 0, sqrt: int = 0):
        self.add_sub += add
        self.mul_div += mul
        self.sqrt += sqrt


def count_report(ops: OpCounters, n_samples: int) -> tuple[float, float, float]:
    """Per-sample averages (add_sub, mul_div, sqrt) over n_samples steps."""
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    return (ops.add_sub / n_samples, ops.mul_div / n_samples, ops.sqrt / n_samples)


def model_counters(mode: str, n_samples: int) -> OpCounters:
    """Counters predicted by the per-sample cost model for n_samples steps."""
    a, m, s = COST_PER_SAMPLE[mode]
    return OpCounters(a * n_samples, m * n_samples, s * n_samples)


def _check_config(n_fft: int, mode: str) -> None:
    check_n_fft(n_fft)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def _check_finite(x: np.ndarray, start: int) -> None:
    """Raise naming the stream index of x's first non-finite sample (x[0] at start)."""
    finite = np.isfinite(x)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"stream sample {start + k} is not finite: {x[k]}")


def trace_from_recursions(r: TimeSignal, n_fft: int, mode: str = "nirs"
                          ) -> tuple[MetricTrace, OpCounters, int]:
    """Run the per-sample cost model over a whole buffer.

    The state starts from zero and takes one O(1) step per sample; window 0
    is emitted free and every later window is one counted step.  mode "sc"
    maintains only G and M; mode "nirs" adds the quarter-lag probe and the
    cancellation step, and its metric_sc is read off G and M after the
    counted loop.  Returns the trace, the counters and the number of counted
    steps, as trace_from_stream does.  A non-finite sample, which would stay
    in the running sums for good, raises ValueError naming its stream index
    (its position in the buffer) before any step.
    """
    _check_config(n_fft, mode)
    x = r.samples
    _check_finite(x, 0)
    if x.size < n_fft:
        raise ValueError(f"buffer of {x.size} samples is shorter than one window ({n_fft})")
    half, quarter = n_fft // 2, n_fft // 4
    nirs = mode == "nirs"
    ops, free = OpCounters(), OpCounters()  # free: filling the window and emitting window 0
    s = [0j] * half + x.tolist()  # r(t) is s[t + half]
    # Zero-filled delay lines: the product of step t sits at [t + length].
    dl_g = [0j] * half  # p_g
    dl_e = [0.0] * half  # energies
    dl_q = [0j] * (3 * quarter)  # p_q
    g = q = 0j
    m = 0.0
    gs, ms, qs, nums, metrics = [], [], [], [], []
    for t in range(x.size):
        tally = (ops if t >= n_fft else free).tally
        s_t = s[t + half]

        new_gp = s[t].conjugate() * s_t
        tally(add=2, mul=4)
        g = g - dl_g[t] + new_gp
        dl_g.append(new_gp)
        tally(add=4)

        new_e = s_t.real * s_t.real + s_t.imag * s_t.imag
        tally(add=1, mul=2)
        m = m - dl_e[t] + new_e
        dl_e.append(new_e)
        tally(add=2)

        if nirs:
            new_qp = s[t + quarter].conjugate() * s_t
            tally(add=2, mul=4)
            q = q + 0.5 * ((new_qp - dl_q[t]) + (dl_q[t + 2 * quarter] - dl_q[t + quarter]))
            dl_q.append(new_qp)
            tally(add=8, mul=2)

        if t < n_fft - 1:
            continue
        # Emit window t - N + 1.
        if nirs:
            qsq = q * q
            tally(add=1, mul=4)
            qmag = math.sqrt(q.real * q.real + q.imag * q.imag)
            tally(add=1, mul=2, sqrt=1)
            tally(mul=2)  # the two divisions in Q^2 / |Q|
            num = g - (qsq / qmag if qmag > 0 else 0.0)
            tally(add=2)
            qs.append(q)
            nums.append(num)
        else:
            num = g
        numsq = num.real * num.real + num.imag * num.imag
        tally(add=1, mul=2)
        msq = m * m
        tally(mul=1)
        tally(mul=1)  # the metric division
        metrics.append(numsq / msq if m > 0 else 0.0)
        gs.append(g)
        ms.append(m)

    n_windows = len(gs)
    n = np.arange(-r.origin, n_windows - r.origin)
    g, m, metric = np.array(gs), np.array(ms), np.array(metrics)
    if nirs:
        trace = MetricTrace(n=n, g=g, m=m, metric_sc=_safe_ratio_sq(g, m, m > 0),
                            q=np.array(qs), g_nirs=np.array(nums), metric_nirs=metric)
    else:
        trace = MetricTrace(n=n, g=g, m=m, metric_sc=metric)
    return trace, ops, n_windows - 1


class ChunkCorrelator:
    """Streaming correlator fed chunks of any length, empty ones included.

    push(chunk) returns a MetricTrace over the windows the chunk completes,
    with n in stream coordinates (n = 0 at the first sample pushed), or None
    while fewer than N samples have arrived.  The last N - 1 samples carry
    over to the next push, so the traces of any chunking, concatenated, hold
    every window once and in order.  mode "sc" computes only the plain
    correlator's fields.
    """

    def __init__(self, n_fft: int, mode: str = "nirs"):
        _check_config(n_fft, mode)
        self.n_fft = n_fft
        self.mode = mode
        self._tail = np.empty(0, dtype=np.complex128)  # last N - 1 samples at most
        self._n_pushed = 0

    def push(self, chunk) -> MetricTrace | None:
        """Feed a 1-D chunk; returns the windows it completes, if any.

        A chunk holding a non-finite sample raises ValueError naming the
        sample's stream index and leaves the state as it was.
        """
        chunk = np.asarray(chunk, dtype=np.complex128)
        if chunk.ndim != 1:
            raise ValueError(f"chunk must be one-dimensional, got shape {chunk.shape}")
        # The carried samples passed this check when they arrived.
        _check_finite(chunk, self._n_pushed)
        start = self._n_pushed - self._tail.size  # stream index of buf[0]
        buf = np.concatenate((self._tail, chunk)) if self._tail.size else chunk
        trace = None
        if buf.size >= self.n_fft:
            trace = compute_trace(TimeSignal(buf, origin=-start), self.n_fft,
                                  with_nirs=self.mode == "nirs")
        self._tail = buf[1 - self.n_fft:].copy()
        self._n_pushed += chunk.size
        return trace


def trace_from_stream(r: TimeSignal, n_fft: int, mode: str = "nirs"
                      ) -> tuple[MetricTrace, OpCounters, int]:
    """Run the streaming engine over a whole buffer in one push.

    Returns metrics.compute_trace's output for the buffer (the NIRS fields
    left None for mode "sc"), the cost model's counters for it (window 0
    free, each later window COST_PER_SAMPLE[mode]), and the number of
    counted steps.
    """
    trace = ChunkCorrelator(n_fft, mode=mode).push(r.samples)
    if trace is None:
        raise ValueError(f"buffer of {len(r)} samples is shorter than one window ({n_fft})")
    trace.n -= r.origin
    counted = len(trace) - 1
    return trace, model_counters(mode, counted), counted
