"""Streaming correlators: a chunk engine and the per-sample operation-count model.

ChunkCorrelator is the engine a receiver runs.  Each push(chunk) joins the
last N - 1 samples of the stream to the chunk and evaluates every window the
chunk completes with metrics.compute_trace, so streamed windows carry the
batch kernel's arithmetic and the stream's sample indices.

SlidingCorrelator is the paper's hardware cost model.  From a zero state (the
stream reads as zero before its first sample) it advances one sample at a
time by retiring one term and admitting one term per quantity:

  G(n) = G(n-1) - p_g(n-1)            + p_g(n-1+N/2)
  M(n) = M(n-1) - |r(n-1+N/2)|^2      + |r(n-1+N)|^2
  Q(n) = Q(n-1) + [p_q(n-1+3N/4) - p_q(n-1) + p_q(n-1+N/2) - p_q(n-1+N/4)] / 2

with p_g(i) = conj(r(i)) r(i+N/2) and p_q(i) = conj(r(i)) r(i+N/4).  Retired
and interior terms come from product delay lines, so each step performs exactly
one new complex multiply per product stream.  Real-operation counters tick at
the sites where that arithmetic happens; the totals per counted step are the
per-sample hardware cost of each algorithm (plain correlator: 10 add/sub,
10 mul/div; interference-hardened: 24, 24, plus one square root).
ChunkCorrelator reports the same counters from that model.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .metrics import MODES, MetricTrace, compute_trace
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


def _non_finite(index: int, value) -> ValueError:
    return ValueError(f"stream sample {index} is not finite: {value}")


def _check_finite(x: np.ndarray, start: int) -> None:
    """Raise naming the stream index of x's first non-finite sample (x[0] at start)."""
    finite = np.isfinite(x)
    if not finite.all():
        k = int(np.argmin(finite))
        raise _non_finite(start + k, x[k])


@dataclass
class StepResult:
    """One emitted window: start index (stream coordinates) and metrics."""

    window_start: int
    g: complex
    m: float
    metric: float
    q: complex | None = None
    g_nirs: complex | None = None


class SlidingCorrelator:
    """Streaming correlator: push samples in, get one window result per push.

    The state starts from zero, as if the stream read zero before its first
    sample, and every push advances it with the O(1) recursions.  The N-th
    push emits the window at stream index 0, uncounted; every later push
    emits the next window and ticks the operation counters.  mode "sc"
    maintains only G and M; mode "nirs" adds the quarter-lag probe and the
    cancellation step.  State is a handful of scalars and four short delay
    lines, so an idle instance is cheap to hold or hand off.
    """

    def __init__(self, n_fft: int, mode: str = "nirs"):
        _check_config(n_fft, mode)
        self.n_fft = n_fft
        self.half = n_fft // 2
        self.quarter = n_fft // 4
        self.mode = mode
        self.ops = OpCounters()
        self.counted_steps = 0
        self._n_pushed = 0
        # Zero-filled delay lines; each append retires the element at [0].
        self._samples = deque([0j] * self.half, self.half)  # r over [t-half, t)
        self._dl_g = deque([0j] * self.half, self.half)  # p_g over [n, n+half)
        self._dl_e = deque([0.0] * self.half, self.half)  # energies over [n+half, n+N)
        self._dl_q = deque([0j] * (3 * self.quarter), 3 * self.quarter)  # p_q over [n, n+3N/4)
        self._g = 0j
        self._m = 0.0
        self._q = 0j

    def push(self, sample: complex) -> StepResult | None:
        """Feed one sample; returns a StepResult once N samples are buffered.

        A non-finite sample would stay in the running sums for good, so it
        raises ValueError naming its stream index and leaves the state as it
        was.
        """
        sample = complex(sample)
        if not cmath.isfinite(sample):
            raise _non_finite(self._n_pushed, sample)
        self._n_pushed += 1
        window_start = self._n_pushed - self.n_fft
        # Filling the window and emitting window 0 are free.
        ops = self.ops if window_start > 0 else OpCounters()
        self.counted_steps += window_start > 0
        self._step(sample, ops)
        return None if window_start < 0 else self._emit(window_start, ops)

    def _step(self, s_t: complex, ops: OpCounters) -> None:
        s_lag_half = self._samples[0]
        s_lag_quarter = self._samples[self.quarter]
        self._samples.append(s_t)

        new_gp = s_lag_half.conjugate() * s_t
        ops.tally(add=2, mul=4)
        self._g = self._g - self._dl_g[0] + new_gp
        self._dl_g.append(new_gp)
        ops.tally(add=4)

        new_e = s_t.real * s_t.real + s_t.imag * s_t.imag
        ops.tally(add=1, mul=2)
        self._m = self._m - self._dl_e[0] + new_e
        self._dl_e.append(new_e)
        ops.tally(add=2)

        if self.mode == "nirs":
            new_qp = s_lag_quarter.conjugate() * s_t
            ops.tally(add=2, mul=4)
            dl_q = self._dl_q
            self._q = self._q + 0.5 * ((new_qp - dl_q[0])
                                       + (dl_q[2 * self.quarter] - dl_q[self.quarter]))
            dl_q.append(new_qp)
            ops.tally(add=8, mul=2)

    def _emit(self, window_start: int, ops: OpCounters) -> StepResult:
        g, m = self._g, self._m
        if self.mode == "nirs":
            q = self._q
            qsq = q * q
            ops.tally(add=1, mul=4)
            qmag = math.sqrt(q.real * q.real + q.imag * q.imag)
            ops.tally(add=1, mul=2, sqrt=1)
            ops.tally(mul=2)  # the two divisions in Q^2 / |Q|
            corr = qsq / qmag if qmag > 0 else 0.0
            num = g - corr
            ops.tally(add=2)
        else:
            q = None
            num = g
        numsq = num.real * num.real + num.imag * num.imag
        ops.tally(add=1, mul=2)
        msq = m * m
        ops.tally(mul=1)
        ops.tally(mul=1)  # the metric division
        metric = numsq / msq if m > 0 else 0.0
        return StepResult(window_start=window_start, g=g, m=m, metric=metric,
                          q=q, g_nirs=None if q is None else num)


class ChunkCorrelator:
    """Streaming correlator fed chunks of any length, empty ones included.

    push(chunk) returns a MetricTrace over the windows the chunk completes,
    with n in stream coordinates (n = 0 at the first sample pushed), or None
    while fewer than N samples have arrived.  The last N - 1 samples carry
    over to the next push, so the traces of any chunking, concatenated, hold
    every window once and in order.  mode "sc" computes only the plain
    correlator's fields.  The counters are SlidingCorrelator's: the first
    window is free and each later one costs COST_PER_SAMPLE[mode].
    """

    def __init__(self, n_fft: int, mode: str = "nirs"):
        _check_config(n_fft, mode)
        self.n_fft = n_fft
        self.mode = mode
        self._tail = np.empty(0, dtype=np.complex128)  # last N - 1 samples at most
        self._n_pushed = 0

    @property
    def counted_steps(self) -> int:
        return max(0, self._n_pushed - self.n_fft)

    @property
    def ops(self) -> OpCounters:
        return model_counters(self.mode, self.counted_steps)

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
    left None for mode "sc"), the model's counters, and the number of
    counted steps.
    """
    corr = ChunkCorrelator(n_fft, mode=mode)
    trace = corr.push(r.samples)
    if trace is None:
        raise ValueError(f"buffer of {len(r)} samples is shorter than one window ({n_fft})")
    trace.n -= r.origin
    return trace, corr.ops, corr.counted_steps
