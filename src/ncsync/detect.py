"""Peak search over a metric trace: timing decision plus CFO estimate."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .metrics import MetricTrace

TIMING_RULES = ("argmax", "midpoint90")


class NoSignalError(ValueError):
    """Raised when the whole trace has zero energy (nothing to detect)."""


@dataclass
class SyncResult:
    """Detection outcome: timing n_hat (frame-relative), CFO in subcarrier
    spacings, and the metric's peak value."""

    n_hat: int
    nu_hat: float
    peak_value: float
    mode: str


def _plateau_midpoint(metric: np.ndarray, i_peak: int) -> int:
    """Midpoint of the contiguous run around i_peak with metric >= 0.9 peak."""
    outside = ~(metric >= 0.9 * metric[i_peak])
    outside[i_peak] = False
    # Steps from the peak to the nearest window outside its run (0: none).
    back, ahead = int(outside[i_peak::-1].argmax()), int(outside[i_peak:].argmax())
    lo = i_peak - back + 1 if back else 0
    hi = i_peak + ahead - 1 if ahead else metric.size - 1
    return (lo + hi) // 2


def detect(trace: MetricTrace, mode: str = "nirs", timing_rule: str = "argmax") -> SyncResult:
    """Locate the preamble in a metric trace and read off the CFO.

    timing_rule "argmax" takes the global metric maximum; "midpoint90" takes
    the midpoint of the >= 90%-of-peak plateau around it, which centers the
    estimate when the cyclic prefix creates a flat top.  The CFO estimate is
    arg(numerator(n_hat)) / pi.  Raises ValueError for an unknown mode or
    timing rule, NoSignalError when M is zero everywhere, and ValueError when
    the peak metric or the numerator at n_hat is not finite.  The kernel
    squares no sum, so that happens only once its running sums themselves
    overflow: above an amplitude of ~1e152 for a few thousand unit-power
    samples, where windows past the overflow may also read metric 0 silently.
    """
    if timing_rule not in TIMING_RULES:
        raise ValueError(f"unknown timing rule {timing_rule!r}; expected one of {TIMING_RULES}")
    if len(trace) == 0:
        raise ValueError("empty metric trace")
    metric = trace.metric(mode)
    i_peak = int(metric.argmax())
    peak = metric[i_peak]
    if not peak > 0 and not np.any(trace.m > 0):  # metric > 0 needs M > 0
        raise NoSignalError("energy normalizer is zero over the whole trace")
    idx = i_peak if timing_rule == "argmax" else _plateau_midpoint(metric, i_peak)
    num = trace.numerator(mode)[idx]
    # argmax stops at the first NaN, so checking the peak catches every NaN and
    # +inf in the metric without a scan; math/cmath check numpy scalars (Python
    # floats and complexes) without a ufunc call.
    if not (math.isfinite(peak) and cmath.isfinite(num)):
        raise ValueError(f"non-finite {mode} metric or numerator at n = {int(trace.n[idx])}")
    # numpy's arctan2, as np.angle takes it: cmath.phase differs in the last bit.
    nu = float(np.arctan2(num.imag, num.real)) / math.pi
    return SyncResult(n_hat=int(trace.n[idx]), nu_hat=nu, peak_value=float(peak), mode=mode)
