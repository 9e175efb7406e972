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
    before = np.flatnonzero(outside[:i_peak])
    after = np.flatnonzero(outside[i_peak + 1:])
    lo = int(before[-1]) + 1 if before.size else 0
    hi = i_peak + int(after[0]) if after.size else metric.size - 1
    return (lo + hi) // 2


def detect(trace: MetricTrace, mode: str = "nirs", timing_rule: str = "argmax") -> SyncResult:
    """Locate the preamble in a metric trace and read off the CFO.

    timing_rule "argmax" takes the global metric maximum; "midpoint90" takes
    the midpoint of the >= 90%-of-peak plateau around it, which centers the
    estimate when the cyclic prefix creates a flat top.  The CFO estimate is
    arg(numerator(n_hat)) / pi.  Raises NoSignalError when M is zero
    everywhere, and ValueError when the peak metric or the numerator at n_hat
    is not finite.
    """
    if timing_rule not in TIMING_RULES:
        raise ValueError(f"unknown timing rule {timing_rule!r}; expected one of {TIMING_RULES}")
    if len(trace) == 0:
        raise ValueError("empty metric trace")
    if not np.any(trace.m > 0):
        raise NoSignalError("energy normalizer is zero over the whole trace")
    metric = trace.metric(mode)
    i_peak = int(np.argmax(metric))
    idx = i_peak if timing_rule == "argmax" else _plateau_midpoint(metric, i_peak)
    num = trace.numerator(mode)[idx]
    # argmax returns the first NaN when there is one, so checking the peak
    # catches every NaN and +inf in the metric without a scan.  numpy
    # scalars are Python floats and complexes, so math/cmath check them
    # without a ufunc call.
    if not (math.isfinite(metric[i_peak]) and cmath.isfinite(num)):
        raise ValueError(f"non-finite {mode} metric or numerator at n = {int(trace.n[idx])}")
    nu_hat = float(np.angle(num) / np.pi)
    return SyncResult(n_hat=int(trace.n[idx]), nu_hat=nu_hat,
                      peak_value=float(metric[i_peak]), mode=mode)
