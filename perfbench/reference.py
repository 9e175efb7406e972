"""Direct-sum reference for the correlator outputs, and checks built on it.

The metric module computes G, M and Q from differences of prefix sums and
the streaming module from running sums.  The reference here evaluates the
defining sums of the metrics docstring window by window instead,

  G(n) = sum_{m<N/2} conj(r[n+m]) r[n+m+N/2]
  M(n) = sum_{m<N/2} |r[n+m+N/2]|^2
  Q(n) = 1/2 sum_{m<N/4} [conj(r[n+m]) r[n+m+N/4]
                          + 2 conj(r[n+m+N/4]) r[n+m+N/2]
                          + conj(r[n+m+N/2]) r[n+m+3N/4]]

so it shares no arithmetic with either implementation.  Every check returns
a list of failure messages (empty when the output is right), so one run can
report all of them.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Agreement asked of G, M and Q, relative to the window's energy over its N
# samples.  The correct program is off by at most 4e-12 on the 420 k-sample
# capture and 3e-14 on single-trial buffers.
REL_TOL = 1e-8
# Relative width of a metric near-tie: two window values closer than this
# may be ordered either way by implementations that sum in another order.
TIE_TOL = 1e-9
# Blocks of windows evaluated at once: few, so that the checks add little
# to a workload's peak RSS.
_BLOCK = 256


def reference_sums(samples: np.ndarray, n_fft: int, starts) -> dict:
    """G, M, Q, NIRS numerator, both metrics and window energy at `starts`.

    `starts` are buffer indices of window starts; each window spans
    samples[u : u + n_fft].
    """
    x = np.asarray(samples, dtype=np.complex128)
    starts = np.asarray(starts, dtype=np.int64)
    half, quarter = n_fft // 2, n_fft // 4
    windows = sliding_window_view(x, n_fft)
    parts = {k: [] for k in ("g", "m", "q", "energy")}
    for lo in range(0, starts.size, _BLOCK):
        w = windows[starts[lo:lo + _BLOCK]]
        parts["g"].append(np.sum(np.conj(w[:, :half]) * w[:, half:], axis=1))
        parts["m"].append(np.sum(np.abs(w[:, half:]) ** 2, axis=1))
        a, b, c, d = (w[:, i * quarter:(i + 1) * quarter] for i in range(4))
        parts["q"].append(0.5 * np.sum(np.conj(a) * b + 2.0 * np.conj(b) * c
                                       + np.conj(c) * d, axis=1))
        parts["energy"].append(np.sum(np.abs(w) ** 2, axis=1))
    out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in parts.items()}
    g, m, q = out["g"], out["m"], out["q"]
    qmag = np.abs(q)
    g_nirs = g - np.where(qmag > 0, q * q / np.where(qmag > 0, qmag, 1.0), 0.0)
    msq = np.where(m > 0, m * m, 1.0)
    out["g_nirs"] = g_nirs
    out["metric_sc"] = np.where(m > 0, np.abs(g) ** 2 / msq, 0.0)
    out["metric_nirs"] = np.where(m > 0, np.abs(g_nirs) ** 2 / msq, 0.0)
    return out


def check_trace(trace, samples: np.ndarray, origin: int, n_fft: int, idx,
                label: str) -> list[str]:
    """Compare a MetricTrace with the reference at trace indices `idx`.

    The trace's entry i is the window starting at buffer index
    trace.n[i] + origin.  Fields the trace left out (the NIRS branch of an
    S&C-only trace) are not compared.
    """
    idx = np.asarray(idx, dtype=np.int64)
    fails = []
    if len(trace) != samples.size - n_fft + 1:
        fails.append(f"{label}: {len(trace)} windows for {samples.size} samples")
        return fails
    if not np.array_equal(trace.n, np.arange(len(trace)) - origin):
        fails.append(f"{label}: window axis is not the frame-relative index")
        return fails
    ref = reference_sums(samples, n_fft, trace.n[idx] + origin)
    scale = ref["energy"] + np.finfo(float).tiny
    for field in ("g", "m", "q", "g_nirs"):
        got = getattr(trace, field)
        if got is None:
            continue
        err = np.abs(np.asarray(got)[idx] - ref[field]) / scale
        if not np.all(err <= REL_TOL):
            i = int(np.argmax(err))
            fails.append(f"{label}: {field} at n={int(trace.n[idx[i]])} off by "
                         f"{err[i]:.3g} of the window energy")
    for field in ("metric_sc", "metric_nirs"):
        got = getattr(trace, field)
        if got is None:
            continue
        # |num|^2 / M^2 with num and M each off by <= REL_TOL * energy moves
        # by <= 2 (sqrt(v) + v) REL_TOL energy / M <= 3 (1 + v) REL_TOL energy / M.
        m = np.maximum(ref["m"], np.finfo(float).tiny)
        tol = 4.0 * REL_TOL * scale / m * (1.0 + ref[field]) + 1e-12
        err = np.abs(np.asarray(got)[idx] - ref[field])
        if not np.all(err <= tol):
            i = int(np.argmax(err - tol))
            fails.append(f"{label}: {field} at n={int(trace.n[idx[i]])} is "
                         f"{got[idx[i]]:.6g}, reference {ref[field][i]:.6g}")
    return fails


def sample_indices(n_windows: int, rng: np.random.Generator, k: int = 48,
                   around=()) -> np.ndarray:
    """k random trace indices plus +-8 around each index in `around`."""
    picks = [rng.integers(0, n_windows, size=k), [0, n_windows - 1]]
    for c in around:
        picks.append(np.arange(c - 8, c + 9))
    idx = np.concatenate([np.asarray(p, dtype=np.int64) for p in picks])
    return np.unique(idx[(idx >= 0) & (idx < n_windows)])


def _plateau(metric: np.ndarray, i_peak: int, thresh: float) -> tuple[int, int]:
    lo = i_peak
    while lo > 0 and metric[lo - 1] >= thresh:
        lo -= 1
    hi = i_peak
    while hi < metric.size - 1 and metric[hi + 1] >= thresh:
        hi += 1
    return lo, hi


def allowed_indices(metric: np.ndarray, timing_rule: str) -> set[int]:
    """Trace indices the timing rule may pick from this reference metric.

    The rule is detect's: the global maximum ("argmax"), or the midpoint of
    the contiguous >= 90%-of-peak run around it ("midpoint90").  Windows
    within TIE_TOL of the peak, or of the 90% threshold, could be ordered
    either way by a correct implementation, so each near-tie widens the set.
    """
    peak = float(metric.max())
    band = TIE_TOL * max(peak, np.finfo(float).tiny)
    candidates = np.flatnonzero(metric >= peak - band)
    if timing_rule == "argmax":
        return set(int(i) for i in candidates)
    out: set[int] = set()
    for i in candidates[:16]:
        lo_t, hi_t = _plateau(metric, int(i), 0.9 * peak + band)  # tightest run
        lo_w, hi_w = _plateau(metric, int(i), 0.9 * peak - band)  # widest run
        for lo in range(lo_w, lo_t + 1):
            for hi in range(hi_t, hi_w + 1):
                out.add((lo + hi) // 2)
            if len(out) > 64:
                break
    return out


def check_detection(results, samples: np.ndarray, origin: int, n_fft: int,
                    n_axis: np.ndarray, timing_rule: str, label: str) -> list[str]:
    """detect()'s n_hat, nu_hat and peak against the rule on the reference.

    `results` are SyncResults from one trace; n_axis is the frame-relative
    index of each window the detector saw, and window i starts at buffer
    index n_axis[i] + origin.
    """
    ref = reference_sums(samples, n_fft, n_axis + origin)
    fails = []
    for res in results:
        metric = ref["metric_nirs"] if res.mode == "nirs" else ref["metric_sc"]
        num = ref["g_nirs"] if res.mode == "nirs" else ref["g"]
        allowed = allowed_indices(metric, timing_rule)
        hits = np.flatnonzero(n_axis == res.n_hat)
        if hits.size != 1 or int(hits[0]) not in allowed:
            picks = sorted(int(n_axis[i]) for i in allowed)[:4]
            fails.append(f"{label}: {res.mode} n_hat {res.n_hat}, reference rule "
                         f"gives {picks}")
            continue
        peak = float(metric.max())
        if abs(res.peak_value - peak) > 1e-6 * peak + 1e-12:
            fails.append(f"{label}: {res.mode} peak {res.peak_value:.9g}, "
                         f"reference {peak:.9g}")
        nu_ref = float(np.angle(num[hits[0]]) / np.pi)
        if abs(np.angle(np.exp(1j * np.pi * (res.nu_hat - nu_ref)))) > 1e-6:
            fails.append(f"{label}: {res.mode} nu_hat {res.nu_hat:.9f}, "
                         f"reference {nu_ref:.9f}")
    return fails


def is_sync_error(n_hat: int, nu_hat: float, true_cfo: float, n_cp: int) -> bool:
    """The paper's sync-error rule against the truth (frame origin at n = 0)."""
    return abs(n_hat) > n_cp or abs(nu_hat - true_cfo) > 0.5


def check_outcome(outcome, result, true_cfo: float, n_cp: int,
                  label: str) -> list[str]:
    """classify()'s verdict and errors against the rule applied to the truth."""
    want = is_sync_error(result.n_hat, result.nu_hat, true_cfo, n_cp)
    fails = []
    if bool(outcome.is_sync_error) != want:
        fails.append(f"{label}: {result.mode} verdict {outcome.is_sync_error}, "
                     f"rule gives {want}")
    if outcome.timing_error != result.n_hat or \
            abs(outcome.cfo_error - (result.nu_hat - true_cfo)) > 1e-12:
        fails.append(f"{label}: {result.mode} errors ({outcome.timing_error}, "
                     f"{outcome.cfo_error:.6g}) do not match the detection")
    return fails
