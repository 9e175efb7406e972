"""Statistical oracles: the Monte-Carlo path against closed forms.

Each oracle runs on its own realization key at a fixed seed and trial count,
and its tolerance is three standard errors of the sample's own estimate, so a
calibration error that moves a statistic by several standard errors fails it
while the criteria's loose bounds would still pass.
"""

import math

import numpy as np
import pytest

from ncsync.metrics import compute_trace
from ncsync.runner import _receive, trial_rng
from ncsync.scenario import load

TRIALS = 400


@pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
def test_sc_metric_at_the_frame_start_is_the_snr_ratio_squared(snr_db):
    # With no interferer, a preamble of two equal halves at SNR S gives
    # |E[G]| = P_s N/2 and M ~ (P_s + P_w) N/2 at n = 0, so the S&C metric
    # |G|^2 / M^2 averages (S / (S + 1))^2 to within O(1/N): over 4000 trials
    # its mean sat +0.0022 above it at 10 dB (3 standard errors of that mean,
    # one of a 400-trial mean) and +0.0002 at 20 dB.  quick_demo's
    # channel is flat and its preamble's power equals its active region's,
    # against which the mix sets the SNR; the trace is read at n = 0, so no
    # timing rule enters.
    sc = load("quick_demo")
    values = np.empty(TRIALS)
    for t in range(TRIALS):
        received, _ = _receive(sc, snr_db, math.inf, trial_rng(sc.master_seed, "oracle", t))
        trace = compute_trace(received, sc.frame.n_fft, with_nirs=False)
        values[t] = trace.metric_sc[trace.n == 0][0]
    s = 10.0 ** (snr_db / 10.0)
    z = (values.mean() - (s / (s + 1.0)) ** 2) / (values.std(ddof=1) / math.sqrt(TRIALS))
    assert abs(z) < 3.0, f"mean S&C metric at n = 0 is {z:+.2f} standard errors off"
