"""Statistical oracles: the Monte-Carlo path against closed forms.

Each oracle runs on its own realization key at a fixed seed and trial count,
and its tolerance is three standard errors of the sample's own estimate, so a
calibration error that moves a statistic by several standard errors fails it
while the criteria's loose bounds would still pass.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from ncsync.metrics import compute_trace
from ncsync.runner import _receive, trial_rng
from ncsync.scenario import load

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cfo_variance_ratio.py"
_SPEC = importlib.util.spec_from_file_location("cfo_variance_ratio", _PATH)
cfo_variance_ratio = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cfo_variance_ratio)

TRIALS = 400
# A 0.5 dB excess noise power moves the variance by +12%, about 4.3 standard
# errors at this count: planted in the mix, it read z = +4.15, +3.62 and
# +3.46 at 10, 20 and 30 dB, and +2.1 to +2.5 at 1000 trials.
CFO_TRIALS = 2500


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


@pytest.fixture(scope="module")
def sc_cfo_errors():
    """S&C's CFO errors, (SNR, trial), with trial t drawn once for every SNR."""
    return cfo_variance_ratio.cfo_errors(CFO_TRIALS, key="cfo_oracle")[..., 0]


@pytest.mark.parametrize("snr_db", cfo_variance_ratio.SNRS_DB)
def test_sc_cfo_variance_is_schmidl_and_cox_closed_form(snr_db, sc_cfo_errors):
    # S&C's CFO estimate read at the true frame start, with no interferer,
    # against 1/(pi^2 L S) + 1/(2 pi^2 L S^2), L = N/2; the standard error is
    # that of the mean of the squared deviations, whose mean is the variance.
    err = sc_cfo_errors[cfo_variance_ratio.SNRS_DB.index(snr_db)]
    sq = (err - err.mean()) ** 2
    want = cfo_variance_ratio.sc_closed_form(snr_db, load("quick_demo").frame.n_fft)
    z = (err.var(ddof=1) - want) / (sq.std(ddof=1) / math.sqrt(CFO_TRIALS))
    assert abs(z) < 3.0, f"S&C CFO variance is {z:+.2f} standard errors off the closed form"
