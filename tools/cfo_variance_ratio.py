"""NIRS's CFO-estimate variance as a ratio to S&C's, with no interferer.

    python3 tools/cfo_variance_ratio.py --trials 2000

Run from the repository root.  At each SNR (10, 20 and 30 dB), trial t of the
key `cfo_ratio` under quick_demo's master seed is drawn and mixed at
SIR = inf as `ncsync run` mixes it.  Both detectors read the CFO off their
numerator at the true frame start n = 0, as `detect` reads it at a peak, so
no timing rule enters.  One line is printed per SNR: the variance of the
error nu_hat - nu for each detector (in squared subcarrier spacings), and
their ratio with a 95% percentile-bootstrap interval over the paired trials.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from ncsync.metrics import compute_trace  # noqa: E402  (after the path fallback)
from ncsync.runner import _receive, trial_rng  # noqa: E402
from ncsync.scenario import load  # noqa: E402

KEY = "cfo_ratio"
SNRS_DB = (10.0, 20.0, 30.0)
N_BOOT = 2000


def cfo_errors(snr_db: float, trials: int) -> np.ndarray:
    """(trials, 2) CFO errors in spacings, columns S&C and NIRS."""
    sc = load("quick_demo")
    err = np.empty((trials, 2))
    for t in range(trials):
        received, frame = _receive(sc, snr_db, math.inf, trial_rng(sc.master_seed, KEY, t))
        trace = compute_trace(received, sc.frame.n_fft, with_nirs=True)
        at = int(np.flatnonzero(trace.n == 0)[0])
        for col, num in enumerate((trace.g[at], trace.g_nirs[at])):
            err[t, col] = float(np.arctan2(num.imag, num.real)) / math.pi - frame.nu
    return err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2000, help="trials per SNR")
    args = parser.parse_args(argv)
    if args.trials < 2:
        parser.error(f"--trials must be >= 2, got {args.trials}")
    boot = np.random.default_rng(0)
    print(f"quick_demo, SIR = inf, key {KEY!r}, {args.trials} trials per SNR")
    for snr_db in SNRS_DB:
        err = cfo_errors(snr_db, args.trials)
        var = err.var(axis=0, ddof=1)
        idx = boot.integers(0, args.trials, size=(N_BOOT, args.trials))
        boot_sc, boot_nirs = (col[idx].var(axis=1, ddof=1) for col in err.T)
        lo, hi = np.quantile(boot_nirs / boot_sc, [0.025, 0.975])
        print(f"{snr_db:4.0f} dB  var S&C {var[0]:.3e}  var NIRS {var[1]:.3e}  "
              f"ratio {var[1] / var[0]:.2f} [{lo:.2f}, {hi:.2f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
