"""NIRS's CFO-estimate variance as a ratio to S&C's, with no interferer.

    python3 tools/cfo_variance_ratio.py --trials 2000

Run from the repository root.  Trial t of the key `cfo_ratio` under
quick_demo's master seed is drawn once and mixed at SIR = inf at each SNR
(10, 20 and 30 dB) as `ncsync run` mixes it.  Both detectors read the CFO
off their numerator at the true frame start n = 0, as `detect` reads it at a
peak, so no timing rule enters.  One line is printed per SNR: the variance of the
error nu_hat - nu for each detector (in squared subcarrier spacings), S&C's
closed-form variance beside S&C's, and their ratio with a 95%
percentile-bootstrap interval over the paired trials.
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


def sc_closed_form(snr_db: float, n_fft: int) -> float:
    """Schmidl and Cox's CFO-estimate variance in squared spacings,
    1/(pi^2 L S) + 1/(2 pi^2 L S^2) with L = N/2 (IEEE Trans. Commun. 45(12), 1997)."""
    s, half = 10.0 ** (snr_db / 10.0), n_fft / 2
    return 1.0 / (math.pi ** 2 * half * s) + 1.0 / (2.0 * math.pi ** 2 * half * s ** 2)


def cfo_errors(trials: int, key: str = KEY) -> np.ndarray:
    """(SNR, trial, detector) CFO errors in spacings, at SNRS_DB for S&C and
    NIRS.  Trial t is drawn once and mixed at every SNR, as a plan mixes it."""
    sc = load("quick_demo")
    err = np.empty((len(SNRS_DB), trials, 2))
    for t in range(trials):
        frame = trial_rng(sc.master_seed, key, t)
        for i, snr_db in enumerate(SNRS_DB):
            received, frame = _receive(sc, snr_db, math.inf, frame)
            trace = compute_trace(received, sc.frame.n_fft, with_nirs=True)
            at = int(np.flatnonzero(trace.n == 0)[0])
            for col, num in enumerate((trace.g[at], trace.g_nirs[at])):
                err[i, t, col] = float(np.arctan2(num.imag, num.real)) / math.pi - frame.nu
    return err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2000, help="trials per SNR")
    args = parser.parse_args(argv)
    if args.trials < 2:
        parser.error(f"--trials must be >= 2, got {args.trials}")
    boot = np.random.default_rng(0)
    print(f"quick_demo, SIR = inf, key {KEY!r}, {args.trials} trials per SNR")
    n_fft = load("quick_demo").frame.n_fft
    for snr_db, err in zip(SNRS_DB, cfo_errors(args.trials)):
        var = err.var(axis=0, ddof=1)
        idx = boot.integers(0, args.trials, size=(N_BOOT, args.trials))
        boot_sc, boot_nirs = (col[idx].var(axis=1, ddof=1) for col in err.T)
        lo, hi = np.quantile(boot_nirs / boot_sc, [0.025, 0.975])
        print(f"{snr_db:4.0f} dB  var S&C {var[0]:.3e} (closed form "
              f"{sc_closed_form(snr_db, n_fft):.3e})  var NIRS {var[1]:.3e}  "
              f"ratio {var[1] / var[0]:.2f} [{lo:.2f}, {hi:.2f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
