"""Golden outputs: SHA-256 of every CSV the package writes, at fixed seeds.

The hashes pin today's output bytes, so a change meant to be a pure speed-up
or refactor must leave them alone.  Results alone are not enough: a change to
the summation order of the metric trace can keep every 10-trial verdict the
same while moving the last printed digit of trace.csv, so both trace dumps
are pinned as well.

The bytes depend on numpy's random streams and its FFT and transcendental
kernels, so the hashes are only compared under the numpy version they were
taken with (NUMPY_VERSION); under another version the tests skip and say so.
To re-take them after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py

and paste the printed table here, with the reason in CHANGES.md.
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ncsync.cli import main
from ncsync.runner import emit_trace, run_nbi_bandwidth_sweep, run_scenario
from ncsync.scenario import load

NUMPY_VERSION = "2.4.6"

# "<job>/<file>" -> SHA-256 of the file the job writes (see _produce).
GOLDEN = {
    "quick_demo/results.csv":
        "15913fc9b1726aa0d15aa0775781f2916d02352ff55ca3dfd86959eba68b0cb6",
    "sync_error_ideal_tone/results.csv":
        "1d1dc840827dc4c5da2993bd80cc1ee071c10be0d0d82c3e9d4ff2a52ca570be",
    "sync_error_fm_28k/results.csv":
        "7fe40c7dff9b81c622187682c5a9d0f6cda5e4ad36fc5e343f68ca780ab577cd",
    "sync_error_wideband_fm/results.csv":
        "f45a0f247bc7fd40793064b33e053fdde658d8baf251df0a1fcda2b1c9b7d660",
    "nbi_bandwidth_sweep/bandwidth_sweep.csv":
        "f7624cf8b82fb179d4599d31afd4e9091c90149555734bdeccdeac2882c90b37",
    "trace/trace.csv":
        "e4920e0e11696a80c9ffda34ce91f57e481c5b98710a7c43c7e3c5bcfda76673",
    "trace_pct/trace_percentiles.csv":
        "4a3e50ce37093b507551ac8ebe23bccc6ae75a0a7c45d2620a0542b27dd5caf0",
    "trace_pct_200/trace_percentiles.csv":
        "5563cdd03c75967e3ce98be7a5b2375614a9ab9e0734e9f137b64e1c60956a8b",
    "validate_appendix/notch_study.csv":
        "ef41d94dbfc1104df60d489c9f8f3d47431fa1436a223b6e917271fc4f1dd5ab",
}

MC_PRESETS = ("sync_error_ideal_tone", "sync_error_fm_28k", "sync_error_wideband_fm")
MC_TRIALS = 3
SWEEP_TRIALS = 3
TRACE_SCENARIO, TRACE_CELL = "sync_error_fm_28k", (20.0, 0.0)
# Frames per percentile job.  200 is the benchmark's trace_pct size: its
# percentiles interpolate with other weights than 12 frames' do.
PCT_FRAMES = {"trace_pct": 12, "trace_pct_200": 200}


def _produce(name: str, out: Path) -> Path:
    """Run the job behind a golden name into `out`; returns the written file."""
    job, fname = name.split("/")
    if job == "quick_demo":
        run_scenario(load("quick_demo"), out_dir=out)
    elif job in MC_PRESETS:
        sc = load(job)
        run_scenario(sc, out_dir=out, trials=MC_TRIALS, seed=sc.master_seed)
    elif job == "nbi_bandwidth_sweep":
        run_nbi_bandwidth_sweep(load(job), out_dir=out, trials=SWEEP_TRIALS)
    elif job == "trace":
        emit_trace(load(TRACE_SCENARIO), *TRACE_CELL, trial=1, out_dir=out)
    elif job in PCT_FRAMES:
        emit_trace(load(TRACE_SCENARIO), *TRACE_CELL, percentiles=True,
                   n_frames=PCT_FRAMES[job], out_dir=out)
    elif job == "validate_appendix":
        with contextlib.redirect_stdout(sys.stderr):  # keep __main__'s table clean
            assert main(["validate-appendix", "--trials", "40", "--grids", "3",
                         "--out", str(out)]) == 0
    else:
        raise KeyError(name)
    return out / fname


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


NAMES = (["quick_demo/results.csv"] + [f"{p}/results.csv" for p in MC_PRESETS]
         + ["nbi_bandwidth_sweep/bandwidth_sweep.csv", "trace/trace.csv",
            "trace_pct/trace_percentiles.csv", "trace_pct_200/trace_percentiles.csv",
            "validate_appendix/notch_study.csv"])


@pytest.mark.parametrize("name", NAMES)
def test_golden_output(name, tmp_path):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"hashes taken under numpy {NUMPY_VERSION}, running {np.__version__}")
    assert _sha256(_produce(name, tmp_path)) == GOLDEN[name], \
        f"{name} changed bytes"


if __name__ == "__main__":
    print(f'NUMPY_VERSION = "{np.__version__}"', file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for i, name in enumerate(NAMES):
            print(f'    "{name}":\n        "{_sha256(_produce(name, Path(tmp) / str(i)))}",')
