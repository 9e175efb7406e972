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
        "c6bcf046ded64b5c23602396de53989b4323fbcffe6baefdce84752c8f7a0383",
    "sync_error_ideal_tone/results.csv":
        "6aa99f6c9d4ed7bb089739d37fbec1b9baa220f6f068f056a20445415f41c529",
    "sync_error_fm_28k/results.csv":
        "8356a3348cd9b5beeda0b23ece7eb2bd0e8cdf40a021fe7a5331f38804f86d0c",
    "sync_error_wideband_fm/results.csv":
        "bb2d3abbf50a4717a5ca32aab58b64428b33c9f2acb44ac9f05e58b4cfd52456",
    "nbi_bandwidth_sweep/bandwidth_sweep.csv":
        "a34e00469adde3d5cdf2e127325bcdfed19c2632b4430bf3841f34a6b4e7812d",
    "trace/trace.csv":
        "34a7c0d2bfedcaa9522880fa208a099294c61693cbe833d4097c386553cf80a0",
    "trace_pct/trace_percentiles.csv":
        "f3d5090ff79ef58fa3838eb1b89a2fd188df88926e8cc59a20d032ee36bb4dd8",
    "trace_pct_200/trace_percentiles.csv":
        "705cb328034e4ccd4703b8eef9de7afde8f5f88c12d110bfa1bb21044f44207c",
    "validate_appendix/notch_study.csv":
        "9e3abed720bd243165b729c78ccafb91df5e4ed3c4e09797b3be4cf196da3f42",
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
