"""SHA-256 of the harness's output files, to check that a change keeps every byte.

    python3 tools/hash_outputs.py --trials 200 --frames 200 --seeds preset,7

Run from the repository root.  ncsync is imported from PYTHONPATH when that
names a checkout's src (so two trees hash under one copy of this tool), and
from this repository's src otherwise.  For each seed, an integer or `preset`
for each scenario's own master seed, the outputs are written to a temporary
directory and one line is printed per file (seed, scenario/file, SHA-256):

- results.csv of sync_error_ideal_tone, sync_error_fm_28k and
  sync_error_wideband_fm, run at --trials trials per cell;
- bandwidth_sweep.csv of nbi_bandwidth_sweep at --trials trials per cell;
- trace_percentiles.csv of the trace_pct benchmark cell: sync_error_fm_28k
  at 20 dB SNR and 0 dB SIR over --frames frames.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from ncsync import runner, scenario  # noqa: E402  (after the path fallback)

MC_PRESETS = ("sync_error_ideal_tone", "sync_error_fm_28k", "sync_error_wideband_fm")
TRACE_CELL = ("sync_error_fm_28k", 20.0, 0.0)


def outputs(seed: int | None, trials: int, frames: int, out: Path):
    """Write every output for one seed; yields (scenario/file, path)."""
    for name in MC_PRESETS:
        runner.run_scenario(scenario.load(name), out / name, trials=trials, seed=seed)
        yield f"{name}/results.csv", out / name / "results.csv"
    name = "nbi_bandwidth_sweep"
    runner.run_nbi_bandwidth_sweep(scenario.load(name), out_dir=out / name, trials=trials,
                                   seed=seed)
    yield f"{name}/bandwidth_sweep.csv", out / name / "bandwidth_sweep.csv"
    name, snr_db, sir_db = TRACE_CELL
    sc = scenario.load(name)
    if seed is not None:
        sc = dataclasses.replace(sc, master_seed=seed)
    _, fname = runner.emit_trace(sc, snr_db, sir_db, percentiles=True, n_frames=frames,
                                 out_dir=out / "trace_pct")
    yield f"trace_pct/{fname}", out / "trace_pct" / fname


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, required=True, help="trials per cell")
    ap.add_argument("--frames", type=int, required=True, help="frames of the trace cell")
    ap.add_argument("--seeds", required=True,
                    help="comma-separated seeds; `preset` keeps each scenario's own")
    args = ap.parse_args(argv)
    seeds = [s.strip() for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        ap.error("--seeds names no seed")
    print(f"ncsync from {Path(runner.__file__).parent}", file=sys.stderr)
    for label in seeds:
        seed = None if label == "preset" else int(label)
        with tempfile.TemporaryDirectory(prefix="hash-outputs-") as tmp:
            for what, path in outputs(seed, args.trials, args.frames, Path(tmp)):
                print(f"{label}\t{what}\t{hashlib.sha256(path.read_bytes()).hexdigest()}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
