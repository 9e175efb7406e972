"""SHA-256 of the harness's output files, to check that a change keeps every byte.

    python3 tools/hash_outputs.py --trials 200 --frames 200 --seeds preset,7

Run from the repository root.  ncsync is imported from PYTHONPATH when that
names a checkout's src (so two trees hash under one copy of this tool), and
from this repository's src otherwise.  For each seed, an integer or `preset`
for each scenario's own master seed, the outputs are written to a temporary
directory and one line is printed per file (seed, scenario/file, SHA-256):

- results.csv of quick_demo (the flat-channel preset), sync_error_ideal_tone,
  sync_error_fm_28k, sync_error_wideband_fm and nbi_bandwidth_sweep, run at
  --trials trials per cell;
- bandwidth_sweep.csv of nbi_bandwidth_sweep at --trials trials per cell;
- trace_percentiles.csv of the trace_pct benchmark cell: sync_error_fm_28k
  at 20 dB SNR and 0 dB SIR over --frames frames;
- trace.csv of the same cell's single frame at trial index 1;
- notch_study.csv of `ncsync validate-appendix --trials T --grids 3 --seed S`,
  at --trials trials per notch point and S = 1 (the command's default) for
  `preset`.

With --keep DIR the files are written under DIR/<seed>/ and kept, so that
two trees' CSVs can be compared row by row.  With --compare DIR, DIR being
another tree's --keep directory, each file whose hash differs from its
counterpart there is followed by one line per column that differs:

    #<TAB>column<TAB>largest relative difference<TAB>rows that differ/rows

The relative difference of two numbers x != y is |x - y| / max(|x|, |y|)
(inf when either is not finite); a column that does not parse as numbers
reads `text`.  A file missing there, or with another header or row count,
gets one `#` line saying so.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import math
import sys
import tempfile
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from ncsync import cli, runner, scenario  # noqa: E402  (after the path fallback)

RUN_PRESETS = ("quick_demo", "sync_error_ideal_tone", "sync_error_fm_28k",
               "sync_error_wideband_fm", "nbi_bandwidth_sweep")
TRACE_CELL = ("sync_error_fm_28k", 20.0, 0.0)


def outputs(seed: int | None, trials: int, frames: int, out: Path):
    """Write every output for one seed; yields (scenario/file, path)."""
    for name in RUN_PRESETS:
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
    for kw in ({"percentiles": True, "n_frames": frames}, {"trial": 1}):
        _, fname = runner.emit_trace(sc, snr_db, sir_db, out_dir=out / "trace_pct", **kw)
        yield f"trace_pct/{fname}", out / "trace_pct" / fname
    name = "validate_appendix"
    argv = ["validate-appendix", "--trials", str(trials), "--grids", "3",
            "--seed", str(1 if seed is None else seed), "--out", str(out / name)]
    with contextlib.redirect_stdout(sys.stderr):  # keep the hash lines clean
        # Exit 1 is a failed self-check, likely at a few trials; the file is written.
        if cli.main(argv) not in (0, 1):
            raise RuntimeError(f"ncsync {' '.join(argv)} failed")
    yield f"{name}/notch_study.csv", out / name / "notch_study.csv"


def _relative_difference(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two CSV cells, 0 when they read equal."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def column_differences(path: Path, other: Path) -> list[str]:
    """The `#` lines comparing a CSV with its counterpart in another tree's output."""
    if not other.is_file():
        return [f"#\tmissing: {other}"]
    with path.open(newline="") as f, other.open(newline="") as g:
        rows, others = list(csv.reader(f)), list(csv.reader(g))
    if not rows or not others or rows[0] != others[0] or len(rows) != len(others):
        return [f"#\theader or row count differs: {len(rows)} against {len(others)} rows"]
    header, body = rows[0], list(zip(rows[1:], others[1:]))
    lines = []
    for j, column in enumerate(header):
        pairs = [(r[j], o[j]) for r, o in body if r[j] != o[j]]
        if not pairs:
            continue
        try:
            worst = f"{max(_relative_difference(a, b) for a, b in pairs):.3g}"
        except ValueError:
            worst = "text"
        lines.append(f"#\t{column}\t{worst}\t{len(pairs)}/{len(body)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, required=True, help="trials per cell")
    ap.add_argument("--frames", type=int, required=True, help="frames of the trace cell")
    ap.add_argument("--seeds", required=True,
                    help="comma-separated seeds; `preset` keeps each scenario's own")
    ap.add_argument("--keep", metavar="DIR",
                    help="write the files under DIR/<seed>/ and keep them")
    ap.add_argument("--compare", metavar="DIR",
                    help="another tree's --keep DIR: show how far each differing file moved")
    args = ap.parse_args(argv)
    seeds = [s.strip() for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        ap.error("--seeds names no seed")
    print(f"ncsync from {Path(runner.__file__).parent}", file=sys.stderr)
    for label in seeds:
        seed = None if label == "preset" else int(label)
        with (contextlib.nullcontext(Path(args.keep) / label) if args.keep
              else tempfile.TemporaryDirectory(prefix="hash-outputs-")) as tmp:
            for what, path in outputs(seed, args.trials, args.frames, Path(tmp)):
                print(f"{label}\t{what}\t{hashlib.sha256(path.read_bytes()).hexdigest()}",
                      flush=True)
                if not args.compare:
                    continue
                other = Path(args.compare) / label / what
                if not other.is_file() or other.read_bytes() != path.read_bytes():
                    for line in column_differences(path, other):
                        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
