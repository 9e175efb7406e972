"""The output-hashing tool prints one stable SHA-256 per output file and seed."""

import importlib.util
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "hash_outputs.py"
_SPEC = importlib.util.spec_from_file_location("hash_outputs", _PATH)
hash_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(hash_outputs)

FILES = ["sync_error_ideal_tone/results.csv", "sync_error_fm_28k/results.csv",
         "sync_error_wideband_fm/results.csv", "nbi_bandwidth_sweep/bandwidth_sweep.csv",
         "trace_pct/trace_percentiles.csv"]


def hashes(capsys, *argv) -> list[list[str]]:
    assert hash_outputs.main(list(argv)) == 0
    return [line.split("\t") for line in capsys.readouterr().out.splitlines()]


def test_one_trial_hashes_every_output_for_every_seed_and_repeats(capsys):
    lines = hashes(capsys, "--trials", "1", "--frames", "2", "--seeds", "preset, 7")
    assert [(seed, what) for seed, what, _ in lines] == \
        [(seed, what) for seed in ("preset", "7") for what in FILES]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for *_, digest in lines)
    # Another seed draws other frames, so every file changes.
    assert all(a[2] != b[2] for a, b in zip(lines[:5], lines[5:]))
    assert hashes(capsys, "--trials", "1", "--frames", "2", "--seeds", "7") == lines[5:]


def test_no_seed_is_an_error(capsys):
    with pytest.raises(SystemExit):
        hash_outputs.main(["--trials", "1", "--frames", "2", "--seeds", ","])
