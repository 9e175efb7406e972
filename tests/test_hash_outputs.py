"""The output-hashing tool prints one stable SHA-256 per output file and seed."""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "hash_outputs.py"
_SPEC = importlib.util.spec_from_file_location("hash_outputs", _PATH)
hash_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(hash_outputs)

FILES = ["quick_demo/results.csv", "sync_error_ideal_tone/results.csv",
         "sync_error_fm_28k/results.csv", "sync_error_wideband_fm/results.csv",
         "nbi_bandwidth_sweep/bandwidth_sweep.csv", "trace_pct/trace_percentiles.csv",
         "trace_pct/trace.csv", "validate_appendix/notch_study.csv"]


def hashes(capsys, *argv) -> list[list[str]]:
    assert hash_outputs.main(list(argv)) == 0
    return [line.split("\t") for line in capsys.readouterr().out.splitlines()]


def test_one_trial_hashes_every_output_for_every_seed_and_repeats(capsys):
    lines = hashes(capsys, "--trials", "1", "--frames", "2", "--seeds", "preset, 7")
    assert [(seed, what) for seed, what, _ in lines] == \
        [(seed, what) for seed in ("preset", "7") for what in FILES]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for *_, digest in lines)
    # Another seed draws other frames, so every file changes.
    n = len(FILES)
    assert all(a[2] != b[2] for a, b in zip(lines[:n], lines[n:]))
    assert hashes(capsys, "--trials", "1", "--frames", "2", "--seeds", "7") == lines[n:]


def test_keep_writes_the_hashed_files_under_their_seed(capsys, tmp_path):
    lines = hashes(capsys, "--trials", "1", "--frames", "2", "--seeds", "7",
                   "--keep", str(tmp_path))
    assert [what for _, what, _ in lines] == FILES
    for seed, what, digest in lines:
        assert hashlib.sha256((tmp_path / seed / what).read_bytes()).hexdigest() == digest


def test_no_seed_is_an_error(capsys):
    with pytest.raises(SystemExit):
        hash_outputs.main(["--trials", "1", "--frames", "2", "--seeds", ","])
