"""What the benchmark under perfbench/ relies on in the package.

perfbench times and records the runner from outside by swapping module
attributes, so renaming or dropping one of them breaks `--trace 1` and the
benchmark's reference checks without failing any other test.
"""

import importlib
import sys
from pathlib import Path

from ncsync.runner import run_scenario
from ncsync.scenario import load

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_span_resolves():
    for module, _, _ in tracer.ALL_SPANS:
        importlib.import_module(module)
    # patched() looks each attribute up as the tracer does and raises
    # KeyError for one that is gone.
    with tracer.patched([(m, a, lambda fn: fn) for m, a, _ in tracer.ALL_SPANS]):
        pass


def test_recorder_sees_every_trial():
    sc = load("quick_demo")
    trials = 2
    rec = workloads.Recorder()
    with tracer.patched(rec.targets()):
        rows = run_scenario(sc, trials=trials, seed=11)
    assert rows == run_scenario(sc, trials=trials, seed=11)
    n_cells = len(sc.snr_grid) * len(sc.sir_grid)
    assert len(rec.trials) == n_cells * trials
    for trial in rec.trials:
        assert len(trial["trace"]) == len(trial["r"]) - trial["n_fft"] + 1
        assert [res.mode for res in trial["results"]] == list(sc.algorithms)
        assert [res for res, *_ in trial["scores"]] == trial["results"]
