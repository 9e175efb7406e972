"""Spans around calls into ncsync, recorded from outside the package.

A Tracer swaps chosen module attributes for timing wrappers while it is
installed and puts the originals back when it is removed, so the package's
source is untouched.  Each wrapper charges its duration to a span name and
the same duration to its caller's child total; a span's self time is its
duration minus the time its wrapped children took.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute, span).  The runner imports names into its own
# namespace, so its calls are intercepted there; the workloads that call a
# layer directly go through that layer's module.  Methods are patched on
# their class.
RUNNER_SPANS = (
    ("ncsync.runner", "trial_rng", "runner.trial_rng"),
    ("ncsync.runner", "SymbolGrid", "ofdm.frame"),
    ("ncsync.runner", "preamble_from_bits", "ofdm.frame"),
    ("ncsync.runner", "random_data_symbol", "ofdm.frame"),
    ("ncsync.runner", "build_frame", "ofdm.frame"),
    ("ncsync.runner", "draw_channel_cost207tu", "impairments.channel"),
    ("ncsync.runner", "apply_multipath", "impairments.channel"),
    ("ncsync.runner", "apply_cfo", "impairments.cfo"),
    ("ncsync.runner", "gen_nbi", "impairments.nbi"),
    ("ncsync.runner", "calibrate_and_mix", "impairments.mix"),
    ("ncsync.runner", "compute_trace", "metrics.trace"),
    ("ncsync.runner", "model_counters", "streaming.model_counters"),
    ("ncsync.runner", "detect", "detect.detect"),
    ("ncsync.runner", "ber_preamble", "evaluate.ber"),
    ("ncsync.runner", "classify", "evaluate.classify"),
    ("ncsync.runner", "aggregate", "evaluate.aggregate"),
    ("ncsync.runner", "write_csv", "runner.write"),
    ("ncsync.runner", "write_manifest", "runner.write"),
    ("ncsync.runner", "run_trial", "runner.run"),
    ("ncsync.runner", "run_cell", "runner.run"),
    ("ncsync.runner", "run_scenario", "runner.run"),
    ("ncsync.runner", "emit_trace", "runner.run"),
    ("ncsync.impairments", "ChannelRealization.freq_response",
     "impairments.freq_response"),
)
DIRECT_SPANS = (
    ("ncsync.metrics", "compute_trace", "metrics.trace"),
    ("ncsync.detect", "detect", "detect.detect"),
    ("ncsync.evaluate", "classify", "evaluate.classify"),
    ("ncsync.evaluate", "aggregate", "evaluate.aggregate"),
    ("ncsync.streaming", "trace_from_stream", "streaming.push"),
)
ALL_SPANS = RUNNER_SPANS + DIRECT_SPANS


def _arg(args, kwargs, pos: int, name: str, default):
    return kwargs.get(name, args[pos] if len(args) > pos else default)


# Spans whose per-sample cost is kept apart by mode: span -> (args, kwargs)
# -> mode.  The first argument of both is the TimeSignal being processed.
PER_SAMPLE = {
    "metrics.trace": lambda a, k: "nirs" if _arg(a, k, 2, "with_nirs", True) else "sc",
    "streaming.push": lambda a, k: _arg(a, k, 2, "mode", "nirs"),
}


@contextmanager
def patched(targets):
    """Replace each (module, attribute, make_wrapper) target while active.

    The attribute becomes make_wrapper(original); originals come back on
    exit, also when the body raises.
    """
    saved = []
    try:
        for module, attr, make_wrapper in targets:
            obj = sys.modules[module]
            *path, name = attr.split(".")
            for part in path:
                obj = getattr(obj, part)
            orig = obj.__dict__[name]
            setattr(obj, name, make_wrapper(orig))
            saved.append((obj, name, orig))
        yield
    finally:
        for obj, name, orig in reversed(saved):
            setattr(obj, name, orig)


class Tracer:
    """Per-span call counts, total and self nanoseconds, and sample counts.

    samples["<span>.<mode>"] counts the buffer samples handed to the spans in
    PER_SAMPLE, with their time in total_ns under the same key, so that
    per-sample costs can be formed for each mode.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.samples: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self._child_ns: list[int] = []

    def _wrap(self, span: str, fn):
        child_ns, calls = self._child_ns, self.calls
        total_ns, self_ns, samples = self.total_ns, self.self_ns, self.samples
        mode_of = PER_SAMPLE.get(span)

        def wrapper(*args, **kwargs):
            child_ns.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                inner = child_ns.pop()
                calls[span] += 1
                total_ns[span] += dt
                self_ns[span] += dt - inner
                if child_ns:
                    child_ns[-1] += dt
                else:
                    self.root_ns += dt
                if mode_of is not None:
                    key = f"{span}.{mode_of(args, kwargs)}"
                    samples[key] += len(args[0])
                    total_ns[key] += dt

        return wrapper

    def __enter__(self) -> "Tracer":
        """Install the wrappers; the tallies carry over between installs."""
        self._patch = patched([(m, a, lambda fn, span=span: self._wrap(span, fn))
                               for m, a, span in ALL_SPANS])
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)
