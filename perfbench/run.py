"""ncsync benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload tone_grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src.  With
--trace 0 no wrappers are installed and the run reports the end-to-end
metrics; with --trace 1 every round runs untraced and then again with spans
around every layer call, and the run reports the per-layer metrics plus the
difference between the two (the tracing overhead).  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from tracer import Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 9
# setup_s and trials_per_s are scaled to a machine on which Calibration.run
# takes this long (about what it takes on the 2-vCPU Xeon in the README).
CAL_REF_S = 0.008
MODULES = ("ofdm", "impairments", "metrics", "streaming", "detect", "evaluate",
           "scenario", "runner")


def loaded_ncsync() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "ncsync" or k.startswith("ncsync.")}


def fresh_import():
    """Import ncsync and its layers anew, as a new process would."""
    for name in loaded_ncsync():
        del sys.modules[name]
    importlib.import_module("ncsync")
    return argparse.Namespace(**{m: importlib.import_module(f"ncsync.{m}")
                                 for m in MODULES})


def set_up(workload, seed: int, cal: "Calibration") -> tuple[float, float]:
    """Import + scenario load + input build into `workload`.

    Returns (seconds scaled like trials_per_s, ms spent in scenario.load).
    Garbage from an earlier set-up is collected first, so each one starts
    from the same state; a calibration run right after gives the scale.
    """
    load_ns = []

    def timed(fn):
        def wrapper(*args, **kwargs):
            t = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                load_ns.append(perf_counter_ns() - t)
        return wrapper

    gc.collect()
    t0 = perf_counter()
    nc = fresh_import()
    with patched([("ncsync.scenario", "load", timed)]):
        workload.setup(nc, seed, OUT_DIR / workload.name)
    seconds = perf_counter() - t0
    return seconds * CAL_REF_S / cal.run(), sum(load_ns) / 1e6


def spare_set_up(workload, seed: int, cal: "Calibration") -> tuple[float, float]:
    """Time one more set-up into a throw-away copy, keeping the live modules."""
    live = loaded_ncsync()
    try:
        return set_up(dataclasses.replace(workload), seed, cal)
    finally:
        for name in loaded_ncsync():
            del sys.modules[name]
        sys.modules.update(live)


class Calibration:
    """A fixed mix of interpreter and small-array numpy work, no ncsync code.

    On a machine shared with other tenants the speed of the whole machine
    drifts by +-15% over minutes; timing this kernel next to every round and
    set-up measures that drift, so times can be scaled to a fixed speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)

    def run(self) -> float:
        x, acc, d = self.x, 0.0, {"a": 1}
        t0 = perf_counter()
        for _ in range(60):
            acc += float(np.fft.fft(x[:256])[3].real + np.cumsum(x * np.conj(x))[-1].real)
            for j in range(200):
                acc += d["a"] * j
                d["a"] = j & 7
            for j in range(20):
                acc += float(np.abs(x[j:j + 64]).sum())
        return perf_counter() - t0


def measure(workload, seconds: float, seed: int, cal: Calibration,
            setups: list | None = None, tracer: Tracer | None = None):
    """Whole rounds until `seconds` have passed; per-round times and checks.

    Each round is followed by one timed calibration run.  With a tracer,
    every round is run twice, untraced and then traced, so that both see the
    same inputs and machine state; returns (untraced, traced) records.  With
    a `setups` list, SETUP_REPEATS spare set-ups are spread evenly over the
    run, between rounds and outside their times, so that the set-up median
    samples the same machine states as the rounds do.
    """
    modes = [("plain", nullcontext())] + ([("traced", tracer)] if tracer else [])
    runs = {name: {"rounds": [], "cals": [], "phases": [], "fails": [],
                   "attempted": 0, "failed": 0} for name, _ in modes}
    t_start = perf_counter()
    r = 0
    while True:
        for name, ctx in modes:
            m = runs[name]
            with ctx:
                t0 = perf_counter()
                try:
                    out, phase = workload.run_round(r)
                except Exception:  # a failing round counts its operations as failed
                    traceback.print_exc(file=sys.stderr)
                    m["failed"] += workload.ops_per_round
                    out = None
                dt = perf_counter() - t0
            m["attempted"] += workload.ops_per_round
            if out is not None:
                m["rounds"].append(dt)
                m["cals"].append(cal.run())
                m["phases"].append(phase)
                m["fails"] += workload.check_round(r, out)
            del out  # no round's outputs stay alive through the next one
        r += 1
        elapsed = perf_counter() - t_start
        while setups is not None and \
                len(setups) < 1 + SETUP_REPEATS * min(1.0, elapsed / seconds):
            setups.append(spare_set_up(workload, seed, cal))
        if elapsed >= seconds:
            break
    return runs["plain"], runs.get("traced")


def scaled_ms(m: dict, ops: int) -> float:
    """Median over rounds of ms per operation, scaled by the paired calibration.

    Each round is paired with the calibration run right after it, so both
    see the same machine state: round time x CAL_REF_S / calibration time.
    """
    return statistics.median(t * CAL_REF_S / c for t, c in zip(m["rounds"], m["cals"])) \
        * 1e3 / ops


def layer_metrics(workload, tracer, plain: dict, traced: dict, load_ms: float) -> dict:
    """Per-layer figures from the traced rounds; throughputs from the plain ones.

    Span times are totals over the traced rounds divided by their operation
    count (means), scaled like the end-to-end times by CAL_REF_S over the
    traced rounds' median calibration time.
    """
    ops_round = workload.ops_per_round
    rounds = len(traced["rounds"])
    ops = rounds * ops_round
    scale = CAL_REF_S / statistics.median(traced["cals"]) / 1e6  # ns -> scaled ms
    per_op = lambda ns: ns * scale / ops  # noqa: E731
    total = tracer.total_ns.get

    def per_sample(key: str) -> float:
        n = tracer.samples.get(key, 0)
        return total(key, 0) * scale * 1e6 / n if n else 0.0  # scaled ns/sample

    stages = ("ofdm.frame", "impairments.channel", "impairments.cfo", "impairments.nbi",
              "impairments.mix", "metrics.trace", "detect.detect", "evaluate.ber",
              "evaluate.classify", "runner.trial_rng", "streaming.model_counters",
              "impairments.freq_response")
    out = {f"{s}_ms": (per_op(total(s, 0)), "ms/trial") for s in stages}
    out["runner.self_ms"] = (per_op(tracer.self_ns.get("runner.run", 0)), "ms/trial")
    cells = workload.cells_per_round * rounds
    out["evaluate.aggregate_ms"] = (total("evaluate.aggregate", 0) * scale / cells, "ms/cell")
    writes = rounds if tracer.calls.get("runner.write") else 0
    out["runner.write_ms"] = (total("runner.write", 0) * scale / writes if writes else 0.0,
                              "ms/run")
    for span in ("impairments.freq_response", "streaming.model_counters"):
        out[f"{span}_calls"] = (tracer.calls.get(span, 0) / ops, "count/trial")
    out["scenario.load_ms"] = (load_ms, "ms")
    out["detect.detect_us_per_frame"] = (per_op(total("detect.detect", 0)) * 1e3, "us/frame")
    op_counts = getattr(workload, "op_counts", {})
    for mode in ("nirs", "sc"):
        out[f"metrics.trace_ns_per_sample.{mode}"] = (per_sample(f"metrics.trace.{mode}"),
                                                      "ns/sample")
        out[f"streaming.push_us_per_sample.{mode}"] = (
            per_sample(f"streaming.push.{mode}") / 1e3, "us/sample")
        ops_total, steps = op_counts.get(mode, (0, 1))
        out[f"streaming.real_ops_per_sample.{mode}"] = (ops_total / steps, "ops/sample")

    def phase_rate(name: str, samples: int) -> float:
        times = [p[name] * CAL_REF_S / c for p, c in zip(plain["phases"], plain["cals"])
                 if name in p]
        return samples / statistics.median(times) if times else 0.0

    out["scan_msps"] = (phase_rate("scan", len(getattr(workload, "capture", ()))) / 1e6,
                        "MS/s")
    out["stream_ksps"] = (phase_rate("stream", len(getattr(workload, "prefix", ()))) / 1e3,
                          "kS/s")
    # Means, like the span figures above, so that the stage times sum to
    # accounted_ms exactly; the untraced rounds are scaled by their own
    # calibration median.
    untraced, traced_ms = (statistics.fmean(m["rounds"]) * CAL_REF_S
                           / statistics.median(m["cals"]) * 1e3 / ops_round
                           for m in (plain, traced))
    out["trace.untraced_ms"] = (untraced, "ms/trial")
    out["trace.accounted_ms"] = (per_op(tracer.root_ns), "ms/trial")
    out["trace.overhead_pct"] = (100.0 * (traced_ms / untraced - 1.0), "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ncsync" / "__init__.py").is_file():
        print(f"no ncsync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    cal = Calibration()
    setups = [set_up(workload, args.seed, cal)]

    if args.trace:
        tracer = Tracer()
        plain, traced = measure(workload, args.seconds, args.seed, cal, tracer=tracer)
        runs = (plain, traced)
        metrics = layer_metrics(workload, tracer, plain, traced, setups[0][1])
    else:
        plain, _ = measure(workload, args.seconds, args.seed, cal, setups)
        setup_s = statistics.median(s for s, _ in setups)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runs = (plain,)
        metrics = {
            "setup_s": (setup_s, "s"),
            "trials_per_s": (1e3 / scaled_ms(plain, workload.ops_per_round), "trials/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    fails = [f for m in runs for f in m["fails"]]
    fails += workload.final_check(np.random.default_rng(args.seed))
    for f in fails[:20]:
        print("CHECK FAILED:", f, file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": sum(m["attempted"] for m in runs),
        "failed": sum(m["failed"] for m in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
