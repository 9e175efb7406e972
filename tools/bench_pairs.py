"""Alternating before/after benchmark pairs, each run in a fresh extraction.

    python3 tools/bench_pairs.py --parent HEAD --change "$(git write-tree)" \
        --out BENCH_10.json --seed0 10000 --traced trace_pct

Run from the repository root.  For every pair and workload, each side (a
git tree-ish: a commit, or `git write-tree` for the staged index) is
extracted with `git archive` into a new directory, runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` there,
with T the run_seconds of BENCHMARK.json, and is deleted.  Each workload
runs 10 pairs; even pairs run the parent first, odd pairs the change first.
Workload k (in BENCHMARK.json order) uses seeds seed0 + 100 (k + 1) + 1..10.
With --traced, that workload then runs --traced-pairs pairs of 20 s with
--trace 1 for the per-layer figures.  The output JSON holds every run, and
per workload and end-to-end metric each side's quartiles (linear, as
numpy's default), the change's pair wins and a verdict against the bounds
in BENCHMARK.json.  A run that errors, or reports `"correct": false` or
failed operations, counts as failed: it is left out of the quartiles and
wins (with its pair) and named in the verdict.  The file is rewritten after
every run, so an interrupted pairing keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACED_SECONDS = 20.0


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_side(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run from a fresh extraction of `tree`."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-"))
    try:
        archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=tmp, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            return {"error": proc.stderr[-2000:], "returncode": proc.returncode}
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def failure(result: dict) -> str | None:
    """Why a run's metrics cannot count, or None when they can."""
    if "error" in result:
        return f"error (exit {result.get('returncode')})"
    reasons = [why for why, bad in (
        ("outputs incorrect", result.get("correct") is not True),
        (f"{result.get('failed')} of {result.get('attempted')} operations failed",
         result.get("failed", 0) > 0),
        ("no metrics", "metrics" not in result)) if bad]
    return ", ".join(reasons) or None


def compare(runs: list[dict], workload: str, metric: dict) -> dict:
    """Quartiles, pair wins and verdict of one end-to-end metric.

    Failed runs (see `failure`) are left out, each with its pair, and listed
    as failed_runs.  Where the parent's IQR is wider than the bound, the
    metric is unresolved unless it is better by the claim rule or every
    change run beats every parent run.
    """
    name, higher = metric["name"], metric["better"] == "higher"
    by_pair: dict[int, dict[str, float]] = {}
    failed = []
    for r in runs:
        if r["workload"] != workload or r["trace"] != 0:
            continue
        why = failure(r["result"])
        if why:
            failed.append(f"{r['side']} pair {r['pair']} (seed {r['seed']}): {why}")
        else:
            by_pair.setdefault(r["pair"], {})[r["side"]] = \
                r["result"]["metrics"][name]["value"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    if not pairs:
        return {"failed_runs": failed}
    parent, change = [p["parent"] for p in pairs], [p["change"] for p in pairs]
    qp, qc = quartiles(parent), quartiles(change)
    rel = qc["median"] / qp["median"] - 1.0
    iqr = qp["q3"] - qp["q1"]
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    gain = qc["median"] - qp["median"] if higher else qp["median"] - qc["median"]
    worse = -rel if higher else rel
    all_beat = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if wins >= 0.9 * len(pairs) and gain > iqr:
        state = "better (>= 9/10 wins, median gap above parent IQR)"
    elif iqr / qp["median"] > metric["bound"] and not all_beat:
        state = f"unresolved (parent IQR wider than the {metric['bound']:.0%} bound)"
    elif worse > metric["bound"]:
        state = f"worse beyond the {metric['bound']:.0%} bound"
    else:
        state = "within bound"
    return {"better": metric["better"], "bound": metric["bound"], "parent": qp,
            "change": qc, "median_change_rel": round(rel, 4), "parent_iqr": iqr,
            "parent_iqr_rel": round(iqr / qp["median"], 4),
            "change_wins": f"{wins}/{len(pairs)}", "state": state,
            "parent_runs": parent, "change_runs": change, "failed_runs": failed}


def verdict(summary: dict) -> str:
    """A workload's verdict: each metric's change and state, then its failed runs."""
    parts = [f"{name} {s['median_change_rel']:+.1%} ({s['change_wins']} wins, parent IQR "
             f"{s['parent_iqr_rel']:.1%} of median): {s['state']}"
             for name, s in summary.items() if "state" in s]
    failed = next(iter(summary.values()), {}).get("failed_runs", [])
    if failed:
        parts.append(f"failed runs, left out with their pairs: {'; '.join(failed)}")
    return "; ".join(parts)


def machine() -> str:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return (f"{platform.system()} {platform.machine()}, {model or 'cpu model not exposed'}, "
            f"Python {platform.python_version()}, numpy {numpy}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="tree-ish of the parent side")
    ap.add_argument("--change", required=True, help="tree-ish of the change side")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--traced", nargs="*", default=[], help="workloads to trace too")
    ap.add_argument("--traced-pairs", type=int, default=1)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or names
    seconds = bench["run_seconds"]
    trees = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    out = {"sides": trees, "machine": machine(),
           "protocol": (f"perfbench/run.py --seconds {seconds:g} --trace 0 from a fresh "
                        f"`git archive` extraction per run; {PAIRS} alternating pairs "
                        f"per workload (even pairs parent first); seeds seed0 + 100 (k + 1) "
                        f"+ 1.. with seed0 {args.seed0}; quartiles are linear."),
           "summary": {}, "verdicts": {}, "runs": []}

    def save():
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")

    def pair_runs(workload: str, pair: int, seed: int, secs: float, trace: int):
        for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
            result = run_side(trees[side], workload, seed, secs, trace)
            out["runs"].append({"workload": workload, "side": side, "seed": seed,
                                "pair": pair, "trace": trace, "result": result})
            print(workload, pair, side, trace,
                  {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()
                   if not trace}, file=sys.stderr, flush=True)
            save()

    for workload in workloads:
        base = args.seed0 + 100 * (names.index(workload) + 1)
        for pair in range(PAIRS):
            pair_runs(workload, pair, base + pair + 1, seconds, 0)
        summary = {m["name"]: compare(out["runs"], workload, m) for m in bench["end_to_end"]}
        out["summary"][workload] = summary
        out["verdicts"][workload] = verdict(summary)
        save()
    for workload in args.traced:
        base = args.seed0 + 100 * (names.index(workload) + 1) + 50
        for pair in range(args.traced_pairs):
            pair_runs(workload, pair, base + pair + 1, TRACED_SECONDS, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
