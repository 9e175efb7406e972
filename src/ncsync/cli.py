"""Command-line entry point: scenario runs, traces, sweeps, and self-checks."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .crossterm import (STUDY_PRESET, b_closed_form, b_direct, decompose, g_cross_from_b,
                        q_cross_from_b, relative_cross_power)
from .impairments import ChannelRealization, NbiSpec, apply_multipath, gen_nbi
from .ofdm import (SymbolGrid, TimeSignal, build_frame, generate_preamble, modulate_symbol,
                   random_data_symbol)
from .runner import emit_trace, run_nbi_bandwidth_sweep, run_scenario, write_csv
from .scenario import ScenarioError, load
from .streaming import COST_PER_SAMPLE, count_report, trace_from_recursions


def _cmd_run(args) -> int:
    sc = load(args.scenario)
    rows = run_scenario(sc, out_dir=args.out, trials=args.trials, seed=args.seed)
    print(f"{sc.name}: {len(rows)} result rows -> {Path(args.out) / 'results.csv'}")
    return 0


def _cmd_trace(args) -> int:
    sc = load(args.scenario)
    try:
        snr_s, sir_s = args.cell.split(",")
        snr, sir = float(snr_s), float(sir_s)
    except ValueError:
        print(f"bad --cell {args.cell!r}; expected SNR,SIR like 20,0", file=sys.stderr)
        return 2
    rows, fname = emit_trace(sc, snr, sir, trial=args.trial,
                             percentiles=args.percentiles, n_frames=args.frames,
                             out_dir=args.out)
    print(f"{sc.name}: cell ({snr:g} dB, {sir:g} dB), {len(rows)} windows -> "
          f"{Path(args.out) / fname}")
    return 0


def _cmd_sweep(args) -> int:
    sc = load(args.scenario)
    bandwidths = tuple(args.bandwidths) if args.bandwidths else None
    rows = run_nbi_bandwidth_sweep(sc, bandwidths_hz=bandwidths,
                                   snr_db=args.snr, out_dir=args.out,
                                   trials=args.trials, seed=args.seed)
    print(f"{sc.name}: {len(rows)} sweep rows -> {Path(args.out) / 'bandwidth_sweep.csv'}")
    return 0


def _cmd_count_ops(args) -> int:
    # The tallies depend on the window count only, never on the sample values.
    samples = np.random.default_rng(0).standard_normal(2 * (1000 + 256))
    r = TimeSignal(samples.view(np.complex128), origin=0)
    print("per-sample real-operation averages over 1000 counted samples (N = 256):")
    print(f"{'algorithm':<10} {'add/sub':>8} {'mul/div':>8} {'sqrt':>6}")
    ok = True
    for mode in ("sc", "nirs"):
        _, ops, counted = trace_from_recursions(r, 256, mode=mode)
        adds, muls, sqrts = count_report(ops, counted)
        print(f"{mode:<10} {adds:>8.3f} {muls:>8.3f} {sqrts:>6.3f}")
        ok &= (adds, muls, sqrts) == tuple(float(c) for c in COST_PER_SAMPLE[mode])
    print("cost table check:", "ok" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_validate_appendix(args) -> int:
    """Numerical self-checks of the closed-form machinery, plus the notch study."""
    for flag, value in (("--grids", args.grids), ("--trials", args.trials)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if not math.isfinite(args.sir):  # at +inf there is no interferer to study
        raise ValueError(f"--sir must be a finite number of dB, got {args.sir}")
    rng = np.random.default_rng(args.seed)
    study = load(STUDY_PRESET)
    n_fft, n_cp = study.frame.n_fft, study.frame.n_cp
    spec = replace(study.frame, n_symbols=1, n_empty_prefix=0)
    failures = 0

    # Closed-form agreement over all three window cases.
    worst = 0.0
    for _ in range(args.grids):
        col = generate_preamble(spec, rng)
        y = TimeSignal(np.pad(modulate_symbol(col, spec).samples, n_fft),
                       origin=n_fft + n_cp)
        f = study.nbi.f_c + rng.uniform(-1, 1)
        nu = rng.uniform(-study.cfo_max_norm, study.cfo_max_norm)
        for n in rng.integers(-n_fft // 2 - n_cp + 1, n_fft, size=12):
            bd = b_direct(y, f, nu, int(n), n_fft)
            bc = b_closed_form(col, f, nu, int(n), spec)
            worst = max(worst, abs(bd - bc) / max(1.0, abs(bd)))
    status = "PASS" if worst < 1e-9 else "FAIL"
    failures += status == "FAIL"
    print(f"{status} closed-form window transform agrees with direct sums "
          f"(worst rel err {worst:.2e})")

    # Exact decomposition of G and Q over signal + tone mixtures.
    worst = 0.0
    spec_m = replace(study.frame, n_symbols=4, n_empty_prefix=0)
    for _ in range(args.grids):
        grid = SymbolGrid(spec_m)
        grid.data[0] = generate_preamble(spec_m, rng)
        grid.data[1:] = random_data_symbol(spec_m, rng, spec_m.n_symbols - 1)
        taps = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / 3.0
        y = apply_multipath(build_frame(grid), ChannelRealization(taps))
        nu = rng.uniform(-study.cfo_max_norm, study.cfo_max_norm)
        f = study.nbi.f_c + rng.uniform(-1, 1)
        phi = rng.uniform(0, 2 * np.pi)
        sigma_i = rng.uniform(0.2, 2.0)
        unit = gen_nbi(NbiSpec(kind="ideal_tone", f_c=f, phase0=phi), len(y), y.origin, n_fft)
        tone = TimeSignal(sigma_i * unit.samples, origin=y.origin)
        n = int(rng.integers(0, (spec_m.n_symbols - 1) * spec_m.symbol_len))
        rec = decompose(y, tone, nu, n, n_fft)
        gc = g_cross_from_b(y, f, nu, sigma_i, phi, n, n_fft)
        qc = q_cross_from_b(y, f, nu, sigma_i, phi, n, n_fft)
        worst = max(worst,
                    abs(gc - rec.g_cross) / max(1.0, abs(rec.g_cross)),
                    abs(qc - rec.q_cross) / max(1.0, abs(rec.q_cross)))
    status = "PASS" if worst < 1e-10 else "FAIL"
    failures += status == "FAIL"
    print(f"{status} cross terms match their window-transform closed forms "
          f"(worst rel err {worst:.2e})")

    # Notch-width study: cross-term power vs notch width at both timings.
    rows = []
    ratios = {}
    for timing in ("optimal", "random_data"):
        for width in (0, 6, 14, 26, 42):
            stats = relative_cross_power(width, args.sir, timing, args.trials, rng)
            lo, hi = stats.bootstrap_ci(rng)
            ratios[(timing, width)] = stats.ratio
            rows.append({"notch_scs": width, "sir_db": args.sir, "timing": timing,
                         "ratio": stats.ratio, "ci_lo": lo, "ci_hi": hi,
                         "n_trials": args.trials})
    out_path = Path(args.out) / "notch_study.csv"
    write_csv(out_path, rows)
    for timing in ("optimal", "random_data"):
        seq = [ratios[(timing, w)] for w in (0, 6, 14, 26, 42)]
        mono = all(a > b for a, b in zip(seq, seq[1:]))
        status = "PASS" if mono else "FAIL"
        failures += status == "FAIL"
        print(f"{status} cross-term power strictly decreases with notch width "
              f"({timing}): {['%.3g' % v for v in seq]}")
    print(f"notch study -> {out_path}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsync",
        description="NC-OFDM frame-sync Monte-Carlo harness and self-checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario grid and write results.csv")
    p.add_argument("scenario", help="scenario file path or preset name")
    p.add_argument("--trials", type=int, default=None, help="override trials per cell")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("trace", help="dump metric traces for one (SNR, SIR) cell")
    p.add_argument("scenario")
    p.add_argument("--cell", required=True, help="SNR,SIR in dB (e.g. 20,0)")
    p.add_argument("--percentiles", action="store_true",
                   help="emit per-index percentiles over many frames")
    p.add_argument("--frames", type=int, default=200,
                   help="frames for percentile mode: trials 0 .. F-1 of `run` at this cell")
    p.add_argument("--trial", type=int, default=0,
                   help="trial index for single mode: the frame `run` scores as that "
                        "trial at this cell (a `run --seed X` replays from a scenario "
                        "whose master_seed is X)")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("sweep-bandwidth",
                       help="sync error vs FM interferer bandwidth at fixed SNR")
    p.add_argument("scenario")
    p.add_argument("--bandwidths", type=float, nargs="+", default=None,
                   help="bandwidths in Hz (default: scenario [sweep] section)")
    p.add_argument("--snr", type=float, default=20.0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate-appendix",
                       help="closed-form self-checks and the notch-width study")
    p.add_argument("--trials", type=int, default=300, help="trials per notch point")
    p.add_argument("--grids", type=int, default=20, help="random grids per identity check")
    p.add_argument("--sir", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_validate_appendix)

    p = sub.add_parser("count-ops", help="measure per-sample operation counts")
    p.set_defaults(func=_cmd_count_ops)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
