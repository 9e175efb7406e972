"""Scenario files, trial plumbing, and batch outputs."""

import hashlib
import json
import mmap
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import ncsync.runner
from ncsync.impairments import NbiSpec, carson_deviation_hz, gen_nbi
from ncsync.ofdm import FrameSpec
from ncsync.evaluate import aggregate
from ncsync.runner import (emit_trace, run_cell, run_nbi_bandwidth_sweep, run_scenario,
                           run_trial, trial_rng, write_csv, _receive)
from ncsync.scenario import (Scenario, ScenarioError, load, parse_scenario,
                             parse_subcarrier_ranges, preset_names)
from ncsync.streaming import model_counters

CLEAN_INI = """
[frame]
n_fft = 256
n_cp = 32
n_symbols = 11
n_empty_prefix = 3
occupied = -100..-1, 1..3, 46..100

[channel]
model = flat

[cfo]
max_hz = 0

[nbi]
kind = ideal_tone
f_c = 24.5

[grid]
snr_db = inf
sir_db = 100

[sync]
timing_rule = midpoint90

[run]
n_trials = 1
master_seed = 5
"""


def test_parse_subcarrier_ranges():
    got = parse_subcarrier_ranges("-100..-1, 1..3, 46..100")
    assert len(got) == 158
    assert got == tuple(sorted(got))
    assert parse_subcarrier_ranges("7") == (7,)
    assert parse_subcarrier_ranges("3..3") == (3,)
    with pytest.raises(ScenarioError):
        parse_subcarrier_ranges("3..1")
    with pytest.raises(ScenarioError):
        parse_subcarrier_ranges("  ")


def test_parse_reports_missing_fields():
    with pytest.raises(ScenarioError, match=r"\[nbi\] kind"):
        parse_scenario(CLEAN_INI.replace("kind = ideal_tone", "x = 1"))
    with pytest.raises(ScenarioError, match=r"\[run\] n_trials"):
        parse_scenario(CLEAN_INI.replace("n_trials = 1", "other = 1"))
    with pytest.raises(ScenarioError, match=r"\[frame\] n_fft"):
        parse_scenario(CLEAN_INI.replace("n_fft = 256", "nfft = 256"))


def test_parse_rejects_bad_values():
    with pytest.raises(ScenarioError, match="channel"):
        parse_scenario(CLEAN_INI.replace("model = flat", "model = rayleigh"))
    with pytest.raises(ScenarioError, match="timing_rule"):
        parse_scenario(CLEAN_INI.replace("midpoint90", "peakiest"))
    with pytest.raises(ScenarioError, match="algorithms"):
        parse_scenario(CLEAN_INI.replace(
            "timing_rule = midpoint90", "algorithms = sc, magic"))
    with pytest.raises(ScenarioError, match="non-empty"):
        parse_scenario(CLEAN_INI.replace("snr_db = inf", "snr_db ="))
    with pytest.raises(ScenarioError, match="n_trials"):
        parse_scenario(CLEAN_INI.replace("n_trials = 1", "n_trials = 0"))
    with pytest.raises(ScenarioError):
        parse_scenario("not an ini [at all")


@pytest.mark.parametrize("line, bad, name", [
    ("snr_db = inf", "snr_db = -inf", "snr_db"), ("snr_db = inf", "snr_db = nan", "snr_db"),
    ("sir_db = 100", "sir_db = 0, -inf", "sir_db"), ("sir_db = 100", "sir_db = nan", "sir_db"),
])
def test_a_nan_or_minus_inf_grid_level_fails_at_load(line, bad, name):
    with pytest.raises(ScenarioError, match=rf"^\[grid\] {name} must be a number of dB"):
        parse_scenario(CLEAN_INI.replace(line, bad))


@pytest.mark.parametrize("nbi", [
    "kind = fm_wideband\nbandwidth_hz = 1500\nf_m_hz = 1000",
    "kind = fm_carson\nf_m_hz = 0",
    "kind = fm_carson\ndelta_f_hz = 0",
], ids=["wideband_under_carson_floor", "carson_zero_f_m", "carson_zero_delta_f"])
def test_a_bad_nbi_section_fails_at_load(nbi):
    with pytest.raises(ScenarioError, match=r"^\[nbi\] "):
        parse_scenario(CLEAN_INI.replace("kind = ideal_tone", nbi))
    for name in preset_names():
        load(name)


NON_FINITE_OR_NEGATIVE = [
    ("quick_demo", "max_hz", "nan", "[cfo] max_hz must be finite and >= 0, got nan"),
    ("quick_demo", "max_hz", "-1", "[cfo] max_hz must be finite and >= 0, got -1.0"),
    ("quick_demo", "freq_offset_max_hz", "nan",
     "[nbi] freq_offset_max_hz must be finite and >= 0, got nan"),
    ("quick_demo", "freq_offset_max_hz", "inf",
     "[nbi] freq_offset_max_hz must be finite and >= 0, got inf"),
    ("quick_demo", "freq_offset_max_hz", "-1",
     "[nbi] freq_offset_max_hz must be finite and >= 0, got -1.0"),
    ("quick_demo", "f_c", "nan", "[nbi] f_c must be finite, got nan"),
    ("quick_demo", "f_c", "inf", "[nbi] f_c must be finite, got inf"),
    ("sync_error_fm_28k", "f_m_hz", "nan", "[nbi] f_m_hz must be finite, got nan"),
    ("sync_error_fm_28k", "delta_f_hz", "nan", "[nbi] delta_f_hz must be finite, got nan"),
    ("sync_error_fm_28k", "delta_f_hz", "inf", "[nbi] delta_f_hz must be finite, got inf"),
    ("sync_error_wideband_fm", "bandwidth_hz", "nan",
     "[nbi] bandwidth_hz must be finite, got nan"),
    ("quick_demo", "sc_spacing_hz", "inf", "sc_spacing_hz must be positive and finite, got inf"),
    ("quick_demo", "sc_spacing_hz", "nan", "sc_spacing_hz must be positive and finite, got nan"),
]


@pytest.mark.parametrize("name, key, value, named", NON_FINITE_OR_NEGATIVE,
                         ids=[f"{name}-{key}={value}" for name, key, value, _ in
                              NON_FINITE_OR_NEGATIVE])
def test_a_non_finite_or_negative_frequency_fails_at_load_naming_its_key(name, key, value,
                                                                         named):
    text = load(name).source_text
    bad, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    with pytest.raises(ScenarioError, match=re.escape(named)):
        parse_scenario(bad)
    for preset in preset_names():
        load(preset)


@pytest.mark.parametrize("name, line, misspelt, named", [
    ("sync_error_wideband_fm", "bandwidth_hz = 200000", "bandwith_hz = 60000",
     "[nbi] bandwith_hz"),
    ("sync_error_wideband_fm", "[sync]", "[snyc]", "[snyc] algorithms"),
    ("quick_demo", "[grid]", "[grid]\nextra = 1", "[grid] extra"),
])
def test_unknown_sections_and_keys_fail_at_load(name, line, misspelt, named):
    # configparser reads only the keys asked for: a misspelt key or section
    # would otherwise leave its default in force without a word.
    text = load(name).source_text
    assert line in text
    with pytest.raises(ScenarioError, match=re.escape(named)):
        parse_scenario(text.replace(line, misspelt))


def test_repeated_algorithms_fail_at_load():
    with pytest.raises(ScenarioError, match=r"^\[sync\] algorithms .* each once"):
        parse_scenario(CLEAN_INI.replace("timing_rule = midpoint90",
                                         "timing_rule = midpoint90\nalgorithms = sc, sc"))


@pytest.mark.parametrize("kind", ["ideal_tone", "fm_carson", "fm_wideband"])
def test_omitted_optional_keys_take_the_dataclass_defaults(kind):
    def stated(cls, *keys) -> str:
        default = {f.name: f.default for f in fields(cls)}
        return "".join(f"{key} = {default[key]}\n" for key in keys)

    omitted = CLEAN_INI.replace("n_empty_prefix = 3\n", "").replace("ideal_tone", kind)
    full = (omitted.replace("n_cp = 32\n", "n_cp = 32\n"
                            + stated(FrameSpec, "n_empty_prefix", "sc_spacing_hz"))
            .replace("f_c = 24.5\n", "f_c = 24.5\n"
                     + stated(NbiSpec, "f_m_hz", "delta_f_hz", "bandwidth_hz")))
    assert full.count(" = ") == omitted.count(" = ") + 5
    a, b = parse_scenario(omitted), parse_scenario(full)
    assert replace(a, source_text="") == replace(b, source_text="")
    assert a.nbi.kind == kind


def test_interferer_spacing_must_match_the_frame():
    sc = parse_scenario(CLEAN_INI)
    with pytest.raises(ScenarioError, match="interferer spacing 15000.0 Hz differs"):
        replace(sc, frame=replace(sc.frame, sc_spacing_hz=30e3))


@pytest.mark.parametrize("max_hz", [15000, 20000])
def test_a_cfo_bound_of_one_spacing_or_more_fails_at_load(max_hz):
    # arg(.)/pi reads the CFO unambiguously only below one subcarrier spacing.
    with pytest.raises(ScenarioError, match=r"^\[cfo\] max_hz"):
        parse_scenario(CLEAN_INI.replace("[cfo]\nmax_hz = 0", f"[cfo]\nmax_hz = {max_hz}"))
    sc = parse_scenario(CLEAN_INI.replace("[cfo]\nmax_hz = 0", "[cfo]\nmax_hz = 14850"))
    assert sc.cfo_max_hz == 14850
    with pytest.raises(ScenarioError, match=r"^\[cfo\] max_hz"):
        replace(sc, cfo_max_hz=max_hz)


@pytest.mark.parametrize("occupied", ["2", "2, 3, 5"])
def test_a_map_with_one_even_subcarrier_fails_at_load(occupied):
    # Its preamble is a pure tone, which the NIRS metric cancels by design.
    line = "occupied = -100..-1, 1..3, 46..100"
    with pytest.raises(ScenarioError, match=r"^\[frame\] occupied"):
        parse_scenario(CLEAN_INI.replace(line, f"occupied = {occupied}"))
    assert parse_scenario(CLEAN_INI.replace(line, "occupied = 2, 4")).frame.smap.occupied == (2, 4)


@pytest.mark.parametrize("occupied, counts", [("1, 4, 5, 8, 12", "3 and 0"),
                                               ("1, 2, 5, 6, 10", "0 and 3")])
def test_a_map_with_its_even_subcarriers_in_one_class_mod_4_fails_at_load(occupied, counts):
    # NIRS errs on every trial of such a preamble, with or without an interferer.
    line = "occupied = -100..-1, 1..3, 46..100"
    with pytest.raises(ScenarioError, match=rf"^\[frame\] occupied .* got {counts}: NIRS"):
        parse_scenario(CLEAN_INI.replace(line, f"occupied = {occupied}"))


def test_preset_inventory():
    assert preset_names() == ["nbi_bandwidth_sweep", "quick_demo",
                              "sync_error_fm_28k", "sync_error_ideal_tone",
                              "sync_error_wideband_fm"]


def test_main_preset_fields():
    sc = load("sync_error_ideal_tone")
    assert sc.name == "sync_error_ideal_tone"
    fr = sc.frame
    assert (fr.n_fft, fr.n_cp, fr.n_symbols, fr.n_empty_prefix) == (256, 32, 11, 3)
    assert fr.smap.n_occupied == 158
    assert fr.sc_spacing_hz == 15000
    assert sc.channel_model == "cost207tu"
    assert sc.cfo_max_hz == 10500
    assert (sc.nbi.kind, sc.nbi.f_c, sc.nbi_offset_max_hz) == ("ideal_tone", 24.5, 14000)
    assert sc.snr_grid == (0, 4, 8, 12, 16, 20)
    assert sc.sir_grid == (-10, 0, 10, 100)
    assert sc.algorithms == ("sc", "nirs")
    assert sc.timing_rule == "midpoint90"
    assert (sc.n_trials, sc.master_seed) == (2000, 30111)
    # normalized CFO bound: 10.5 kHz over 15 kHz spacing
    assert sc.cfo_max_norm == pytest.approx(0.7)


def test_load_from_path_and_unknown_name(tmp_path):
    path = tmp_path / "mine.ini"
    path.write_text(CLEAN_INI)
    sc = load(path)
    assert sc.name == "mine"
    assert sc.source_text == CLEAN_INI
    with pytest.raises(ScenarioError, match="quick_demo"):
        load("no_such_preset")


def test_clean_scenario_has_no_sync_errors():
    rows = run_scenario(parse_scenario(CLEAN_INI))
    assert len(rows) == 2  # one cell, two algorithms
    for row in rows:
        assert row["p_sync_error"] == 0.0
        assert row["ber_preamble"] == 0.0
        assert row["n_trials"] == 1
        assert row["nbi_kind"] == "ideal_tone"


def test_trial_rng_is_keyed():
    a = trial_rng(30111, "snr=20.0|sir=0.0", 0).uniform(size=4)
    b = trial_rng(30111, "snr=20.0|sir=0.0", 0).uniform(size=4)
    c = trial_rng(30111, "snr=20.0|sir=0.0", 1).uniform(size=4)
    d = trial_rng(30111, "snr=20.0|sir=100.0", 0).uniform(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_run_trial_record_structure():
    sc = load("quick_demo")
    rec = run_trial(sc, 20.0, 100.0, trial_rng(1, "k", 0), keep_trace=True)
    assert set(rec.results) == {"sc", "nirs"}
    assert set(rec.outcomes) == {"sc", "nirs"}
    assert abs(rec.true_cfo) <= sc.cfo_max_norm
    counted = len(rec.trace) - 1
    for algo in ("sc", "nirs"):
        assert rec.outcomes[algo].bits_total == 158
        want = model_counters(algo, counted)
        have = rec.ops[algo]
        assert (have.add_sub, have.mul_div, have.sqrt) == (
            want.add_sub, want.mul_div, want.sqrt)


def test_repeat_runs_are_byte_identical(tmp_path):
    sc = load("quick_demo")
    for d in ("a", "b"):
        run_scenario(sc, out_dir=tmp_path / d, trials=3, seed=sc.master_seed)
    assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()
    assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()


def test_manifest_contents(tmp_path):
    sc = load("quick_demo")
    run_scenario(sc, out_dir=tmp_path, trials=2, seed=7)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["scenario"] == "quick_demo"
    assert manifest["config_sha256"] == hashlib.sha256(sc.source_text.encode()).hexdigest()
    assert manifest["master_seed"] == 7
    assert manifest["n_trials"] == 2
    assert manifest["outputs"] == ["results.csv"]
    assert "version" in manifest


def test_trace_dump_columns(tmp_path):
    sc = parse_scenario(CLEAN_INI)
    rows, fname = emit_trace(sc, 20.0, 100.0, out_dir=tmp_path)
    assert fname == "trace.csv"
    assert (tmp_path / fname).is_file()
    assert list(rows[0]) == ["n", "g_re", "g_im", "m", "q_re", "q_im",
                             "g_nirs_re", "g_nirs_im", "metric_sc", "metric_nirs"]
    assert len(rows) == sc.frame.total_len - sc.frame.n_fft + 1

    qrows, qname = emit_trace(sc, 20.0, 100.0, percentiles=True, n_frames=4)
    assert qname == "trace_percentiles.csv"
    assert list(qrows[0]) == ["n", "metric_sc_p10", "metric_sc_p50", "metric_sc_p90",
                              "metric_nirs_p10", "metric_nirs_p50", "metric_nirs_p90"]
    for row in qrows:
        assert row["metric_sc_p10"] <= row["metric_sc_p50"] <= row["metric_sc_p90"]


def _per_window_rows(tr):
    """Single-trace rows built by indexing the trace one window at a time."""
    return [{"n": int(n), "g_re": tr.g[i].real, "g_im": tr.g[i].imag, "m": tr.m[i],
             "q_re": tr.q[i].real, "q_im": tr.q[i].imag,
             "g_nirs_re": tr.g_nirs[i].real, "g_nirs_im": tr.g_nirs[i].imag,
             "metric_sc": tr.metric_sc[i], "metric_nirs": tr.metric_nirs[i]}
            for i, n in enumerate(tr.n)]


def test_a_failing_run_trial_replays_as_its_trace():
    # S&C locks on the tone's plateau at SIR 0 dB, so every trial here is a failure.
    sc, cell = load("sync_error_ideal_tone"), (20.0, 0.0)
    run = run_cell(sc, *cell, 30, sc.master_seed, "grid")
    failed = [k for k, out in enumerate(run["sc"]) if out.is_sync_error]
    assert failed
    for k in failed:
        rec = run_trial(sc, *cell, trial_rng(sc.master_seed, "grid", k), keep_trace=True)
        assert rec.outcomes == {algo: run[algo][k] for algo in sc.algorithms}
        rows, _ = emit_trace(sc, *cell, trial=k)
        assert rows == _per_window_rows(rec.trace)


def test_every_cell_traces_the_frames_a_run_scores(monkeypatch):
    seen = []
    compute_trace = ncsync.runner.compute_trace
    monkeypatch.setattr(ncsync.runner, "compute_trace",
                        lambda r, *args, **kw: seen.append(compute_trace(r, *args, **kw))
                        or seen[-1])
    sc, trials = load("sync_error_ideal_tone"), 5
    run_scenario(sc, trials=trials)
    cells = [(snr, sir) for snr in sc.snr_grid for sir in sc.sir_grid]
    assert len(seen) == len(cells) * trials
    for tr, (cell, t) in zip(seen, ((cell, t) for cell in cells for t in range(trials))):
        want = np.column_stack([tr.n, tr.g.real, tr.g.imag, tr.m, tr.q.real, tr.q.imag,
                                tr.g_nirs.real, tr.g_nirs.imag, tr.metric_sc, tr.metric_nirs])
        rows, _ = emit_trace(sc, *cell, trial=t)
        got = np.array([list(row.values()) for row in rows], dtype=np.float64)
        assert got.tobytes() == want.tobytes(), (cell, t)
    # A percentile dump of F frames reduces the first F trials of its cell.
    rows, _ = emit_trace(sc, *cells[-1], percentiles=True, n_frames=trials)
    stack = np.array([tr.metric_nirs for tr in seen[-trials:]])
    assert [row["metric_nirs_p50"] for row in rows] == np.percentile(stack, 50, axis=0).tolist()


def test_mapped_and_heap_percentile_stacks_give_the_same_rows(monkeypatch):
    sc = load("quick_demo")
    stack = ncsync.runner._mapped_empty((2, 3, 5))
    assert stack.shape == (2, 3, 5) and stack.dtype == np.float64 and stack.flags.writeable
    mapped = emit_trace(sc, 20.0, 0.0, percentiles=True, n_frames=5)
    monkeypatch.delattr(mmap, "MAP_POPULATE", raising=False)
    assert emit_trace(sc, 20.0, 0.0, percentiles=True, n_frames=5) == mapped


def test_bandwidth_sweep_carson_floor():
    sc = load("nbi_bandwidth_sweep")
    with pytest.raises(ValueError, match="Carson"):
        run_nbi_bandwidth_sweep(sc, bandwidths_hz=(2000.0,), sir_list=(100.0,),
                                trials=1)
    rows = run_nbi_bandwidth_sweep(sc, bandwidths_hz=(2002.0,), sir_list=(100.0,),
                                   trials=1)
    assert {row["algorithm"] for row in rows} == {"sc", "nirs"}
    assert all(row["bandwidth_hz"] == 2002.0 for row in rows)
    assert list(rows[0]) == ["bandwidth_hz", "sir_db", "algorithm",
                             "p_sync_error", "ci95_halfwidth", "n_trials"]


def test_sweep_interferer_equals_fm_carson_at_carson_deviation():
    # The sweep runs fm_wideband at each bandwidth; its samples are fm_carson's
    # at Carson's deviation for that bandwidth, bit for bit.
    sc = load("nbi_bandwidth_sweep")
    assert len(sc.sweep_bandwidths_hz) == 6
    base = sc.nbi_spec(phase0=1.1, freq_offset_hz=-3.7e3)
    for bw in sc.sweep_bandwidths_hz:
        wide = replace(base, kind="fm_wideband", bandwidth_hz=bw)
        carson = replace(base, kind="fm_carson",
                         delta_f_hz=carson_deviation_hz(bw, base.f_m_hz))
        a, b = (gen_nbi(spec, 4000, 800, sc.frame.n_fft, np.random.default_rng(7))
                for spec in (wide, carson))
        assert a.samples.tobytes() == b.samples.tobytes()


# 0 and -0 have different cell keys ("snr=0.0", "snr=-0.0") but are one level.
@pytest.mark.parametrize("line, repeated", [("snr_db = inf", "snr_db = 20, 10, 20"),
                                            ("sir_db = 100", "sir_db = 100, 100.0"),
                                            ("snr_db = inf", "snr_db = 0, -0")])
def test_repeated_grid_values_fail_before_any_trial(line, repeated, monkeypatch):
    calls = []
    monkeypatch.setattr(ncsync.runner, "run_cell", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="repeated cells"):
        run_scenario(parse_scenario(CLEAN_INI.replace(line, repeated)))
    assert calls == []


def test_repeated_bandwidths_or_sirs_fail_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(ncsync.runner, "run_cell", lambda *args: calls.append(args))
    sweep = load("nbi_bandwidth_sweep")
    twice = parse_scenario(sweep.source_text.replace("4000, 16000", "4000, 4000"))
    for sc, kw in ((twice, {}), (sweep, {"bandwidths_hz": (4000.0, 4000.0)}),
                   (sweep, {"sir_list": (0.0, 10.0, 0.0)})):
        with pytest.raises(ValueError, match="repeated cells"):
            run_nbi_bandwidth_sweep(sc, **kw)
    assert calls == []


def test_every_entry_point_rejects_fewer_than_one_trial():
    sc = load("quick_demo")
    with pytest.raises(ValueError, match="trial count must be >= 1, got 0"):
        run_scenario(sc, trials=0)
    with pytest.raises(ValueError, match="trial count must be >= 1, got -2"):
        run_nbi_bandwidth_sweep(load("nbi_bandwidth_sweep"), trials=-2)
    with pytest.raises(ValueError, match="trial count must be >= 1, got 0"):
        emit_trace(sc, 20.0, 0.0, percentiles=True, n_frames=0)


def test_run_cell_names_a_bad_trial_count_or_seed_before_any_draw(monkeypatch):
    calls = []
    monkeypatch.setattr(ncsync.runner, "trial_rng", lambda *args: calls.append(args))
    sc = load("quick_demo")
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        run_cell(sc, 20.0, 0.0, 1, -1, "grid")
    with pytest.raises(ValueError, match="^trial count must be >= 1, got 0$"):
        run_cell(sc, 20.0, 0.0, 0, 5, "grid")
    assert calls == []


def test_a_negative_seed_is_named_at_load_and_before_any_trial(monkeypatch):
    with pytest.raises(ScenarioError, match=r"^\[run\] master_seed must be >= 0, got -30115$"):
        parse_scenario(CLEAN_INI.replace("master_seed = 5", "master_seed = -30115"))
    with pytest.raises(ScenarioError, match=r"^\[run\] master_seed must be >= 0, got -1$"):
        replace(load("quick_demo"), master_seed=-1)
    calls = []
    monkeypatch.setattr(ncsync.runner, "trial_rng", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        run_scenario(load("quick_demo"), trials=1, seed=-1)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -7$"):
        run_nbi_bandwidth_sweep(load("nbi_bandwidth_sweep"), trials=1, seed=-7)
    assert calls == []


def test_bad_trace_and_sweep_inputs_fail_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(ncsync.runner, "run_trial", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(ncsync.runner, "run_cell", lambda *args: calls.append(args))
    sc = load("quick_demo")
    with pytest.raises(ValueError, match="trial index must be >= 0, got -1"):
        emit_trace(sc, 20.0, 0.0, trial=-1)
    for percentiles in (False, True):
        with pytest.raises(ValueError, match="needs nirs"):
            emit_trace(replace(sc, algorithms=("sc",)), 20.0, 0.0, percentiles=percentiles)
    with pytest.raises(ValueError, match="no SIR values"):
        run_nbi_bandwidth_sweep(load("nbi_bandwidth_sweep"), sir_list=())
    assert calls == []


def test_nan_or_minus_inf_levels_fail_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(ncsync.runner, "_receive", lambda *args: calls.append(args))
    monkeypatch.setattr(ncsync.runner, "run_cell", lambda *args: calls.append(args))
    sc = load("quick_demo")
    for percentiles in (False, True):
        with pytest.raises(ValueError, match="^sir_db must be"):
            emit_trace(sc, 20.0, -np.inf, percentiles=percentiles)
        with pytest.raises(ValueError, match="^snr_db must be"):
            emit_trace(sc, np.nan, 0.0, percentiles=percentiles)
    sweep = load("nbi_bandwidth_sweep")
    with pytest.raises(ValueError, match="^snr_db must be"):
        run_nbi_bandwidth_sweep(sweep, snr_db=-np.inf)
    with pytest.raises(ValueError, match="^sir_db must be"):
        run_nbi_bandwidth_sweep(sweep, sir_list=(0.0, np.nan))
    assert calls == []


@pytest.mark.parametrize("name", ["quick_demo", "sync_error_ideal_tone",
                                  "sync_error_fm_28k"])
@pytest.mark.parametrize("cell", [(20.0, 0.0), (np.inf, 100.0)])
def test_receive_draws_as_run_trial(name, cell, monkeypatch):
    # A trace dump realizes frames with _receive alone; it must leave the
    # buffer and the generator where run_trial leaves them.
    sc = load(name)
    seen = []
    compute_trace = ncsync.runner.compute_trace
    monkeypatch.setattr(ncsync.runner, "compute_trace",
                        lambda r, *args, **kw: seen.append(r) or compute_trace(r, *args, **kw))
    for seed in (3, 30111):
        rng_trial, rng_receive = trial_rng(seed, "k", 1), trial_rng(seed, "k", 1)
        run_trial(sc, *cell, rng_trial)
        received, *_ = _receive(sc, *cell, rng_receive)
        assert received.origin == seen[-1].origin
        assert received.samples.tobytes() == seen[-1].samples.tobytes()
        assert rng_receive.uniform() == rng_trial.uniform()


def _at_bandwidth(sc, bw):
    return replace(sc, nbi=replace(sc.nbi, kind="fm_wideband", bandwidth_hz=bw))


SWEEP_BWS, SWEEP_SIRS = (8000.0, 64000.0), (-10.0, 10.0)


# A plan draws trial t once, from its plan-level key ("grid" for run_scenario,
# "sweep" for the bandwidth sweep), and scores that frame in every cell; a
# sweep cell scores it with its own bandwidth's interferer.
@pytest.mark.parametrize("name, grid", [
    ("quick_demo", {}),  # SIR 0 dB and inf
    ("sync_error_ideal_tone", {"snr_grid": (20.0, 8.0), "sir_grid": (0.0, 100.0)}),
    ("nbi_bandwidth_sweep", None)])  # two bandwidths x two SIRs
def test_every_cell_of_a_plan_traces_the_frame_receive_makes_from_the_plan_key(
        name, grid, monkeypatch):
    seen = []
    compute_trace = ncsync.runner.compute_trace
    monkeypatch.setattr(ncsync.runner, "compute_trace",
                        lambda r, *args, **kw: seen.append(r) or compute_trace(r, *args, **kw))
    trials, seed = 3, 17
    if grid is None:
        sc, key = load(name), "sweep"
        run_nbi_bandwidth_sweep(sc, bandwidths_hz=SWEEP_BWS, sir_list=SWEEP_SIRS,
                                trials=trials, seed=seed)
        cells = [(_at_bandwidth(sc, bw), 20.0, sir) for bw in SWEEP_BWS for sir in SWEEP_SIRS]
    else:
        sc, key = replace(load(name), **grid), "grid"
        run_scenario(sc, trials=trials, seed=seed)
        cells = [(sc, snr, sir) for snr in sc.snr_grid for sir in sc.sir_grid]
    assert len(seen) == len(cells) * trials
    for got, (cell, t) in zip(seen, ((cell, t) for cell in cells for t in range(trials))):
        want, *_ = _receive(*cell, trial_rng(seed, key, t))
        assert got.origin == want.origin
        assert got.samples.tobytes() == want.samples.tobytes()


def test_the_bandwidth_sweep_draws_each_trial_index_once(monkeypatch):
    drawn = []
    rng = ncsync.runner.trial_rng
    monkeypatch.setattr(ncsync.runner, "trial_rng",
                        lambda *args: drawn.append(args) or rng(*args))
    trials, seed = 5, 41
    run_nbi_bandwidth_sweep(load("nbi_bandwidth_sweep"), bandwidths_hz=SWEEP_BWS,
                            sir_list=SWEEP_SIRS, trials=trials, seed=seed)
    assert drawn == [(seed, "sweep", t) for t in range(trials)]


def test_a_frame_mixed_under_one_bandwidth_then_another_mixes_as_a_fresh_draw():
    sweep = load("nbi_bandwidth_sweep")
    a, b = (_at_bandwidth(sweep, bw) for bw in SWEEP_BWS)
    _, frame = _receive(a, 20.0, 0.0, trial_rng(3, "sweep", 2))
    seen = []
    for sc in (b, a, b):
        got, same = _receive(sc, 20.0, 0.0, frame)
        want, fresh = _receive(sc, 20.0, 0.0, trial_rng(3, "sweep", 2))
        assert same is frame
        assert got.samples.tobytes() == want.samples.tobytes()
        assert frame.nbi.samples.tobytes() == fresh.nbi.samples.tobytes()
        seen.append(got.samples.tobytes())
    assert seen[0] == seen[2] != seen[1]  # the interferer is the bandwidth's


def _stats(outcomes):
    stats = aggregate(outcomes)
    return (stats.p_sync_error, stats.ci_halfwidth, stats.mse_time, stats.mse_freq,
            stats.ber, stats.n_trials)


def test_plan_rows_are_the_rows_of_its_cells_run_alone_with_the_plan_key():
    sc, trials, seed = load("quick_demo"), 4, 23
    want = []
    for snr in sc.snr_grid:
        for sir in sc.sir_grid:
            out = run_cell(sc, snr, sir, trials, seed, "grid")
            want += [(snr, sir, algo, *_stats(out[algo])) for algo in sc.algorithms]
    rows = run_scenario(sc, trials=trials, seed=seed)
    assert [(row["snr_db"], row["sir_db"], row["algorithm"], row["p_sync_error"],
             row["ci95_halfwidth"], row["mse_time_samples2"], row["mse_freq_sc2"],
             row["ber_preamble"], row["n_trials"]) for row in rows] == want

    sweep = load("nbi_bandwidth_sweep")
    want = []
    for bw in SWEEP_BWS:
        bw_sc = _at_bandwidth(sweep, bw)
        for sir in SWEEP_SIRS:
            out = run_cell(bw_sc, 20.0, sir, trials, seed, "sweep")
            want += [(bw, sir, algo, *_stats(out[algo])[:2], trials) for algo in sweep.algorithms]
    rows = run_nbi_bandwidth_sweep(sweep, bandwidths_hz=SWEEP_BWS, sir_list=SWEEP_SIRS,
                                   trials=trials, seed=seed)
    assert [tuple(row.values()) for row in rows] == want

    # Interferer kinds that take unequal counts of random values (the FM
    # kinds add a message phase) share the plan's frames: the interferer is drawn last.
    tone = load("sync_error_ideal_tone")
    kinds = [tone, replace(tone, nbi=replace(tone.nbi, kind="fm_carson")),
             _at_bandwidth(tone, 64000.0)]
    plan = [(cell, 20.0, 0.0, {"snr_db": 20.0, "sir_db": 0.0, "nbi_kind": cell.nbi.kind})
            for cell in kinds]
    want = []
    for cell in kinds:
        out = run_cell(cell, 20.0, 0.0, trials, seed, "grid")
        want += [(20.0, 0.0, algo, cell.nbi.kind, *_stats(out[algo])) for algo in cell.algorithms]
    rows = ncsync.runner._run_plan(tone, "grid", plan, ncsync.runner.RESULT_COLUMNS, trials,
                                   seed, None, "results.csv")
    assert [tuple(row.values()) for row in rows] == want


def test_rows_do_not_depend_on_the_block_size(monkeypatch):
    sc, sweep = load("quick_demo"), load("nbi_bandwidth_sweep")

    def run():
        return (run_scenario(sc, trials=5, seed=29),
                run_nbi_bandwidth_sweep(sweep, bandwidths_hz=(8000.0, 64000.0),
                                        sir_list=(0.0, 10.0), trials=4, seed=29))

    default = run()
    for block in (1, 3):
        monkeypatch.setattr(ncsync.runner, "_BLOCK", block)
        assert run() == default


def test_bandwidth_sweep_checks_every_bandwidth_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(ncsync.runner, "run_cell", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="Carson"):
        run_nbi_bandwidth_sweep(load("nbi_bandwidth_sweep"),
                                bandwidths_hz=(10000, 20000, 1000))
    assert calls == []


def test_csv_formatting(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "empty.csv", [])
    write_csv(tmp_path / "row.csv", [{"a": 0.123456789012345, "b": 2.0, "c": 3, "d": "nirs"}])
    assert (tmp_path / "row.csv").read_bytes() == b"a,b,c,d\r\n0.123456789,2,3,nirs\r\n"
