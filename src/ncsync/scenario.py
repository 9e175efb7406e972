"""Scenario files: INI-format experiment descriptions and shipped presets.

A scenario pins everything a Monte-Carlo run needs: frame geometry and
occupied-subcarrier set, channel model, CFO and interferer randomization,
the SNR x SIR grid, which detectors run, and the trial budget with its master
seed.  Presets under ncsync/presets/ cover the shipped experiments; `load`
accepts either a path or a preset name.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .detect import TIMING_RULES
from .impairments import NbiSpec, check_level_db
from .metrics import MODES
from .ofdm import FrameSpec, SubcarrierMap

CHANNEL_MODELS = ("cost207tu", "flat")


class ScenarioError(ValueError):
    """Scenario file cannot be parsed or fails validation."""


@dataclass
class Scenario:
    """Validated experiment description (see presets/*.ini for the format)."""

    name: str
    frame: FrameSpec
    channel_model: str
    cfo_max_hz: float
    nbi: NbiSpec
    nbi_offset_max_hz: float
    snr_grid: tuple[float, ...]
    sir_grid: tuple[float, ...]
    algorithms: tuple[str, ...]
    timing_rule: str
    n_trials: int
    master_seed: int
    sweep_bandwidths_hz: tuple[float, ...] = field(default_factory=tuple)
    source_text: str = ""

    def __post_init__(self):
        if self.channel_model not in CHANNEL_MODELS:
            raise ScenarioError(f"[channel] model must be one of {CHANNEL_MODELS}, "
                                f"got {self.channel_model!r}")
        if self.timing_rule not in TIMING_RULES:
            raise ScenarioError(f"[sync] timing_rule must be one of {TIMING_RULES}, "
                                f"got {self.timing_rule!r}")
        if (not self.algorithms or any(a not in MODES for a in self.algorithms)
                or len(set(self.algorithms)) < len(self.algorithms)):
            raise ScenarioError(f"[sync] algorithms must name a non-empty subset of "
                                f"{MODES}, each once, got {self.algorithms}")
        if not self.snr_grid or not self.sir_grid:
            raise ScenarioError("[grid] snr_db and sir_db must be non-empty")
        try:
            check_level_db("snr_db", *self.snr_grid)
            check_level_db("sir_db", *self.sir_grid)
        except ValueError as exc:
            raise ScenarioError(f"[grid] {exc}") from exc
        if self.n_trials < 1:
            raise ScenarioError("[run] n_trials must be >= 1")
        for key, bound in (("[cfo] max_hz", self.cfo_max_hz),
                           ("[nbi] freq_offset_max_hz", self.nbi_offset_max_hz)):
            if not 0 <= bound < math.inf:
                raise ScenarioError(f"{key} must be finite and >= 0, got {bound}")
        # The CFO readout arg(.)/pi is unambiguous only below one spacing.
        if self.cfo_max_hz >= self.frame.sc_spacing_hz:
            raise ScenarioError(f"[cfo] max_hz must be below the subcarrier spacing "
                                f"{self.frame.sc_spacing_hz} Hz, got {self.cfo_max_hz}")
        # One even bin makes the preamble a pure tone, which NIRS cancels by design.
        if self.frame.smap.even_occupied().size == 1:
            raise ScenarioError("[frame] occupied must hold more than one even subcarrier, "
                                "got one: the preamble would be a pure tone")
        if self.nbi.sc_spacing_hz != self.frame.sc_spacing_hz:
            raise ScenarioError(f"interferer spacing {self.nbi.sc_spacing_hz} Hz differs "
                                f"from the frame's {self.frame.sc_spacing_hz} Hz")

    @property
    def cfo_max_norm(self) -> float:
        """CFO bound in subcarrier spacings."""
        return self.cfo_max_hz / self.frame.sc_spacing_hz

    def nbi_spec(self, phase0: float = 0.0, freq_offset_hz: float = 0.0) -> NbiSpec:
        """The interferer with one trial's phase and carrier offset drawn."""
        return replace(self.nbi, phase0=phase0, freq_offset_hz=freq_offset_hz)


def parse_subcarrier_ranges(text: str) -> tuple[int, ...]:
    """Parse "a..b, c, d..e" into a sorted tuple of integers."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ScenarioError(f"bad subcarrier range {token!r} (end before start)")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(token))
    if not out:
        raise ScenarioError("empty subcarrier list")
    return tuple(sorted(out))


def _split(text: str, cast=float) -> tuple:
    """The non-blank comma-separated tokens of text, each cast."""
    return tuple(cast(tok) for tok in text.split(",") if tok.strip())


def parse_scenario(text: str, name_hint: str = "scenario") -> Scenario:
    """Parse and validate scenario INI text; errors name the section/field."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario file: {exc}") from exc

    asked: set[tuple[str, str]] = set()

    def get(section: str, option: str, default: str | None = None) -> str:
        """A key's text; one without a default must be set."""
        asked.add((section, option))
        if default is None and not cp.has_option(section, option):
            raise ScenarioError(f"missing [{section}] {option}")
        return cp.get(section, option, fallback=default)

    def given(section: str, **casts) -> dict:
        """The keys of `section` the file sets, cast; defaults stay the dataclass's."""
        asked.update((section, key) for key in casts)
        return {key: cast(cp.get(section, key)) for key, cast in casts.items()
                if cp.has_option(section, key)}

    try:
        smap = SubcarrierMap(n_fft=int(get("frame", "n_fft")),
                             occupied=parse_subcarrier_ranges(get("frame", "occupied")))
        frame = FrameSpec(smap=smap, n_cp=int(get("frame", "n_cp")),
                          n_symbols=int(get("frame", "n_symbols")),
                          **given("frame", n_empty_prefix=int, sc_spacing_hz=float))
        kind, f_c = get("nbi", "kind"), get("nbi", "f_c")
        try:
            nbi = NbiSpec(kind=kind, f_c=float(f_c), sc_spacing_hz=frame.sc_spacing_hz,
                          **given("nbi", f_m_hz=float, delta_f_hz=float, bandwidth_hz=float))
        except ValueError as exc:
            raise ScenarioError(f"[nbi] {exc}") from exc
        fields = dict(
            name=get("scenario", "name", name_hint),
            frame=frame,
            channel_model=get("channel", "model", "cost207tu"),
            cfo_max_hz=float(get("cfo", "max_hz", "0")),
            nbi=nbi,
            nbi_offset_max_hz=float(get("nbi", "freq_offset_max_hz", "0")),
            snr_grid=_split(get("grid", "snr_db")),
            sir_grid=_split(get("grid", "sir_db")),
            algorithms=_split(get("sync", "algorithms", "sc, nirs"), str.strip),
            timing_rule=get("sync", "timing_rule", "argmax"),
            n_trials=int(get("run", "n_trials")),
            master_seed=int(get("run", "master_seed")),
            sweep_bandwidths_hz=_split(get("sweep", "bandwidths_hz", "")),
            source_text=text,
        )
        unknown = [f"[{s}] {k}" for s in cp.sections() for k in cp[s] if (s, k) not in asked]
        if unknown:
            raise ScenarioError(f"unknown section or key: {', '.join(unknown)}")
        return Scenario(**fields)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"bad scenario value: {exc}") from exc


def preset_names() -> list[str]:
    files = resources.files(__package__).joinpath("presets")
    return sorted(p.name[:-4] for p in files.iterdir() if p.name.endswith(".ini"))


def load(source: str | Path) -> Scenario:
    """Load a scenario from a file path or a shipped preset name."""
    path = Path(source)
    if path.is_file():
        return parse_scenario(path.read_text(), name_hint=path.stem)
    name = str(source).removesuffix(".ini")
    candidate = resources.files(__package__).joinpath("presets").joinpath(f"{name}.ini")
    if candidate.is_file():
        return parse_scenario(candidate.read_text(), name_hint=name)
    raise ScenarioError(
        f"no scenario file at {source!r} and no preset of that name "
        f"(available: {', '.join(preset_names())})"
    )
