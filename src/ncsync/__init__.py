"""NC-OFDM frame synchronization with interference-robust timing metrics.

The package splits into a signal layer (ofdm, impairments), the correlator
layer (metrics, streaming, detect), scoring (evaluate), interference analysis
(crossterm), and a reproducible experiment harness (scenario, runner, cli).
"""

__version__ = "0.1.0"

from .detect import NoSignalError, SyncResult, detect
from .impairments import (ChannelRealization, MixSpec, NbiSpec, apply_cfo,
                          apply_multipath, calibrate_and_mix,
                          draw_channel_cost207tu, gen_nbi)
from .metrics import MetricTrace, compute_trace, nirs_numerator
from .ofdm import (FrameSpec, SubcarrierMap, SymbolGrid, TimeSignal,
                   UnsatisfiablePreambleError, build_frame, demap_qpsk,
                   generate_preamble, map_qpsk, modulate_symbol,
                   preamble_from_bits, random_data_symbol)
from .scenario import Scenario, ScenarioError, load
from .streaming import (ChunkCorrelator, OpCounters, count_report, trace_from_recursions,
                        trace_from_stream)

__all__ = [
    "ChannelRealization", "ChunkCorrelator", "FrameSpec", "MetricTrace", "MixSpec", "NbiSpec",
    "NoSignalError", "OpCounters", "Scenario", "ScenarioError",
    "SubcarrierMap", "SymbolGrid", "SyncResult",
    "TimeSignal", "UnsatisfiablePreambleError", "apply_cfo", "apply_multipath",
    "build_frame", "calibrate_and_mix", "compute_trace", "count_report",
    "demap_qpsk", "detect", "draw_channel_cost207tu", "gen_nbi",
    "generate_preamble", "load", "map_qpsk", "modulate_symbol",
    "nirs_numerator", "preamble_from_bits", "random_data_symbol",
    "trace_from_recursions", "trace_from_stream",
]
