"""Analysis of signal-interferer cross terms in the sliding correlations.

When a tone at normalized frequency f rides on a CFO-rotated frame, the
correlator outputs split exactly into a signal-only part, a tone-only part,
and cross terms driven by one half-window transform of the clean signal:

    b(n) = sum_{m=0}^{N/2-1} y(n+m) exp(-j 2 pi (f - nu) (n + m) / N)

i.e. the signal's DFT component at the tone's offset frequency, evaluated over
a sliding half-symbol window.  b(n) admits a closed form for a flat-channel
symbol (a sum of sine ratios over the occupied bins) and is small whenever f
falls in a spectral notch.  This module provides the direct sum, the
flat-channel closed form, the exact decomposition of G and Q over a signal +
tone mixture, and a Monte-Carlo estimate of how much cross-term power
survives a given notch width on the harness's own frames.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .impairments import MixSpec, calibrate_and_mix
from .ofdm import FrameSpec, SubcarrierMap, TimeSignal
from .runner import _draw
from .scenario import load

TIMING_POSITIONS = ("optimal", "random_data")

# The notch study draws STUDY_PRESET's frames on a notched map centred on that
# preset's interferer, and the closed-form checks take their geometry, tone
# and CFO bound from the same preset.  Bootstrap intervals take N_BOOT
# resamples at CI_LEVEL.
STUDY_PRESET = "sync_error_ideal_tone"
N_BOOT, CI_LEVEL = 500, 0.95

# A bin is treated as singular (limit form) when k - f + nu is within this
# fraction of a multiple of N.
_SINGULAR_TOL = 1e-9


def b_direct(y: TimeSignal, f: float, nu: float, n: int, n_fft: int) -> complex:
    """Direct evaluation of the half-window cross transform b(n)."""
    half = n_fft // 2
    w = y.window(n, half)
    idx = n + np.arange(half)
    return complex(np.sum(w * np.exp(-2j * np.pi * (f - nu) * idx / n_fft)))


def b_closed_form(column: np.ndarray, f: float, nu: float, n: int,
                  spec: FrameSpec) -> complex:
    """Closed-form b(n) for one flat-channel CP-extended symbol.

    The symbol occupies sample indices [-n_cp, N-1] and is zero elsewhere,
    so the half window [n, n+N/2-1] overlaps it on [lo, hi] with
    lo = max(n, -n_cp) and hi = min(n+N/2-1, N-1).  Over that interval each
    occupied bin's geometric sum collapses to a sine ratio of length
    hi - lo + 1 centred at (lo + hi) / 2.  Bins where k - f + nu is a multiple
    of N take the limit value (window length) * d_k / sqrt(N).  Raises
    ValueError when the window misses the symbol entirely.
    """
    n_fft = spec.n_fft
    n_cp = spec.n_cp
    column = np.asarray(column, dtype=np.complex128)
    if column.shape != (n_fft,):
        raise ValueError(f"column must have length {n_fft}")

    lo, hi = max(n, -n_cp), min(n + n_fft // 2 - 1, n_fft - 1)
    if hi < lo:
        raise ValueError(
            f"window start {n} outside the symbol's support "
            f"[{-n_fft // 2 - n_cp + 1}, {n_fft - 1}]"
        )
    win = hi - lo + 1
    phase_arg = (lo + hi) / n_fft

    idx = np.nonzero(column)[0]
    d = column[idx]
    theta = (idx - n_fft // 2) - f + nu
    cycles = theta / n_fft
    singular = np.abs(cycles - np.round(cycles)) < _SINGULAR_TOL
    total = win * complex(np.sum(d[singular]))
    theta = theta[~singular]
    ratio = np.sin(np.pi * theta * win / n_fft) / np.sin(np.pi * theta / n_fft)
    total += complex(np.sum(d[~singular] * ratio * np.exp(1j * np.pi * theta * phase_arg)))
    return complex(total / np.sqrt(n_fft))


@dataclass
class DecompositionRecord:
    """Signal-only, interferer-only, and cross parts of G(n) and Q(n)."""

    g_y: complex
    g_i: complex
    g_cross: complex
    q_y: complex
    q_i: complex
    q_cross: complex

    @property
    def g_total(self) -> complex:
        return self.g_y + self.g_i + self.g_cross

    @property
    def q_total(self) -> complex:
        return self.q_y + self.q_i + self.q_cross


def _g_pair(a: np.ndarray, b: np.ndarray, half: int) -> complex:
    return complex(np.sum(np.conj(a[:half]) * b[half:]))


def _q_pair(a: np.ndarray, b: np.ndarray, quarter: int) -> complex:
    s1 = np.sum(np.conj(a[:quarter]) * b[quarter : 2 * quarter])
    s2 = np.sum(np.conj(a[quarter : 2 * quarter]) * b[2 * quarter : 3 * quarter])
    s3 = np.sum(np.conj(a[2 * quarter : 3 * quarter]) * b[3 * quarter :])
    return complex(0.5 * (s1 + 2.0 * s2 + s3))


def decompose(y: TimeSignal, nbi: TimeSignal, nu: float, n: int,
              n_fft: int) -> DecompositionRecord:
    """Split G(n) and Q(n) of the mixture (CFO-rotated y) + nbi exactly.

    y is the clean channel output (CFO applied here, inside the window), nbi
    the already-scaled interferer on the same buffer layout.  The cross terms
    are the mixed conjugate products; by bilinearity the three parts sum to
    the correlator outputs on the noiseless mixture.
    """
    half = n_fft // 2
    quarter = n_fft // 4
    idx = n + np.arange(n_fft)
    a_y = y.window(n, n_fft) * np.exp(2j * np.pi * nu * idx / n_fft)
    a_i = nbi.window(n, n_fft)
    return DecompositionRecord(
        g_y=_g_pair(a_y, a_y, half),
        g_i=_g_pair(a_i, a_i, half),
        g_cross=_g_pair(a_y, a_i, half) + _g_pair(a_i, a_y, half),
        q_y=_q_pair(a_y, a_y, quarter),
        q_i=_q_pair(a_i, a_i, quarter),
        q_cross=_q_pair(a_y, a_i, quarter) + _q_pair(a_i, a_y, quarter),
    )


def tone_g(sigma_i: float, f: float, n_fft: int) -> complex:
    """Exact tone-only half-lag correlation: (N/2) sigma_i^2 exp(j pi f)."""
    return complex(0.5 * n_fft * sigma_i**2 * np.exp(1j * np.pi * f))


def tone_q(sigma_i: float, f: float, n_fft: int) -> complex:
    """Exact tone-only quarter-lag probe: (N/2) sigma_i^2 exp(j pi f / 2)."""
    return complex(0.5 * n_fft * sigma_i**2 * np.exp(1j * np.pi * f / 2.0))


def g_cross_from_b(y: TimeSignal, f: float, nu: float, sigma_i: float,
                   phi: float, n: int, n_fft: int) -> complex:
    """Cross part of G(n) predicted from the half-window transform.

    For a tone sigma_i exp(j(2 pi f n / N + phi)) mixed with the CFO-rotated
    signal: G_cross(n) = sigma_i e^{j pi f} [e^{j phi} conj(b(n))
    + e^{-j phi} b(n + N/2)].
    """
    b0 = b_direct(y, f, nu, n, n_fft)
    b1 = b_direct(y, f, nu, n + n_fft // 2, n_fft)
    return complex(sigma_i * np.exp(1j * np.pi * f)
                   * (np.exp(1j * phi) * np.conj(b0) + np.exp(-1j * phi) * b1))


def q_cross_from_b(y: TimeSignal, f: float, nu: float, sigma_i: float,
                   phi: float, n: int, n_fft: int) -> complex:
    """Cross part of Q(n) predicted from the half-window transform.

    Q_cross(n) = (sigma_i / 2) e^{j pi f / 2}
    [ (conj(b(n)) + conj(b(n + N/4))) e^{j phi}
      + (b(n + N/4) + b(n + N/2)) e^{-j phi} ].
    """
    quarter = n_fft // 4
    b0 = b_direct(y, f, nu, n, n_fft)
    bq = b_direct(y, f, nu, n + quarter, n_fft)
    bh = b_direct(y, f, nu, n + 2 * quarter, n_fft)
    return complex(0.5 * sigma_i * np.exp(1j * np.pi * f / 2.0)
                   * ((np.conj(b0) + np.conj(bq)) * np.exp(1j * phi)
                      + (bq + bh) * np.exp(-1j * phi)))


def notched_map(notch_scs: int = 0) -> SubcarrierMap:
    """STUDY_PRESET's bins {-100..-1, 1..100} minus a notch around its interferer.

    notch_scs is the full notch width in subcarriers (even, so it brackets
    the half-integer center symmetrically); 42 reproduces the preset's
    occupied set.
    """
    if notch_scs < 0 or notch_scs % 2 != 0:
        raise ValueError(f"notch width must be even and >= 0, got {notch_scs}")
    sc = load(STUDY_PRESET)
    base = [k for k in range(-100, 101) if k != 0]
    if notch_scs:
        lo = int(np.ceil(sc.nbi.f_c)) - notch_scs // 2
        hi = int(np.floor(sc.nbi.f_c)) + notch_scs // 2
        base = [k for k in base if not (lo <= k <= hi)]
    return SubcarrierMap(n_fft=sc.frame.n_fft, occupied=tuple(base))


@dataclass
class CrossPowerStats:
    """Per-trial cross/self correlation powers at a fixed timing position."""

    cross_pow: np.ndarray
    y_pow: np.ndarray
    i_pow: np.ndarray

    @property
    def ratio(self) -> float:
        """Mean cross power over mean self power (signal plus tone parts)."""
        return float(self.cross_pow.mean() / (self.y_pow.mean() + self.i_pow.mean()))

    def bootstrap_ci(self, rng: np.random.Generator) -> tuple[float, float]:
        """Percentile bootstrap interval for the ratio over trials."""
        n = self.cross_pow.size
        idx = rng.integers(0, n, size=(N_BOOT, n))  # one resample per row
        ratios = self.cross_pow[idx].mean(axis=1) / (
            self.y_pow[idx].mean(axis=1) + self.i_pow[idx].mean(axis=1))
        alpha = (1.0 - CI_LEVEL) / 2.0
        lo, hi = np.quantile(ratios, [alpha, 1.0 - alpha])
        return float(lo), float(hi)


def relative_cross_power(notch_scs: int, sir_db: float, timing: str,
                         n_trials: int, rng: np.random.Generator) -> CrossPowerStats:
    """Monte-Carlo cross-term power study for one notch width.

    Each trial draws a frame of STUDY_PRESET on the notched map with no
    silent prefix, through the harness's own draw (`runner._draw`: preamble,
    data, urban channel, CFO, noise, tone) and scales the tone to sir_db as
    its mix does.  G is decomposed at the chosen timing position ("optimal" =
    frame start, "random_data" = uniform inside the data symbols).  Cross-term
    power shrinks as the notch widens; at infinite SIR the tone vanishes and
    the ratio is 0.
    """
    if timing not in TIMING_POSITIONS:
        raise ValueError(f"unknown timing {timing!r}; expected one of {TIMING_POSITIONS}")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    level = MixSpec(np.inf, sir_db)  # rejects a NaN or -inf SIR
    sc = load(STUDY_PRESET)
    sc = replace(sc, frame=replace(sc.frame, smap=notched_map(notch_scs), n_empty_prefix=0))
    spec = sc.frame

    cross_pow = np.empty(n_trials)
    y_pow = np.empty(n_trials)
    i_pow = np.empty(n_trials)
    for t in range(n_trials):
        frame = _draw(sc, rng)  # CFO applied; no prefix, so `active` is the whole buffer
        tone = calibrate_and_mix(frame.y, frame.nbi, level, frame.active, frame.noise,
                                 powers=frame.powers).nbi_part
        if timing == "optimal":
            n = 0
        else:
            n = int(rng.integers(spec.symbol_len, (spec.n_symbols - 1) * spec.symbol_len + 1))
        rec = decompose(frame.y, TimeSignal(tone, origin=frame.y.origin), 0.0, n, spec.n_fft)
        cross_pow[t] = abs(rec.g_cross) ** 2
        y_pow[t] = abs(rec.g_y) ** 2
        i_pow[t] = abs(rec.g_i) ** 2
    return CrossPowerStats(cross_pow=cross_pow, y_pow=y_pow, i_pow=i_pow)
