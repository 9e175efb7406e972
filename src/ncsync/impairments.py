"""Channel, frequency-offset, interference, and noise impairments.

The receive chain modeled here is

    r(n) = y(n) exp(j 2 pi nu n / N) + i(n) + w(n)

with y the multipath-filtered frame, nu the carrier frequency offset in
subcarrier spacings, i a unit-envelope narrowband interferer scaled to a target
SIR, and w complex white Gaussian noise scaled to a target SNR.  Power targets
are measured against the transmitted signal's power over its active region
(the non-silent frame portion including the channel tail), so requested and
measured SNR/SIR agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ofdm import TimeSignal

# COST 207 typical-urban 6-tap power-delay profile: (delay us, mean power dB).
COST207_TU_DELAYS_US = (0.0, 0.2, 0.5, 1.6, 2.3, 5.0)
COST207_TU_POWERS_DB = (-3.0, 0.0, -2.0, -6.0, -8.0, -10.0)

NBI_KINDS = ("ideal_tone", "fm_carson", "fm_wideband")
_NBI_NUMBERS = ("f_c", "phase0", "freq_offset_hz", "f_m_hz", "delta_f_hz", "bandwidth_hz",
                "sc_spacing_hz")


@dataclass(frozen=True)
class ChannelRealization:
    """Dense FIR channel taps h[0..L-1] (index = delay in samples)."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.atleast_1d(np.asarray(self.taps, dtype=np.complex128))
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D array")
        if not np.isfinite(taps).all():
            i = int(np.isfinite(taps).argmin())
            raise ValueError(f"channel tap {i} is not finite: {taps[i]}")
        object.__setattr__(self, "taps", taps)

    def freq_response(self, ks, n_fft: int) -> np.ndarray:
        """H(k) = sum_l h[l] exp(-j 2 pi k l / N) at centered bin indices ks."""
        ks = np.asarray(ks, dtype=np.float64)
        kernel = _dft_kernel(ks.tobytes(), self.taps.size, n_fft)
        return (self.taps[None, :] * kernel).sum(axis=1)


@lru_cache(maxsize=64)
def _dft_kernel(ks_bytes: bytes, n_taps: int, n_fft: int) -> np.ndarray:
    """Read-only exp(-j 2 pi k l / N) for bins k (float64 bytes) and taps l."""
    ks = np.frombuffer(ks_bytes, dtype=np.float64)
    kernel = np.exp(-2j * np.pi * np.outer(ks, np.arange(n_taps)) / n_fft)
    kernel.flags.writeable = False
    return kernel


def carson_deviation_hz(bandwidth_hz: float, f_m_hz: float) -> float:
    """Peak FM deviation for an occupied bandwidth by Carson's rule,
    bandwidth = 2 (delta_f + f_m).  Raises ValueError at or below 2 f_m,
    where no positive deviation fits."""
    if bandwidth_hz <= 2.0 * f_m_hz:
        raise ValueError(f"bandwidth {bandwidth_hz} Hz <= Carson floor "
                         f"2*f_m = {2 * f_m_hz} Hz")
    return bandwidth_hz / 2.0 - f_m_hz


@dataclass(frozen=True)
class NbiSpec:
    """Narrowband interferer description (unit envelope, scaling applied later).

    f_c is the carrier position in subcarrier spacings; freq_offset_hz is an
    additional carrier shift (e.g. a random draw per frame).  The FM kinds
    modulate a single sinusoidal message of frequency f_m_hz with peak
    deviation delta_f_hz, giving a Carson-rule bandwidth 2 (delta_f + f_m);
    fm_wideband is the same construction pinned to bandwidth_hz.
    """

    kind: str
    f_c: float
    phase0: float = 0.0
    freq_offset_hz: float = 0.0
    f_m_hz: float = 1e3
    delta_f_hz: float = 5e3
    bandwidth_hz: float = 200e3
    sc_spacing_hz: float = 15e3

    def __post_init__(self):
        if self.kind not in NBI_KINDS:
            raise ValueError(f"unknown NBI kind {self.kind!r}; expected one of {NBI_KINDS}")
        for name in _NBI_NUMBERS:
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sc_spacing_hz <= 0:
            raise ValueError("sc_spacing_hz must be positive")
        if self.kind == "fm_carson":
            if self.f_m_hz <= 0 or self.delta_f_hz <= 0:
                raise ValueError("fm_carson requires positive f_m_hz and delta_f_hz")
        if self.kind == "fm_wideband":
            if self.f_m_hz <= 0:
                raise ValueError("fm_wideband requires positive f_m_hz")
            carson_deviation_hz(self.bandwidth_hz, self.f_m_hz)

    @property
    def f_total(self) -> float:
        """Carrier position including the Hz offset, in subcarrier spacings."""
        return self.f_c + self.freq_offset_hz / self.sc_spacing_hz


def check_level_db(name: str, *values: float):
    """Raise a ValueError naming `name` for a NaN or -inf level in dB.

    A level is a number of dB or +inf, which switches its term off; NaN
    and -inf (interference or noise without bound) have no meaning.
    """
    for value in values:
        if math.isnan(value) or value == -math.inf:
            raise ValueError(f"{name} must be a number of dB or +inf (term off), "
                             f"got {value}")


@dataclass(frozen=True)
class MixSpec:
    """Per-trial mixing levels: SNR/SIR in dB (np.inf disables a term)."""

    snr_db: float
    sir_db: float

    def __post_init__(self):
        check_level_db("snr_db", self.snr_db)
        check_level_db("sir_db", self.sir_db)


@dataclass
class MixResult:
    """calibrate_and_mix output: the sum plus its scaled interference and noise."""

    received: TimeSignal
    nbi_part: np.ndarray
    noise_part: np.ndarray
    sigma_i2: float
    sigma_w2: float


def apply_multipath(x: TimeSignal, ch: ChannelRealization) -> TimeSignal:
    """Filter by the channel as a tapped delay line over its non-zero taps;
    output keeps the input's origin.

    Full convolution, so the buffer grows by n_taps - 1 tail samples.
    """
    out = np.zeros(len(x) + ch.taps.size - 1, dtype=np.complex128)
    for lag in np.flatnonzero(ch.taps).tolist():
        out[lag:lag + len(x)] += ch.taps[lag] * x.samples
    return TimeSignal(out, origin=x.origin)


def apply_cfo(x: TimeSignal, nu: float, n_fft: int) -> TimeSignal:
    """Multiply by exp(j 2 pi nu n / N), n frame-relative."""
    out = _rotator(2.0 * np.pi * nu / n_fft, 0.0, -x.origin, len(x))
    out *= x.samples
    return TimeSignal(out, origin=x.origin)


def _rotator(rate: float, phase0: float, n0: int, length: int) -> np.ndarray:
    """exp(j (rate n + phase0)) for n = n0 .. n0 + length - 1.

    Sample n0 + b a + j is coarse[a] * fine[j], with coarse[a] =
    exp(j (rate (n0 + b a) + phase0)), fine[j] = exp(j rate j) and b =
    ceil(sqrt(length)): about 2 sqrt(length) cos/sin pairs.  Each sample is
    within a few eps (1 + |rate| (|n| + 2 b) + |phase0|) of the exact phasor,
    the two angles' rounding.
    """
    b = math.isqrt(length - 1) + 1
    coarse = rate * np.arange(n0, n0 + length, b, dtype=np.float64) + phase0
    fine = rate * np.arange(b, dtype=np.float64)
    return np.multiply.outer(np.exp(1j * coarse), np.exp(1j * fine)).ravel()[:length]


def draw_channel_cost207tu(rng: np.random.Generator, sample_rate_hz: float) -> ChannelRealization:
    """Random quasi-static COST 207 typical-urban channel at a sample rate.

    Tap delays are rounded to the nearest sample; taps are independent
    zero-mean complex Gaussians with the profile's mean powers, normalized so
    the total mean power is 1.  Delays that collide after rounding add power
    in the same tap.
    """
    if not 0 < sample_rate_hz < math.inf:
        raise ValueError(f"sample_rate_hz must be positive and finite, got {sample_rate_hz}")
    delays, sigma = _cost207tu_profile(sample_rate_hz)
    taps = np.zeros(delays[-1] + 1, dtype=np.complex128)
    g = rng.standard_normal(2 * sigma.size)
    np.add.at(taps, delays, sigma * (g[0::2] + 1j * g[1::2]))  # in profile order
    return ChannelRealization(taps)


@lru_cache(maxsize=16)
def _cost207tu_profile(sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only COST 207 TU tap delays (samples) and per-axis sigmas at a sample rate."""
    delays = np.rint(np.asarray(COST207_TU_DELAYS_US) * 1e-6 * sample_rate_hz).astype(int)
    powers = 10.0 ** (np.asarray(COST207_TU_POWERS_DB) / 10.0)
    powers /= powers.sum()
    sigma = np.sqrt(powers / 2.0)
    delays.flags.writeable = sigma.flags.writeable = False
    return delays, sigma


def gen_nbi(spec: NbiSpec, length: int, origin: int, n_fft: int,
            rng: np.random.Generator | None = None) -> TimeSignal:
    """Generate a unit-envelope interferer over a buffer of given geometry.

    The phase accumulates against the frame-relative index n = u - origin so
    the interferer's phase at n = 0 is spec.phase0 (plus any FM message term).
    The FM kinds draw one random message phase from rng.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    carrier = _rotator(2.0 * np.pi * spec.f_total / n_fft, spec.phase0, -origin, length)
    if spec.kind != "ideal_tone":
        if spec.kind == "fm_wideband":
            delta_f = carson_deviation_hz(spec.bandwidth_hz, spec.f_m_hz)
        else:
            delta_f = spec.delta_f_hz
        beta = delta_f / spec.f_m_hz
        theta = 0.0 if rng is None else rng.uniform(0.0, 2.0 * np.pi)
        fs = n_fft * spec.sc_spacing_hz
        # The message sin(2 pi f_m n / fs + theta) is a ramp's imaginary part.
        message = _rotator(2.0 * np.pi * spec.f_m_hz / fs, theta, -origin, length).imag
        carrier *= np.exp(1j * beta * message)
    return TimeSignal(carrier, origin=origin)


def mean_power(x: np.ndarray) -> float:
    """np.mean(np.abs(x) ** 2) over every element, without np.mean's wrapper."""
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("cannot take mean power of an empty array")
    return float(np.add.reduce(np.square(np.abs(x)), axis=None) / x.size)


def calibrate_and_mix(y: TimeSignal, nbi: TimeSignal, mix: MixSpec, active: slice,
                      noise: np.ndarray | np.random.Generator, *,
                      powers: tuple[float, float] | None = None) -> MixResult:
    """Scale interference and noise to the requested SIR/SNR and sum.

    `active` is a buffer-index slice over which the signal power reference is
    measured (the non-silent portion of y, channel tail included).  `noise`
    is a raw complex Gaussian draw as long as y, which is renormalized over
    that same slice so that the realized SNR matches the request exactly
    rather than only in expectation; so one draw serves every level.  A
    generator in its place is drawn from, as
    `standard_normal(2 * len(y)).view(complex128)`, only at a finite SNR.
    `powers` = (mean_power(y.samples[active]), mean_power(noise[active])),
    measured once for a draw mixed at several levels, skips measuring them.
    np.inf for snr_db or sir_db zeroes the corresponding term (MixSpec admits
    no NaN and no -inf).
    """
    if len(nbi) != len(y) or nbi.origin != y.origin:
        raise ValueError("nbi buffer must match y in length and origin")
    if isinstance(noise, np.ndarray) and noise.shape != y.samples.shape:
        raise ValueError("noise draw must match y in length")
    sig = y.samples
    p_sig = mean_power(sig[active]) if powers is None else powers[0]
    if not 0 < p_sig < math.inf:
        raise ValueError(f"signal power over the active region is {p_sig}, not > 0 and finite")

    if math.isinf(mix.sir_db):
        sigma_i2 = 0.0
        nbi_part = np.zeros_like(sig)
    else:
        sigma_i2 = p_sig * 10.0 ** (-mix.sir_db / 10.0)
        nbi_part = math.sqrt(sigma_i2) * nbi.samples

    if math.isinf(mix.snr_db):
        sigma_w2 = 0.0
        noise_part = np.zeros_like(sig)
    else:
        sigma_w2 = p_sig * 10.0 ** (-mix.snr_db / 10.0)
        raw = (noise.standard_normal(2 * sig.size).view(np.complex128)
               if isinstance(noise, np.random.Generator) else noise)
        # Scale against the realized power over the active region, not the
        # ensemble expectation, so the requested SNR is hit exactly.
        p_noise = mean_power(raw[active]) if powers is None else powers[1]
        if not 0 < p_noise < math.inf:
            raise ValueError(f"noise power over the active region is {p_noise}, "
                             "not > 0 and finite")
        noise_part = raw * math.sqrt(sigma_w2 / p_noise)

    received = TimeSignal(sig + nbi_part, origin=y.origin)
    received.samples += noise_part
    return MixResult(received, nbi_part, noise_part, sigma_i2, sigma_w2)
