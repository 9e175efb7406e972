"""NC-OFDM baseband signal construction.

Everything downstream works on a single complex baseband stream laid out the
same way: a frame is a run of CP-extended OFDM symbols, and sample index n = 0
is pinned to the first post-CP sample of the leading preamble symbol.  The
preamble puts energy only on even-indexed occupied subcarriers, which makes its
time-domain body exactly two identical halves; that half-repetition is the hook
every correlator in this package relies on.

Subcarrier indices k run over [-N/2, N/2 - 1] (centered), and dense per-symbol
vectors are stored in that centered order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# map_qpsk's points for (b0, b1) at index 2 b0 + b1, from its pair formula.
_QPSK = ((1 - 2 * np.array([0, 0, 1, 1])) + 1j * (1 - 2 * np.array([0, 1, 0, 1]))) * _INV_SQRT2


class UnsatisfiablePreambleError(ValueError):
    """Raised when the occupied set contains no even subcarrier index."""


def check_n_fft(n_fft: int) -> None:
    """Raise ValueError unless n_fft is a multiple of 4 and >= 8."""
    if n_fft < 8 or n_fft % 4 != 0:
        raise ValueError(f"n_fft must be a multiple of 4 and >= 8, got {n_fft}")


@dataclass(frozen=True)
class SubcarrierMap:
    """Occupied-subcarrier set for an NC-OFDM system.

    occupied holds centered indices k in [-n_fft/2, n_fft/2 - 1], sorted and
    unique.  Unoccupied bins (spectrum notches, DC, guards) simply never appear
    in the set.
    """

    n_fft: int
    occupied: tuple[int, ...]
    _occupied: np.ndarray = field(init=False, repr=False, compare=False)
    _even: np.ndarray = field(init=False, repr=False, compare=False)
    _ifftshift: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_n_fft(self.n_fft)
        for k in self.occupied:
            if isinstance(k, (bool, np.bool_)) or not isinstance(k, (int, np.integer)):
                raise ValueError(f"subcarrier index must be an integer, got {k!r}")
        occ = tuple(int(k) for k in self.occupied)
        if len(occ) == 0:
            raise ValueError("occupied set must be non-empty")
        if len(set(occ)) != len(occ):
            raise ValueError("occupied set contains duplicates")
        if occ != tuple(sorted(occ)):
            occ = tuple(sorted(occ))
        lo, hi = -self.n_fft // 2, self.n_fft // 2 - 1
        for k in occ:
            if k < lo or k > hi:
                raise ValueError(f"subcarrier index {k} outside [{lo}, {hi}]")
        object.__setattr__(self, "occupied", occ)
        arr = np.asarray(occ, dtype=np.int64)
        even = arr[arr % 2 == 0]
        # build_frame's column order: np.fft.ifftshift's, without making a map import numpy.fft.
        shift = (np.arange(self.n_fft) + self.n_fft // 2) % self.n_fft
        arr.flags.writeable = even.flags.writeable = shift.flags.writeable = False
        object.__setattr__(self, "_occupied", arr)
        object.__setattr__(self, "_even", even)
        object.__setattr__(self, "_ifftshift", shift)

    @property
    def n_occupied(self) -> int:
        return len(self.occupied)

    def occupied_array(self) -> np.ndarray:
        """Occupied indices as a read-only int64 array (shared, not a copy)."""
        return self._occupied

    def even_occupied(self) -> np.ndarray:
        """Occupied indices with even k (the preamble's carriers), read-only."""
        return self._even

    def columns(self, ks) -> np.ndarray:
        """Map centered indices k to columns of a dense centered vector."""
        return np.asarray(ks, dtype=np.int64) + self.n_fft // 2


@dataclass(frozen=True)
class FrameSpec:
    """Frame geometry: FFT size, CP length, symbol count, leading silence."""

    smap: SubcarrierMap
    n_cp: int
    n_symbols: int
    n_empty_prefix: int = 0
    sc_spacing_hz: float = 15e3

    def __post_init__(self):
        if self.n_cp < 0 or self.n_cp > self.smap.n_fft:
            raise ValueError(f"n_cp must be in [0, n_fft], got {self.n_cp}")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.n_empty_prefix < 0:
            raise ValueError("n_empty_prefix must be >= 0")
        if not 0 < self.sc_spacing_hz < np.inf:
            raise ValueError(f"sc_spacing_hz must be positive and finite, "
                             f"got {self.sc_spacing_hz}")

    @property
    def n_fft(self) -> int:
        return self.smap.n_fft

    @property
    def symbol_len(self) -> int:
        return self.smap.n_fft + self.n_cp

    @property
    def frame_len(self) -> int:
        """Samples in the non-empty frame portion (all P symbols with CPs)."""
        return self.n_symbols * self.symbol_len

    @property
    def total_len(self) -> int:
        return (self.n_empty_prefix + self.n_symbols) * self.symbol_len

    @property
    def sample_rate_hz(self) -> float:
        return self.smap.n_fft * self.sc_spacing_hz


@dataclass
class TimeSignal:
    """Complex baseband samples plus the buffer position of frame index n = 0.

    samples[origin] is the first post-CP sample of the preamble symbol, so the
    frame-relative index of samples[u] is n = u - origin.  Negative n reaches
    into the preamble CP and any leading silence.
    """

    samples: np.ndarray
    origin: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        self.origin = int(self.origin)

    def __len__(self) -> int:
        return self.samples.size

    def n_axis(self) -> np.ndarray:
        return np.arange(-self.origin, self.samples.size - self.origin)

    def window(self, n: int, length: int) -> np.ndarray:
        """View of `length` samples starting at frame-relative index n."""
        u = self.origin + int(n)
        if u < 0 or u + length > self.samples.size:
            raise ValueError(
                f"window [{n}, {n + length}) outside signal "
                f"[{-self.origin}, {self.samples.size - self.origin})"
            )
        return self.samples[u : u + length]


@dataclass
class SymbolGrid:
    """Dense frequency-domain frame content, shape (n_symbols, n_fft).

    Row p is symbol p's centered vector (column j holds subcarrier
    k = j - n_fft/2).  Bins outside the occupied set must stay zero.
    """

    spec: FrameSpec
    data: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        shape = (self.spec.n_symbols, self.spec.n_fft)
        if self.data is None:
            self.data = np.zeros(shape, dtype=np.complex128)
        else:
            self.data = np.asarray(self.data, dtype=np.complex128)
            if self.data.shape != shape:
                raise ValueError(f"grid shape {self.data.shape} != {shape}")


def map_qpsk(bits) -> np.ndarray:
    """Gray-map bit pairs to unit-energy QPSK symbols.

    Pair (b0, b1) selects the quadrant: b0 flips the real sign, b1 the
    imaginary sign, so (0, 0) -> (1 + 1j)/sqrt(2).
    """
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size % 2 != 0:
        raise ValueError(f"bit count must be even, got {bits.size}")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    return _QPSK.take(2 * bits[0::2] + bits[1::2])


def demap_qpsk(symbols) -> np.ndarray:
    """Hard-decision inverse of map_qpsk (sign of each axis)."""
    s = np.asarray(symbols, dtype=np.complex128).ravel()
    out = np.empty((s.size, 2), dtype=np.int64)
    out[:, 0] = (s.real < 0).astype(np.int64)
    out[:, 1] = (s.imag < 0).astype(np.int64)
    return out.ravel()


def modulate_symbol(column: np.ndarray, spec: FrameSpec) -> TimeSignal:
    """One centered subcarrier vector as a CP-extended symbol, origin n_cp.

    The one-row, no-silence case of build_frame.
    """
    one = replace(spec, n_symbols=1, n_empty_prefix=0)
    return build_frame(SymbolGrid(one, np.asarray(column)[None]))


def preamble_from_bits(spec: FrameSpec, bits) -> np.ndarray:
    """Build a preamble symbol from explicit bits: QPSK on even occupied bins.

    Only even k are modulated so the time-domain body repeats exactly after
    N/2 samples.  Each used bin gets amplitude sqrt(n_occupied / n_even) so the
    symbol carries the same total power as a fully loaded data symbol.

    Returns the dense centered vector; raises UnsatisfiablePreambleError when
    the map has no even occupied index.
    """
    even = spec.smap.even_occupied()
    if even.size == 0:
        raise UnsatisfiablePreambleError(
            "occupied set has no even subcarrier; no half-repeating preamble exists"
        )
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size != 2 * even.size:
        raise ValueError(f"expected {2 * even.size} bits for {even.size} preamble bins")
    amp = np.sqrt(spec.smap.n_occupied / even.size)
    column = np.zeros(spec.n_fft, dtype=np.complex128)
    column[spec.smap.columns(even)] = amp * map_qpsk(bits)
    return column


def generate_preamble(spec: FrameSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw a random preamble symbol (see preamble_from_bits)."""
    even = spec.smap.even_occupied()
    return preamble_from_bits(spec, rng.integers(0, 2, size=2 * even.size))


def random_data_symbol(spec: FrameSpec, rng: np.random.Generator,
                       count: int | None = None) -> np.ndarray:
    """Dense centered vector with i.i.d. QPSK on every occupied bin.

    With count, a (count, n_fft) stack of such symbols, drawn in one call
    that yields the same bits and rng state as count single calls (the bit
    generator, not the call, keeps the unused 32-bit half of a 64-bit word).
    """
    occ = spec.smap.occupied_array()
    n = 1 if count is None else count
    bits = rng.integers(0, 2, size=(n, 2 * occ.size))
    out = np.zeros((n, spec.n_fft), dtype=np.complex128)
    out[:, spec.smap.columns(occ)] = map_qpsk(bits).reshape(n, occ.size)
    return out[0] if count is None else out


def build_frame(grid: SymbolGrid) -> TimeSignal:
    """Serialize a symbol grid into one baseband buffer.

    Layout: n_empty_prefix silent symbol slots, then the preamble symbol
    (grid row 0), then the remaining rows.  origin lands on the first post-CP
    preamble sample.  Body sample n of a row is the unitary IDFT
    (1/sqrt(N)) sum_k d_k exp(j 2 pi n k / N), all rows in one transform, and
    each row's CP copies its last n_cp body samples in front.
    """
    spec = grid.spec
    n, n_cp = spec.n_fft, spec.n_cp
    body = np.fft.ifft(grid.data.take(spec.smap._ifftshift, axis=1), axis=1)
    body *= np.sqrt(n)
    prefix = spec.n_empty_prefix * spec.symbol_len
    samples = np.zeros(spec.total_len, dtype=np.complex128)
    symbols = samples[prefix:].reshape(spec.n_symbols, spec.symbol_len)
    symbols[:, n_cp:] = body
    symbols[:, :n_cp] = body[:, n - n_cp:]
    return TimeSignal(samples, origin=prefix + n_cp)
