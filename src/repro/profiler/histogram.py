"""Log-binned reuse-distance histograms.

Reuse distances span many orders of magnitude, so we bin them at
quarter-octave resolution: distances below 8 get exact bins, larger
distances share four bins per power of two.  StatStack's accuracy is
insensitive to sub-quarter-octave resolution while storage stays at a
couple of hundred counters per histogram.

Distances are *counts of intervening accesses* (0 = immediate reuse).
An "infinite" distance records a reuse broken by a remote write
(coherence invalidation, paper §III-A) — kept separately because it is
a guaranteed miss at any capacity.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Exact bins for distances 0..7.
_EXACT = 8
#: Quarter-octave bins cover distances up to 2^40.
_MAX_EXP = 40
NBINS = _EXACT + 4 * (_MAX_EXP - 3)


def bin_index(rd: int) -> int:
    """Histogram bin for reuse distance ``rd``."""
    if rd < _EXACT:
        return rd
    b = rd.bit_length() - 1
    quarter = (rd >> (b - 2)) & 3
    idx = _EXACT + 4 * (b - 3) + quarter
    return idx if idx < NBINS else NBINS - 1


def _bin_indices_long(rds: np.ndarray) -> np.ndarray:
    """Vectorized :func:`bin_index`, arbitrary distances.

    ``floor(log2)`` is taken from the float64 exponent via ``np.frexp``
    (exact for distances < 2^53, far beyond any stream length), which
    keeps the whole computation in cheap branchless integer ops.
    """
    rds = np.asarray(rds, dtype=np.int64)
    b = np.frexp(rds)[1] - 1  # floor(log2(rd)) for rd > 0
    quarter = (rds >> np.maximum(b - 2, 0)) & 3
    idx = (b.astype(np.int64) << 2) + quarter - 4
    np.minimum(idx, NBINS - 1, out=idx)
    return np.where(rds < _EXACT, rds, idx)


#: Bin lookup table for the common case: distances below 2^16 resolve
#: with a single cache-resident gather.
_LUT_BITS = 16
_LUT = None  # built lazily to keep import light


def _bin_indices(rds: np.ndarray) -> np.ndarray:
    """Vectorized :func:`bin_index` (table-driven fast path)."""
    rds = np.asarray(rds, dtype=np.int64)
    out = np.empty(len(rds), dtype=np.int16)
    _bin_indices_into(rds, out, np.empty(len(rds), dtype=bool))
    return out


def _bin_indices_into(
    rds: np.ndarray, out: np.ndarray, big: np.ndarray
) -> None:
    """:func:`bin_index` of every non-negative int64 ``rds`` entry, into
    int16 ``out``, with ``big`` a bool scratch of the same length: one
    table gather, and an allocation only for the (rare) distances
    beyond the table."""
    global _LUT
    if _LUT is None:
        _LUT = _bin_indices_long(
            np.arange(1 << _LUT_BITS, dtype=np.int64)
        ).astype(np.int16)
    _LUT.take(rds, out=out, mode="clip")
    np.greater(rds, (1 << _LUT_BITS) - 1, out=big)
    if big.any():
        idx = np.flatnonzero(big)
        out[idx] = _bin_indices_long(rds[idx])


def bin_counts(rds: np.ndarray) -> np.ndarray:
    """Per-bin counts of a batch of reuse distances (len == NBINS).

    The bulk-binning primitive: the result is integer-valued, so adding
    it into a float64 ``counts`` array is exact and therefore
    bit-identical to binning the distances one at a time in any order.
    """
    if len(rds) == 0:
        return np.zeros(NBINS, dtype=np.float64)
    return np.bincount(_bin_indices(rds), minlength=NBINS).astype(
        np.float64
    )


def _representatives() -> np.ndarray:
    """Representative distance per bin (midpoint of the bin's range)."""
    reps = np.empty(NBINS, dtype=np.float64)
    reps[:_EXACT] = np.arange(_EXACT)
    for idx in range(_EXACT, NBINS):
        k = idx - _EXACT
        b = 3 + k // 4
        quarter = k % 4
        lo = (1 << b) + quarter * (1 << (b - 2))
        hi = lo + (1 << (b - 2))
        reps[idx] = (lo + hi - 1) / 2.0
    return reps


_REPS = _representatives()


def bin_rep(idx: int) -> float:
    """Representative reuse distance of bin ``idx``."""
    return float(_REPS[idx])


class RDHistogram:
    """A reuse-distance distribution.

    Attributes
    ----------
    counts:
        Per-bin access counts (finite reuse distances).
    cold:
        First-touch accesses (no prior access to the line).
    inval:
        Reuses broken by a remote write — infinite-distance entries.
    """

    __slots__ = ("counts", "cold", "inval")

    def __init__(self, counts: np.ndarray = None, cold: int = 0,
                 inval: int = 0):
        self.counts = (
            np.zeros(NBINS, dtype=np.float64) if counts is None
            else np.asarray(counts, dtype=np.float64)
        )
        if len(self.counts) != NBINS:
            raise ValueError(f"expected {NBINS} bins")
        self.cold = int(cold)
        self.inval = int(inval)

    def add(self, rd: int) -> None:
        self.counts[bin_index(rd)] += 1

    def add_many(self, rds: np.ndarray) -> None:
        if len(rds):
            self.counts += bin_counts(rds)

    def add_cold(self, n: int = 1) -> None:
        self.cold += n

    def add_inval(self, n: int = 1) -> None:
        self.inval += n

    @property
    def n_finite(self) -> float:
        """Number of recorded finite reuses."""
        return float(self.counts.sum())

    @property
    def n_total(self) -> float:
        """All recorded accesses: finite + cold + invalidated."""
        return self.n_finite + self.cold + self.inval

    def merge(self, other: "RDHistogram") -> None:
        self.counts += other.counts
        self.cold += other.cold
        self.inval += other.inval

    def nonzero(self) -> Tuple[np.ndarray, np.ndarray]:
        """(representative distances, counts) for non-empty bins."""
        idx = np.flatnonzero(self.counts)
        return _REPS[idx], self.counts[idx]

    def mean_finite(self) -> float:
        """Mean finite reuse distance (0 when empty)."""
        n = self.n_finite
        if n == 0:
            return 0.0
        return float((_REPS * self.counts).sum() / n)

    def scaled(self, factor: float) -> "RDHistogram":
        """Histogram with all distances multiplied by ``factor``.

        Used to translate a distribution between access-stream
        granularities (e.g. per-thread vs global streams); counts are
        preserved, distances move bins.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        out = RDHistogram(cold=self.cold, inval=self.inval)
        idx = np.flatnonzero(self.counts)
        if len(idx):
            new_rd = np.maximum(_REPS[idx] * factor, 0).astype(np.int64)
            new_bins = _bin_indices(new_rd)
            np.add.at(out.counts, new_bins, self.counts[idx])
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        idx = np.flatnonzero(self.counts)
        return {
            "bins": idx.tolist(),
            "counts": self.counts[idx].tolist(),
            "cold": self.cold,
            "inval": self.inval,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RDHistogram":
        hist = cls(cold=data["cold"], inval=data["inval"])
        hist.counts[np.asarray(data["bins"], dtype=np.int64)] = np.asarray(
            data["counts"], dtype=np.float64
        )
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RDHistogram):
            return NotImplemented
        return (
            self.cold == other.cold
            and self.inval == other.inval
            and np.array_equal(self.counts, other.counts)
        )
