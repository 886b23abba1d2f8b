"""Core StatStack math (Eklov & Hagersten, ISPASS 2010).

StatStack estimates the *stack distance* (number of unique lines
between a reuse pair) from the much cheaper *reuse distance* (number of
accesses between the pair): each of the ``r`` intervening accesses of a
reuse with distance ``r`` contributes a unique line iff its own forward
reuse carries past the window end.  For an access ``k`` positions
before the window end that probability is ``P(RD > k)``, hence

    E[SD(r)] = sum_{k=1..r} P(RD > k)

The miss rate of a fully-associative LRU cache with ``S`` lines is then
the probability mass of reuses whose expected stack distance reaches
``S``, plus compulsory (cold) and coherence (invalidated) misses.

Forward and backward reuse-distance distributions coincide up to edge
effects (every finite backward reuse is a finite forward reuse of its
earlier partner), so the profiler's backward histograms are used
directly; cold/invalidated accesses play the role of never-reused
(infinite forward distance) accesses in the ccdf.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lru import LRUCache
from repro.profiler.histogram import RDHistogram

#: Entries kept in the stack-distance curve memo.  A design-space sweep
#: touches each distinct histogram a handful of times per config times
#: five configs; a few hundred curves cover every realistic run.
_SD_CACHE_MAX = 512

#: Content key -> (curve, rates): the stack-distance curve and the miss
#: rates derived from it per (capacity, include_cold, include_inval).
_sd_cache = LRUCache(_SD_CACHE_MAX)


def sd_cache_stats() -> dict:
    """Counters and occupancy of the stack-distance memo (for tests)."""
    return _sd_cache.stats()


def sd_cache_clear() -> None:
    """Empty the memo and zero its counters."""
    global _sd_cache
    _sd_cache = LRUCache(_SD_CACHE_MAX)


def _sd_entry(hist: RDHistogram) -> tuple:
    """The memo entry ``(curve, rates)`` of ``hist``'s content."""
    key = (hist.counts.tobytes(), hist.cold, hist.inval)
    entry = _sd_cache.get(key)
    if entry is None:
        entry = (_compute_stack_distances(hist), {})
        _sd_cache.put(key, entry)
    return entry


def expected_stack_distances(
    hist: RDHistogram,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected stack distance at each populated reuse-distance bin.

    Returns ``(rds, counts, sds)`` where ``sds[j] = E[SD(rds[j])]``.
    Arrays are sorted by reuse distance; ``sds`` is non-decreasing.

    The curve depends only on the histogram *content*, and different
    pools (and different hierarchy levels of the same pool) frequently
    share identical histograms, so results are memoized under a content
    key — callers receive shared arrays and must treat them as
    read-only.
    """
    return _sd_entry(hist)[0]


def _compute_stack_distances(
    hist: RDHistogram,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    rds, counts = hist.nonzero()
    if len(rds) == 0:
        return rds, counts, np.zeros(0)
    n_inf = float(hist.cold + hist.inval)
    total = counts.sum() + n_inf
    # ccdf_j = P(RD >= rds[j]) for k in the gap (rds[j-1], rds[j]]: the
    # bin's own mass is included because an intervening access with the
    # same binned distance carries past almost the whole gap.  (The
    # alternative half-count smoothing collapses for single-bin
    # streaming distributions, underestimating the stack distance right
    # at the capacity cliff.)
    tail = np.concatenate([np.cumsum(counts[::-1])[::-1][1:], [0.0]])
    ccdf = (n_inf + tail + counts) / total
    gaps = np.diff(np.concatenate([[0.0], rds]))
    sds = np.cumsum(ccdf * gaps)
    return rds, counts, sds


def miss_rate(
    hist: RDHistogram,
    cache_lines: int,
    include_cold: bool = True,
    include_inval: bool = True,
) -> float:
    """Per-access miss probability of a ``cache_lines``-line LRU cache.

    A reuse with expected stack distance >= capacity misses; the
    crossing bin is included fractionally (linear interpolation).  Cold
    accesses and coherence-invalidated reuses always miss; the flags let
    callers split the components for CPI-stack attribution.

    Rates are memoised inside the curve memo's entry for the
    histogram's content, so they share its key and
    :data:`_SD_CACHE_MAX` bound; racing writers store the same rate.
    """
    if cache_lines <= 0:
        raise ValueError("cache capacity must be positive")
    curve, rates = _sd_entry(hist)
    key = (cache_lines, include_cold, include_inval)
    rate = rates.get(key)
    if rate is None:
        rate = _miss_rate(hist, curve, *key)
        rates[key] = rate
    return rate


def _miss_rate(
    hist: RDHistogram, curve: tuple, cache_lines: int,
    include_cold: bool, include_inval: bool,
) -> float:
    total = hist.n_total
    if total == 0:
        return 0.0
    rds, counts, sds = curve
    finite_misses = 0.0
    if len(rds):
        j = int(np.searchsorted(sds, cache_lines, side="left"))
        if j < len(rds):
            finite_misses = counts[j:].sum()
            # Fractional inclusion of the crossing bin: its mass is
            # spread over the bin's own (quarter-octave) width, with
            # the local SD-per-RD slope; mass whose stack distance
            # falls below the capacity still hits.
            prev_rd = rds[j - 1] if j > 0 else 0.0
            prev_sd = sds[j - 1] if j > 0 else 0.0
            gap = max(rds[j] - prev_rd, 1e-9)
            slope = (sds[j] - prev_sd) / gap
            width = min(gap, 0.19 * rds[j] + 1.0)
            lo_sd = sds[j] - slope * width
            if cache_lines > lo_sd and sds[j] > lo_sd:
                covered = (cache_lines - lo_sd) / (sds[j] - lo_sd)
                finite_misses -= counts[j] * min(max(covered, 0.0), 1.0)
    misses = finite_misses
    if include_cold:
        misses += hist.cold
    if include_inval:
        misses += hist.inval
    return float(min(max(misses / total, 0.0), 1.0))

