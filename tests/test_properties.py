"""Property-based tests (hypothesis) on core data structures and
invariants: histograms, StatStack monotonicity, the scheduler, the ILP
scoreboard and CPI stacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cpi_stack import CPIStack
from repro.profiler.histogram import NBINS, RDHistogram, bin_index, bin_rep
from repro.profiler.ilp import load_parallelism, scoreboard_replay
from repro.runtime.scheduler import run_schedule
from repro.statstack.statstack import expected_stack_distances, miss_rate
from repro.workloads.ir import SyncKind, SyncOp

# -- histograms --------------------------------------------------------------

distances = st.integers(min_value=0, max_value=2**40 - 1)


@given(distances)
def test_bin_index_in_range(rd):
    assert 0 <= bin_index(rd) < NBINS


@given(distances, distances)
def test_bin_index_monotone(a, b):
    lo, hi = sorted((a, b))
    assert bin_index(lo) <= bin_index(hi)


@given(st.integers(min_value=0, max_value=2**30))
def test_bin_representative_round_trips(rd):
    idx = bin_index(rd)
    assert bin_index(int(bin_rep(idx))) == idx


@given(st.lists(distances, max_size=200))
def test_histogram_totals(rds):
    h = RDHistogram()
    h.add_many(np.asarray(rds, dtype=np.int64))
    assert h.n_finite == len(rds)


@given(st.lists(distances, max_size=100), st.lists(distances, max_size=100))
def test_histogram_merge_is_additive(a, b):
    ha, hb = RDHistogram(), RDHistogram()
    ha.add_many(np.asarray(a, dtype=np.int64))
    hb.add_many(np.asarray(b, dtype=np.int64))
    merged = RDHistogram()
    merged.add_many(np.asarray(a + b, dtype=np.int64))
    ha.merge(hb)
    assert ha == merged


@given(st.lists(distances, max_size=150),
       st.integers(min_value=0, max_value=50),
       st.integers(min_value=0, max_value=50))
def test_histogram_serialization_round_trip(rds, cold, inval):
    h = RDHistogram(cold=cold, inval=inval)
    h.add_many(np.asarray(rds, dtype=np.int64))
    assert RDHistogram.from_dict(h.to_dict()) == h


# -- StatStack ---------------------------------------------------------------

hist_strategy = st.builds(
    lambda rds, cold, inval: (rds, cold, inval),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
             max_size=200),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
)


def _build_hist(data):
    rds, cold, inval = data
    h = RDHistogram(cold=cold, inval=inval)
    h.add_many(np.asarray(rds, dtype=np.int64))
    return h


@given(hist_strategy)
def test_stack_distances_non_decreasing(data):
    h = _build_hist(data)
    _, _, sds = expected_stack_distances(h)
    assert (np.diff(sds) >= -1e-9).all()


@given(hist_strategy)
def test_stack_distance_at_most_reuse_distance(data):
    h = _build_hist(data)
    rds, _, sds = expected_stack_distances(h)
    assert (sds <= rds + 1 + 1e-9).all()


@given(hist_strategy, st.integers(min_value=1, max_value=20))
def test_miss_rate_is_probability(data, cap_log2):
    h = _build_hist(data)
    rate = miss_rate(h, 1 << cap_log2)
    assert 0.0 <= rate <= 1.0


@given(hist_strategy,
       st.integers(min_value=1, max_value=18),
       st.integers(min_value=1, max_value=18))
def test_miss_rate_monotone_in_capacity(data, a, b):
    h = _build_hist(data)
    small, big = sorted(((1 << a), (1 << b)))
    assert miss_rate(h, big) <= miss_rate(h, small) + 1e-9


# -- scheduler ---------------------------------------------------------------

durations_strategy = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
             max_size=4),
    min_size=1, max_size=4,
)


def _fork_join_programs(durations):
    """Main creates every worker, every thread runs its segments, join."""
    n = len(durations)
    programs = [
        [SyncOp(SyncKind.CREATE, obj=t) for t in range(1, n)]
        + [SyncOp(SyncKind.NONE)] * len(durations[0])
        + [SyncOp(SyncKind.JOIN, obj=t) for t in range(1, n)]
        + [SyncOp(SyncKind.END)]
    ]
    table = [
        [0.0] * (n - 1) + list(durations[0]) + [0.0] * (n - 1) + [0.0]
    ]
    for t in range(1, n):
        programs.append(
            [SyncOp(SyncKind.NONE)] * len(durations[t])
            + [SyncOp(SyncKind.END)]
        )
        table.append(list(durations[t]) + [0.0])
    return programs, table


@given(durations_strategy)
@settings(max_examples=60)
def test_fork_join_end_time_is_critical_path(durations):
    programs, table = _fork_join_programs(durations)

    def execute(tid, idx, start):
        return table[tid][idx]

    result = run_schedule(programs, execute)
    main_total = sum(table[0])
    worker_totals = [sum(t) for t in table[1:]]
    expected = max([main_total] + worker_totals)
    assert result.end_time == pytest.approx(expected, rel=1e-9, abs=1e-6)


@given(durations_strategy)
@settings(max_examples=60)
def test_active_time_equals_sum_of_durations(durations):
    programs, table = _fork_join_programs(durations)
    result = run_schedule(programs, execute=lambda t, i, s: table[t][i])
    for tid, row in enumerate(table):
        assert result.active[tid] == pytest.approx(sum(row), abs=1e-6)


@given(durations_strategy)
@settings(max_examples=60)
def test_idle_time_never_negative(durations):
    programs, table = _fork_join_programs(durations)
    result = run_schedule(programs, execute=lambda t, i, s: table[t][i])
    assert all(idle >= -1e-9 for idle in result.idle)


# -- scoreboard --------------------------------------------------------------

microtrace = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=16)),
    min_size=1, max_size=120,
)


def _clean(ops_deps):
    ops = [o for o, _ in ops_deps]
    deps = [min(d, i) for i, (_, d) in enumerate(ops_deps)]
    return ops, deps


@given(microtrace, st.sampled_from([16, 64, 256]),
       st.sampled_from([2, 10, 100]))
def test_scoreboard_ilp_positive_and_bounded(ops_deps, window, lat):
    ops, deps = _clean(ops_deps)
    ilp, br_loads = scoreboard_replay(ops, deps, window, lat)
    assert ilp > 0
    assert ilp <= len(ops) + 1e-9 or len(ops) == 0
    assert br_loads >= 0


@given(microtrace, st.sampled_from([2, 10, 100]))
def test_scoreboard_monotone_in_window(ops_deps, lat):
    ops, deps = _clean(ops_deps)
    small, _ = scoreboard_replay(ops, deps, 16, lat)
    big, _ = scoreboard_replay(ops, deps, 256, lat)
    assert big >= small - 1e-9


@given(microtrace, st.sampled_from([16, 128]))
def test_scoreboard_monotone_in_latency(ops_deps, window):
    ops, deps = _clean(ops_deps)
    fast, _ = scoreboard_replay(ops, deps, window, 2)
    slow, _ = scoreboard_replay(ops, deps, window, 200)
    assert fast >= slow - 1e-9


@given(microtrace, st.sampled_from([16, 64]))
def test_load_parallelism_at_least_one(ops_deps, window):
    ops, deps = _clean(ops_deps)
    assert load_parallelism(ops, deps, window) >= 1.0


# -- CPI stacks --------------------------------------------------------------

component = st.floats(min_value=0.0, max_value=1e6)


@given(component, component, component, component, component,
       st.integers(min_value=0, max_value=10**9))
def test_cpi_stack_round_trip_and_totals(base, branch, icache, mem, sync,
                                         n):
    s = CPIStack(base=base, branch=branch, icache=icache, mem=mem,
                 sync=sync, instructions=n)
    assert s.total_cycles == pytest.approx(
        base + branch + icache + mem + sync
    )
    assert CPIStack.from_dict(s.to_dict()) == s
