"""``predict``'s cheap paths against their specs.

* the session's Eq.-1 memo is keyed by exactly what Eq. 1 reads
  (:func:`~repro.core.epoch_model.equation_key`), so design points that
  differ only in core count share one memo and predict bit-identically;
* ``predict`` reads nothing else of its configuration but ``name``, so
  the memo also holds phase 1 and phase 2: they run once per (profile,
  key), and every result still owns its thread and CPI-stack objects;
* :class:`~repro.profiler.profile.ILPTable` lookups equal the NumPy
  formulas they replaced (kept here as the oracle);
* memoised :func:`~repro.statstack.statstack.miss_rate` equals a fresh
  computation, inside the curve memo's bound;
* the flat phase-1 loop equals :func:`predict_epoch_cycles` summed
  segment by segment, bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.presets import TABLE_IV, table_iv_config
from repro.core import rppm
from repro.core.cpi_stack import COMPONENTS, CPIStack
from repro.core.epoch_model import (
    EpochCostCache,
    equation_key,
    predict_active_cycles,
    predict_epoch_cycles,
    segment_startup_cycles,
)
from repro.core.equation import evaluate_equation
from repro.core.rppm import predict
from repro.core.session import Session
from repro.experiments.bench import QUICK_BENCHMARKS
from repro.experiments.suites import BenchmarkRef, build_workload
from repro.profiler.histogram import RDHistogram
from repro.profiler.profile import ILPTable
from repro.profiler.profiler import profile_workload
from repro.statstack import statstack
from repro.statstack.statstack import miss_rate, sd_cache_clear, sd_cache_stats

CORE_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def quick_profiles():
    """The golden-digest inputs: the quick subset at scale 0.25."""
    session = Session.ephemeral()
    return [
        profile_workload(
            build_workload(BenchmarkRef("rodinia", name), 0.25),
            session=session,
        )
        for name in QUICK_BENCHMARKS
    ]


def _bits(values):
    return [float(v).hex() for v in values]


def _record(result):
    """Everything a prediction reports, floats as exact bit patterns."""
    return {
        "config": result.config,
        "total_cycles": float(result.total_cycles).hex(),
        "threads": [
            [t.instructions, *_bits([t.active_cycles, t.idle_cycles]),
             *_bits(getattr(t.stack, c) for c in COMPONENTS)]
            for t in result.threads
        ],
        "timeline": result.timeline.digest(),
    }


# -- the memo key ---------------------------------------------------------------


class _Recorder:
    """Stands in for a configuration and records every field read from
    it.  Methods and properties run against the recorder, so the fields
    they read (``memory_latency_cycles`` reads ``memory`` and ``core``)
    are recorded too."""

    def __init__(self, config):
        self.config = config
        self.reads = set()

    def __getattr__(self, name):
        attr = getattr(type(self.config), name, None)
        if hasattr(attr, "__get__"):
            return attr.__get__(self, type(self))
        self.reads.add(name)
        return getattr(self.config, name)


class TestEquationKey:
    def test_key_is_exactly_what_phase_one_reads(self, quick_profiles):
        config = table_iv_config("base", cores=4)
        keyed = _Recorder(config)
        equation_key(keyed)
        assert not {"name", "cores"} & keyed.reads
        for profile in quick_profiles:
            used = _Recorder(config)
            for thread in profile.threads:
                for pool in thread.pools.values():
                    evaluate_equation(pool, used)
            segment_startup_cycles(used)
            predict_active_cycles(EpochCostCache(profile, used))
            assert used.reads == keyed.reads

    def test_core_counts_share_one_memo(self, quick_profiles):
        session = Session.ephemeral()
        for profile in quick_profiles:
            for point in TABLE_IV:
                for cores in CORE_COUNTS:
                    config = dataclasses.replace(
                        table_iv_config(point, cores=cores),
                        name=f"{point}x{cores}",
                    )
                    shared = _record(predict(profile, config, session=session))
                    assert shared == _record(predict(profile, config))
                    assert shared["config"] == config.name
        health = session.health()
        assert health["cost_caches"] == len(TABLE_IV) * len(quick_profiles)
        # One Eq.-1 evaluation per pool and Table IV point.
        for profile in quick_profiles:
            n_pools = sum(len(t.pools) for t in profile.threads)
            for point in TABLE_IV:
                cache = session.cost_cache(profile, table_iv_config(point))
                assert len(cache) == n_pools

    def test_predict_reads_only_the_key_and_name(self, quick_profiles):
        config = table_iv_config("base", cores=4)
        keyed = _Recorder(config)
        equation_key(keyed)
        for profile in quick_profiles:
            used = _Recorder(config)
            predict(profile, used)
            assert used.reads == keyed.reads | {"name"}

    def test_key_separates_what_eq1_reads(self):
        base = table_iv_config("base", cores=4)
        assert equation_key(base) == equation_key(
            dataclasses.replace(base, name="other", cores=16)
        )
        assert equation_key(base) != equation_key(table_iv_config("big"))
        slower = dataclasses.replace(
            base, memory=dataclasses.replace(base.memory, latency_ns=90.0)
        )
        assert equation_key(base) != equation_key(slower)


class TestPredictionMemo:
    """Phase 1 and phase 2 run once per (profile, ``equation_key``)."""

    @pytest.fixture()
    def schedules(self, monkeypatch):
        calls = []
        run = rppm.run_schedule_batched

        def counted(*args):
            calls.append(args)
            return run(*args)

        monkeypatch.setattr(rppm, "run_schedule_batched", counted)
        return calls

    def test_phase_two_runs_once_per_point(self, quick_profiles, schedules):
        session = Session.ephemeral()
        configs = [
            table_iv_config(point, cores=cores)
            for point in TABLE_IV for cores in CORE_COUNTS
        ]
        for _ in range(2):
            for profile in quick_profiles:
                for config in configs:
                    predict(profile, config, session=session)
            # The repeat adds no phase-2 run.
            assert len(schedules) == len(TABLE_IV) * len(quick_profiles)
        assert session.counters == {
            "predictions": 2 * len(configs) * len(quick_profiles),
            "schedules": len(schedules),
        }

    def test_results_own_their_objects(self, quick_profiles):
        session = Session.ephemeral()
        profile = quick_profiles[0]
        one = table_iv_config("base", cores=1)
        a = predict(profile, one, session=session)
        b = predict(profile, table_iv_config("base", cores=8), session=session)
        assert a.timeline is b.timeline
        for kind in (
            lambda r: r.threads,
            lambda r: [t.stack for t in r.threads],
        ):
            assert not {id(x) for x in kind(a)} & {id(x) for x in kind(b)}
        before_a, before_b = _record(a), _record(b)
        a.threads[0].stack.add(CPIStack(base=1.0))
        assert _record(a) != before_a
        assert _record(b) == before_b
        assert _record(predict(profile, one, session=session)) == before_a

    def test_evicted_memos_predict_identically(self, quick_profiles):
        session = Session.ephemeral(max_cost_caches=1)
        points = [("base", 1), ("big", 2), ("base", 8), ("big", 8)] * 2
        for profile in quick_profiles:
            for point, cores in points:
                config = table_iv_config(point, cores=cores)
                assert _record(predict(profile, config, session=session)) == (
                    _record(predict(profile, config))
                )
        # One memo resident: every change of point evicts the other.
        assert session.counters["schedules"] == len(points) * len(
            quick_profiles
        )


# -- ILP lookups vs the NumPy formulas --------------------------------------------


def _oracle_bilinear(table, grid, window, load_lat):
    """The NumPy bilinear lookup ``ILPTable.lookup`` replaced."""
    w = float(np.clip(window, table.windows[0], table.windows[-1]))
    lat = float(
        np.clip(load_lat, table.load_lats[0], table.load_lats[-1])
    )
    wgrid = np.log2(np.asarray(table.windows, dtype=np.float64))
    lgrid = np.asarray(table.load_lats, dtype=np.float64)
    wi = int(np.searchsorted(wgrid, np.log2(w), side="right") - 1)
    wi = min(max(wi, 0), len(table.windows) - 2) if len(
        table.windows
    ) > 1 else 0
    li = int(np.searchsorted(lgrid, lat, side="right") - 1)
    li = min(max(li, 0), len(table.load_lats) - 2) if len(
        table.load_lats
    ) > 1 else 0
    if len(table.windows) == 1 and len(table.load_lats) == 1:
        return float(grid[0, 0])
    if len(table.windows) == 1:
        frac = (lat - lgrid[li]) / (lgrid[li + 1] - lgrid[li])
        return float(grid[0, li] * (1 - frac) + grid[0, li + 1] * frac)
    if len(table.load_lats) == 1:
        frac = (np.log2(w) - wgrid[wi]) / (wgrid[wi + 1] - wgrid[wi])
        return float(grid[wi, 0] * (1 - frac) + grid[wi + 1, 0] * frac)
    fw = (np.log2(w) - wgrid[wi]) / (wgrid[wi + 1] - wgrid[wi])
    fl = (lat - lgrid[li]) / (lgrid[li + 1] - lgrid[li])
    top = grid[wi, li] * (1 - fl) + grid[wi, li + 1] * fl
    bot = grid[wi + 1, li] * (1 - fl) + grid[wi + 1, li + 1] * fl
    return float(top * (1 - fw) + bot * fw)


def _oracle_window_interp(table, values, window):
    """The NumPy per-window interpolation ``lookup_branch_loads``
    replaced."""
    w = float(np.clip(window, table.windows[0], table.windows[-1]))
    if len(table.windows) == 1:
        return float(values[0])
    wgrid = np.log2(np.asarray(table.windows, dtype=np.float64))
    wi = int(np.searchsorted(wgrid, np.log2(w), side="right") - 1)
    wi = min(max(wi, 0), len(table.windows) - 2)
    frac = (np.log2(w) - wgrid[wi]) / (wgrid[wi + 1] - wgrid[wi])
    return float(values[wi] * (1 - frac) + values[wi + 1] * frac)


#: Table IV's ROB sizes, the non-powers of two among them included.
ROB_SIZES = (32, 72, 128, 200, 288)
positive = st.floats(min_value=0.01, max_value=64.0)


@st.composite
def ilp_tables(draw):
    windows = sorted(draw(st.lists(
        st.one_of(st.sampled_from(ROB_SIZES), st.integers(2, 2048)),
        min_size=1, max_size=6, unique=True,
    )))
    load_lats = sorted(draw(st.lists(
        st.integers(1, 400), min_size=1, max_size=5, unique=True,
    )))
    n = len(windows) * len(load_lats)
    ilp = draw(st.lists(positive, min_size=n, max_size=n))
    branch_loads = draw(st.lists(
        st.floats(min_value=0.0, max_value=32.0),
        min_size=len(windows), max_size=len(windows),
    ))
    return ILPTable(
        windows=tuple(windows),
        load_lats=tuple(load_lats),
        ilp=np.asarray(ilp).reshape(len(windows), len(load_lats)),
        branch_loads=np.asarray(branch_loads),
    )


class TestILPLookupSpec:
    @settings(max_examples=300, deadline=None)
    @given(
        table=ilp_tables(),
        window=st.one_of(st.sampled_from(ROB_SIZES), st.integers(1, 4096)),
        load_lat=st.one_of(
            st.floats(min_value=0.0, max_value=1000.0),
            st.integers(0, 1000),
        ),
    )
    def test_lookups_equal_numpy_formulas(self, table, window, load_lat):
        assert table.lookup(window, load_lat) == _oracle_bilinear(
            table, table.ilp, window, load_lat
        )
        assert table.lookup_branch_loads(window) == _oracle_window_interp(
            table, table.branch_loads, window
        )

    def test_profiled_tables_at_table_iv_windows(self, quick_profiles):
        for profile in quick_profiles:
            for thread in profile.threads:
                for pool in thread.pools.values():
                    table = pool.ilp
                    for rob in ROB_SIZES:
                        for lat in (1.0, 2.0, 7.3, 55.5, 312.0):
                            assert table.lookup(rob, lat) == (
                                _oracle_bilinear(table, table.ilp, rob, lat)
                            )
                        assert table.lookup_branch_loads(
                            min(rob, 64)
                        ) == _oracle_window_interp(
                            table, table.branch_loads, min(rob, 64)
                        )


# -- the miss-rate memo ----------------------------------------------------------


def _histogram(rds, cold, inval):
    h = RDHistogram()
    h.add_many(np.asarray(rds, dtype=np.int64))
    h.add_cold(cold)
    h.add_inval(inval)
    return h


def _rates(hist, capacities):
    return {
        (c, fc, fi): miss_rate(hist, c, fc, fi)
        for c in capacities
        for fc in (True, False)
        for fi in (True, False)
    }


class TestMissRateMemo:
    @settings(max_examples=150, deadline=None)
    @given(
        rds=st.lists(st.integers(0, 2**22), max_size=300),
        cold=st.integers(0, 50),
        inval=st.integers(0, 50),
        capacities=st.lists(st.integers(1, 2**20), min_size=1, max_size=5),
    )
    def test_memoised_equals_fresh(self, rds, cold, inval, capacities):
        sd_cache_clear()
        first = _rates(_histogram(rds, cold, inval), capacities)
        hits = sd_cache_stats()["hits"]
        # Equal content, another object: served from the memo.
        memoised = _rates(_histogram(rds, cold, inval), capacities)
        assert sd_cache_stats()["hits"] > hits
        assert memoised == first
        for (lines, cold_flag, inval_flag), rate in memoised.items():
            sd_cache_clear()
            fresh = miss_rate(
                _histogram(rds, cold, inval), lines, cold_flag, inval_flag
            )
            assert fresh == rate

    def test_memo_follows_content(self):
        sd_cache_clear()
        h = _histogram(range(0, 4000, 7), 10, 2)
        before = miss_rate(h, 64)
        h.add_cold(500)
        after = miss_rate(h, 64)
        sd_cache_clear()
        assert after == miss_rate(h, 64) and after != before

    def test_memo_stays_bounded(self):
        sd_cache_clear()
        h = _histogram(range(0, 4000, 7), 0, 0)
        for _ in range(statstack._SD_CACHE_MAX + 40):
            h.add_cold(1)
            miss_rate(h, 64)
            miss_rate(h, 512, include_cold=False)
        assert sd_cache_stats()["entries"] == statstack._SD_CACHE_MAX
        sd_cache_clear()


# -- the phase-1 loop ------------------------------------------------------------


@pytest.mark.parametrize("point", TABLE_IV)
def test_phase_one_equals_per_segment_spec(quick_profiles, point):
    config = table_iv_config(point)
    for profile in quick_profiles:
        durations, stacks = predict_active_cycles(
            EpochCostCache(profile, config)
        )
        spec_cache = EpochCostCache(profile, config)
        for i, thread in enumerate(profile.threads):
            expected = []
            stack = CPIStack()
            for segment in thread.segments:
                cycles, contribution = predict_epoch_cycles(
                    spec_cache, thread, segment
                )
                expected.append(cycles)
                stack.add(contribution)
            assert _bits(durations[i]) == _bits(expected)
            got = stacks[thread.thread_id]
            assert got.instructions == stack.instructions
            assert _bits(getattr(got, c) for c in COMPONENTS) == _bits(
                getattr(stack, c) for c in COMPONENTS
            )
