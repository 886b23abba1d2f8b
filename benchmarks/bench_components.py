"""Component throughput benches: profiler, simulator, predictor parts.

Not a paper artifact — these track the toolchain's own performance so
regressions in the hot paths (reuse-distance replay, the core
scoreboard, the tournament predictor, StatStack) are visible.
"""

import numpy as np
import pytest

from repro.branch.predictors import TournamentPredictor
from repro.core.equation import evaluate_equation
from repro.profiler.branchprof import branch_stats
from repro.profiler.histogram import RDHistogram
from repro.profiler.ilp import build_ilp_table
from repro.profiler.batch import PoolLocality, replay_data, replay_fetch
from repro.profiler.profiler import profile_workload
from repro.simulator.multicore import simulate
from repro.statstack.statstack import miss_rate
from repro.workloads.generator import expand
from repro.workloads.rodinia import rodinia_workload


@pytest.fixture(scope="module")
def trace():
    return expand(rodinia_workload("srad"))


def test_bench_expand(benchmark):
    spec = rodinia_workload("srad")
    trace = benchmark(expand, spec)
    assert trace.n_instructions > 0


def test_bench_profile(benchmark, trace):
    profile = benchmark.pedantic(
        profile_workload, args=(trace,), rounds=3, iterations=1
    )
    assert profile.n_instructions == trace.n_instructions


def test_bench_locality_replay(benchmark):
    """The profiler's reuse-distance engine on one 50k-access stream:
    the data replay and the fetch replay of the same lines."""
    rng = np.random.default_rng(0)
    addrs = rng.integers(0, 4096, size=50_000)
    stores = rng.random(50_000) < 0.2

    def run():
        pool, hist = PoolLocality(), RDHistogram()
        replay_data([(0, 0, addrs, stores)], 1, [pool])
        replay_fetch([(0, addrs)], [hist])
        return pool, hist

    pool, hist = benchmark(run)
    assert pool.n_accesses == 50_000
    assert hist.cold + hist.n_finite == 50_000


@pytest.mark.perf
def test_bench_simulate(benchmark, trace, base_config):
    """The whole reference simulator on 4 cores: per-block memory
    replay, the tournament predictor and the core scoreboard."""
    result = benchmark.pedantic(
        simulate, args=(trace, base_config), rounds=3, iterations=1
    )
    assert result.n_instructions == trace.n_instructions


def test_bench_tournament_predictor(benchmark, base_config):
    rng = np.random.default_rng(0)
    pcs = rng.integers(0, 256, size=50_000) * 16
    taken = (rng.random(50_000) < 0.8).astype(np.uint8)

    def run():
        return TournamentPredictor(
            base_config.branch_predictor
        ).run(pcs, taken)

    miss = benchmark(run)
    assert 0.0 < miss.mean() < 0.5


def test_bench_branch_stats(benchmark):
    rng = np.random.default_rng(0)
    pcs = rng.integers(0, 64, size=40_000) * 16
    taken = (rng.random(40_000) < 0.85).astype(np.int64)
    stats = benchmark(branch_stats, [(pcs, taken)])
    assert stats.n_branches == 40_000


def test_bench_ilp_table(benchmark):
    rng = np.random.default_rng(0)
    samples = [
        (rng.integers(0, 6, size=512),
         np.minimum(rng.geometric(1 / 3.0, size=512),
                    np.arange(512)).astype(np.int32))
        for _ in range(6)
    ]
    table = benchmark(build_ilp_table, samples)
    assert table.lookup(128, 10) > 0


def test_bench_statstack_miss_rate(benchmark):
    rng = np.random.default_rng(0)
    h = RDHistogram(cold=100)
    h.add_many(rng.integers(0, 10**6, size=100_000))

    def run():
        return [miss_rate(h, c) for c in (512, 4096, 131072)]

    rates = benchmark(run)
    assert all(0 <= r <= 1 for r in rates)


def test_bench_equation(benchmark, run_cache, base_config):
    from repro.experiments.suites import BenchmarkRef
    profile = run_cache.profile(BenchmarkRef("rodinia", "cfd"))
    pool = max(profile.threads[1].pools.values(),
               key=lambda p: p.n_instructions)
    costs = benchmark(evaluate_equation, pool, base_config)
    assert costs.cpi_active > 0
