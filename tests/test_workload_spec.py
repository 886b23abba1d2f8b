"""Unit tests for workload specifications (EpochSpec & friends)."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import kernels as k
from repro.workloads import patterns
from repro.workloads import spec as spec_module
from repro.workloads.engine import expand
from repro.workloads.ir import OP_CODES, PC_SLOTS_PER_LINE, SyncKind, SyncOp
from repro.workloads.spec import (
    BranchSpec,
    EpochSpec,
    MemPattern,
    SegmentPlan,
    WorkloadSpec,
)


class TestMemPattern:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown pattern kind"):
            MemPattern(kind="zigzag", lines=10)

    def test_non_positive_footprint(self):
        with pytest.raises(ValueError):
            MemPattern(kind="stream", lines=0)

    def test_non_positive_weight(self):
        with pytest.raises(ValueError):
            MemPattern(kind="stream", lines=8, weight=0.0)

    def test_hot_frac_must_be_probability(self):
        with pytest.raises(ValueError):
            MemPattern(kind="working_set", lines=8, hot_frac=1.5)

    def test_hot_lines_within_footprint(self):
        with pytest.raises(ValueError):
            MemPattern(kind="working_set", lines=8, hot_lines=9)

    def test_effective_hot_lines_defaults_to_sixteenth(self):
        p = MemPattern(kind="working_set", lines=1600)
        assert p.effective_hot_lines() == 100

    def test_effective_hot_lines_explicit(self):
        p = MemPattern(kind="working_set", lines=1600, hot_lines=7)
        assert p.effective_hot_lines() == 7

    def test_effective_hot_lines_at_least_one(self):
        p = MemPattern(kind="working_set", lines=3)
        assert p.effective_hot_lines() == 1


class TestBranchSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown branch kind"):
            BranchSpec(kind="chaotic")

    def test_p_taken_bounds(self):
        with pytest.raises(ValueError):
            BranchSpec(kind="biased", p_taken=1.2)

    def test_period_minimum(self):
        with pytest.raises(ValueError):
            BranchSpec(kind="loop", period=1)

    def test_noise_bounds(self):
        with pytest.raises(ValueError):
            BranchSpec(kind="periodic", noise=0.7)


class TestEpochSpec:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EpochSpec(n=10, mix={"ialu": 0.5})

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown micro-op classes"):
            EpochSpec(n=10, mix={"vector": 1.0})

    def test_zero_instructions_allowed(self):
        spec = EpochSpec(n=0)
        assert spec.n == 0

    def test_negative_instructions_rejected(self):
        with pytest.raises(ValueError):
            EpochSpec(n=-1)

    def test_mean_dep_at_least_one(self):
        with pytest.raises(ValueError):
            EpochSpec(n=10, mean_dep=0.5)

    def test_needs_a_memory_pattern(self):
        with pytest.raises(ValueError, match="memory pattern"):
            EpochSpec(n=10, mem=())

    def test_stores_need_a_store_ok_pattern(self):
        read_only = MemPattern(kind="working_set", lines=64,
                               store_ok=False)
        with pytest.raises(ValueError, match="stores"):
            EpochSpec(n=10, mem=(read_only,))

    def test_scaled_changes_only_n(self):
        spec = EpochSpec(n=1000, mean_dep=2.5)
        scaled = spec.scaled(0.5)
        assert scaled.n == 500
        assert scaled.mean_dep == 2.5
        assert scaled.mix == spec.mix

    def test_scaled_rounds(self):
        assert EpochSpec(n=3).scaled(0.5).n == 2  # round(1.5) banker's

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            EpochSpec(n=10).scaled(-1.0)

    def test_frozen(self):
        spec = EpochSpec(n=10)
        with pytest.raises(AttributeError):
            spec.n = 20


class TestKernelPresets:
    def test_mix_normalizes(self):
        m = k.mix(ialu=2, fp=2)
        assert m["ialu"] == pytest.approx(0.5)
        assert sum(m.values()) == pytest.approx(1.0)

    def test_mix_rejects_empty(self):
        with pytest.raises(ValueError):
            k.mix()

    @pytest.mark.parametrize("preset", [
        k.FP_COMPUTE, k.INT_CONTROL, k.MEM_STREAM, k.GENERIC,
    ])
    def test_presets_are_normalized(self, preset):
        assert sum(preset.values()) == pytest.approx(1.0)

    def test_shared_read_rejects_stores(self):
        assert not k.shared_read(100).store_ok

    def test_shared_rw_accepts_stores(self):
        assert k.shared_rw(100).store_ok

    def test_shared_patterns_are_shared(self):
        assert k.shared_read(100).shared
        assert k.shared_rw(100).shared

    def test_private_patterns_are_private(self):
        assert not k.stream(100).shared
        assert not k.working_set(100).shared
        assert not k.pointer_chase(100).shared


class TestWorkloadSpec:
    def test_plan_count_must_match_threads(self):
        with pytest.raises(ValueError, match="one plan list per thread"):
            WorkloadSpec(name="w", n_threads=2, plans=[[]])

    def test_n_instructions_sums_plans(self):
        from repro.workloads.ir import SyncKind, SyncOp
        spec = EpochSpec(n=100)
        plans = [[
            SegmentPlan(spec, SyncOp(SyncKind.NONE)),
            SegmentPlan(None, SyncOp(SyncKind.END)),
        ]]
        w = WorkloadSpec(name="w", n_threads=1, plans=plans)
        assert w.n_instructions == 100


# -- the input boundary: accepted specs expand, the rest are ValueErrors ------

NAN, INF = math.nan, math.inf
_REJECTED = {
    "mix NaN": (EpochSpec, dict(n=10, mix={"ialu": NAN, "load": 1.0})),
    "mix negative": (EpochSpec, dict(n=10, mix={"ialu": 1.5, "load": -0.5})),
    "mean_dep NaN": (EpochSpec, dict(n=10, mean_dep=NAN)),
    "mean_dep inf": (EpochSpec, dict(n=10, mean_dep=INF)),
    "mean_dep -inf": (EpochSpec, dict(n=10, mean_dep=-INF)),
    "n fractional": (EpochSpec, dict(n=10.5)),
    "code_lines fractional": (EpochSpec, dict(n=10, code_lines=8.5)),
    "instrs_per_line fractional": (EpochSpec, dict(n=10, instrs_per_line=2.5)),
    "weight NaN": (MemPattern, dict(kind="stream", lines=8, weight=NAN)),
    "weight inf": (MemPattern, dict(kind="stream", lines=8, weight=INF)),
    "lines inf": (MemPattern, dict(kind="stream", lines=INF)),
    "lines fractional": (MemPattern, dict(kind="stream", lines=64.5)),
    "stride fractional": (MemPattern, dict(kind="stream", lines=64, stride=1.5)),
    "reuse fractional": (MemPattern, dict(kind="stream", lines=64, reuse=2.5)),
    "period fractional": (BranchSpec, dict(kind="loop", period=8.5)),
    "n_threads float": (WorkloadSpec, dict(name="w", n_threads=1.0, plans=[[]])),
    "lines bool": (MemPattern, dict(kind="stream", lines=True)),
    "weight past the total": (MemPattern, dict(kind="stream", lines=8,
                                               weight=1e308)),
    "total weight": (EpochSpec, dict(n=10, mem=(
        MemPattern(kind="stream", lines=8, weight=6e299),
        MemPattern(kind="stream", lines=8, weight=6e299),
    ))),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_constructor_rejects(case):
    cls, kwargs = _REJECTED[case]
    with pytest.raises(ValueError):
        cls(**kwargs)


def test_limits_match_the_address_layout():
    assert spec_module.MAX_LINES == patterns._REGION_STRIDE
    assert (spec_module.MAX_REGION + 1) * patterns._REGION_STRIDE == (
        patterns._PRIVATE_THREAD_STRIDE
    )
    assert spec_module.MAX_CODE_LINES == patterns._CODE_REGION_STRIDE
    last_line = (
        patterns.code_base(spec_module.MAX_CODE_REGION)
        + spec_module.MAX_CODE_LINES - 1
    )
    assert (last_line + 1) * PC_SLOTS_PER_LINE <= 2**63


#: Values no numeric field takes: wrong types, NaN, infinities,
#: fractions, negatives and integers past int64.
_BAD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), -1),
    st.integers(2**63, 2**70),
    st.booleans(),
    st.sampled_from([None, "1", 0.5, 2.5, -0.0]),
)


def _mostly(good, bad=_BAD):
    """``good`` fifteen draws in sixteen, else ``bad``."""
    return st.integers(0, 15).flatmap(lambda k: bad if k == 0 else good)


_pattern_kwargs = st.fixed_dictionaries({
    "kind": _mostly(st.sampled_from(MemPattern._KINDS),
                    st.sampled_from(["zigzag", "", 3])),
    "lines": _mostly(st.integers(1, spec_module.MAX_LINES)),
    "weight": _mostly(st.floats(min_value=0.0,
                                max_value=spec_module.MAX_TOTAL_WEIGHT,
                                exclude_min=True)),
    "region": _mostly(st.integers(0, spec_module.MAX_REGION)),
    "shared": st.booleans(),
    "store_ok": st.booleans(),
    "hot_frac": _mostly(st.floats(0.0, 1.0)),
    "hot_lines": _mostly(st.integers(0, 4096)),
    "stride": _mostly(st.integers(1, 4096)),
    "reuse": _mostly(st.integers(1, 2**63 - 1)),
})

_branch_kwargs = st.fixed_dictionaries({
    "kind": _mostly(st.sampled_from(BranchSpec._KINDS),
                    st.sampled_from(["chaotic", None])),
    "p_taken": _mostly(st.floats(0.0, 1.0)),
    "period": _mostly(st.integers(2, spec_module.MAX_PERIOD)),
    "noise": _mostly(st.floats(0.0, 0.5)),
})


@st.composite
def _mixes(draw):
    """A normalised mix; one draw in four is corrupted (a NaN, a bad
    value, a negative fraction offset by a larger one, an unknown
    class)."""
    classes = draw(st.lists(st.sampled_from(sorted(OP_CODES)), min_size=1,
                            max_size=len(OP_CODES), unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(classes),
                            max_size=len(classes)))
    mix = {c: w / sum(weights) for c, w in zip(classes, weights)}
    corruption = draw(st.sampled_from(
        [None] * 12 + ["nan", "bad", "shift", "unknown"]
    ))
    if corruption == "nan":
        mix[classes[0]] = NAN
    elif corruption == "bad":
        mix[classes[0]] = draw(_BAD)
    elif corruption == "shift" and len(classes) > 1:
        shift = draw(st.floats(0.01, 4.0))
        mix[classes[0]] += shift
        mix[classes[1]] -= shift
    elif corruption == "unknown":
        mix[draw(st.sampled_from(["vector", 7]))] = 0.0
    return mix


_epoch_kwargs = st.fixed_dictionaries({
    "n": _mostly(st.integers(0, 2000), st.one_of(
        st.floats(max_value=2000.0),
        st.integers(-(2**70), -1),
        st.sampled_from([True, None, "10", 10.5, NAN, INF]),
    )),
    "mix": _mixes(),
    "mean_dep": _mostly(st.floats(1.0, spec_module.MAX_MEAN_DEP)),
    "load_chain_frac": _mostly(st.floats(0.0, 1.0)),
    "code_lines": _mostly(st.integers(1, spec_module.MAX_CODE_LINES)),
    "instrs_per_line": _mostly(st.integers(1, PC_SLOTS_PER_LINE)),
    "code_region": _mostly(st.integers(0, spec_module.MAX_CODE_REGION)),
})


def _build(cls, kwargs):
    """``cls(**kwargs)``, or None if the constructor rejects the values
    with a ValueError.  Any other exception escapes."""
    try:
        return cls(**kwargs)
    except ValueError:
        return None


class TestSpecFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        epoch=_epoch_kwargs,
        pattern_list=st.lists(_pattern_kwargs, max_size=3),
        branch=_branch_kwargs,
    )
    def test_accepted_specs_expand(self, epoch, pattern_list, branch):
        """Every spec the constructors accept (n <= 2,000) expands
        through the engine without an error or a NumPy warning."""
        mem = [p for p in (_build(MemPattern, kw) for kw in pattern_list) if p]
        kwargs = dict(epoch, branch=_build(BranchSpec, branch) or BranchSpec())
        if mem:
            kwargs["mem"] = tuple(mem)
        epoch_spec = _build(EpochSpec, kwargs)
        if epoch_spec is None:
            return
        workload = WorkloadSpec(name="fuzz", n_threads=1, plans=[[
            SegmentPlan(epoch_spec, SyncOp(SyncKind.NONE)),
            SegmentPlan(None, SyncOp(SyncKind.END)),
        ]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = expand(workload)
        assert trace.n_instructions == epoch_spec.n
