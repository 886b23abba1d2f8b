"""Store keys: pinned literals and the one-pass encoder's spec.

Every content key (trace, profile, result, work-queue job) addresses
artifacts already persisted in someone's store, so a key may never
change by accident.  The literals below were computed by the two-pass
``_canonical`` + ``json.dumps`` derivation that
:func:`repro.testing.specs.fingerprint_reference` preserves; the
Hypothesis properties check :func:`repro.experiments.store.fingerprint`
against that spec on arbitrary key structures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.presets import table_iv_config
from repro.experiments.store import ProfileStore, fingerprint
from repro.experiments.suites import build_workload, full_suite
from repro.experiments.workqueue import Job
from repro.testing.specs import fingerprint_reference, trace_key_reference

#: ``trace_key`` of each suite spec at scale 1.0 and its default seed.
TRACE_KEYS_SCALE_1 = {
    "rodinia.backprop":
        "25443cda95b23c955c1d8fa2d4dc153f963e368e4fef622e747d30e480d6bf9c",
    "rodinia.bfs":
        "aab21939894229ff054d1bbd8c1dfa8e400fbfe40ebfd3427983e3bd2847f1da",
    "rodinia.cfd":
        "71ed698cfeeb32ec651789bcc97874ee77e8dc77b3bbba3e5952d1284879fe66",
    "rodinia.heartwall":
        "2ed6149b87a0cfd515d1738f28844e693eca3185a0684ff1f3da75eb85d489b3",
    "rodinia.hotspot":
        "522dd387f63c9e2d9455ae8f91e639bee69cba868c102f853ace3b9edda60de6",
    "rodinia.kmeans":
        "2a4bcde9d2b5b24ac2560aa43cf5696040db23a8768f5cf47fa1fe3c6b5c3402",
    "rodinia.lavaMD":
        "6ef62703c2d1eda5227803ea71538236896509e372eaa87da73788cf7dceccf7",
    "rodinia.leukocyte":
        "0a2401bb754d0182c935d6dccca75f5ac2745479d90be192067d5525e122fd8a",
    "rodinia.lud":
        "eae5121af70e2790f776f2d9ba6de6238f7cfb4ab6b48d5098480fb8049b4758",
    "rodinia.myocyte":
        "b9692163ed1cf2d617c2b55c514b5f1a8c0a4a2b1e0e851d548cdcdea0a535d2",
    "rodinia.nn":
        "c8c95a1aa6f7ab8e314c0c6dd4c1ea26cc36832ac73dbfe3d1594ba868381811",
    "rodinia.nw":
        "a4f872e3d3ad2abb775239c171ef0aed112ff00b11dba5b758d96d4ac0aadf99",
    "rodinia.particlefilter":
        "57b7697d29eaef9208ac872252fec004117ff7670b3bf2f422999a25c7c06bae",
    "rodinia.pathfinder":
        "3ba36d8a6c02cc529b1f98ccd2e1d653bb043a655639be7dc23e1320971eb7e2",
    "rodinia.srad":
        "be04ae70ef6f98be7a4fbd750401f59482773c951288c17cda2957962b35068f",
    "rodinia.streamcluster":
        "50dac1f42e1e595213f10f77018d30d824e32ef2810c9aeb0d98ed75ed4ed372",
    "parsec.blackscholes":
        "dc0012a3305a31ca6c812112e420686b2ff531110cc22edb8b5ef331c5abee1a",
    "parsec.bodytrack":
        "e41f03cc239895cb6e2c6e911179699c2b5ae53f6a9d83d2d1d1e943dd7e291d",
    "parsec.canneal":
        "d4b2d445e10d46aaadd84394435c153adb9490aaa0fd6d4c31cd64a2540bae75",
    "parsec.facesim":
        "79f8a78e4d7b8a54a0f58554047d1b12c37cde6767af15214bc8c8fe3d55cc54",
    "parsec.fluidanimate":
        "a1fff1e9e050f509323ba6810080c2ac1c57c75aa34733b00f88d742408e1982",
    "parsec.freqmine":
        "363ae5d2ee16bbcfb435caac30a9c0cc050a8786c310c5ac178505a8f5270bd0",
    "parsec.raytrace":
        "aa655d5781fbbcfc83df0f4e647542b2ac8db1005f365bdd6e9a5996f6338055",
    "parsec.streamcluster":
        "f2632182abbf7fa25faa87e5ef8e167d311b7c1d71cf0d86d8e093b4d17b1b28",
    "parsec.swaptions":
        "defd21d5f862f135baaff38961faee1efe0049f384d9ac5d831820f0f2eb2b39",
    "parsec.vips":
        "19b1ca3d07788ca0de4c82b2cbe6f31af047ee7e87df0ce104df062a4b5bf4c8",
}

#: ``trace_key`` of each suite spec at scale 0.25 with seed 12345.
TRACE_KEYS_SCALE_025_SEED_12345 = {
    "rodinia.backprop":
        "18231974a1292ebf8eb5c30e90f8ba314ef00db494008d234da974617aecda54",
    "rodinia.bfs":
        "5b980535dc8bc682dbb4f6c71b369530267176ebfa89de3a9402fcd221839b95",
    "rodinia.cfd":
        "8520899297128871c53cd16c7a4e8b4dbb1b3ff41de341c5bc50219df5cfc085",
    "rodinia.heartwall":
        "ee0500e50dc1e128f3a5a6ce6aa24ad76840715c039713dd2f8ed961a029f5d5",
    "rodinia.hotspot":
        "c77e7b8240b4d53bd133e10f9f58380e12d665dbe9060494b871635de2dff39b",
    "rodinia.kmeans":
        "ce5ff339eb24d1545c441c51f38b96e20429a87d328b04131e777b8252652435",
    "rodinia.lavaMD":
        "e65f8442cad94d976608f1e4621f124f1a0333485b21a479e000596e028d2105",
    "rodinia.leukocyte":
        "702a9edc935f24e470e5c892f4a0d65c8684a05e830b2991859a2f16a71fc6f8",
    "rodinia.lud":
        "469a2bea2fe3a13d47276c122607b647b4c079138cdb4a7f5233afe407c50a26",
    "rodinia.myocyte":
        "6a12e3a5a636fab8f88a2678885c847c80adf0c5ab2b83b44e59cade776c145d",
    "rodinia.nn":
        "4290b2b147fc23d86ca72037b39de1595688446713667475faab4b69836f887f",
    "rodinia.nw":
        "182ce0b6172d277f0446f9e692bd6a5ac71503206e3039702171ba5783fbc335",
    "rodinia.particlefilter":
        "dd2822b353566b7bcaf3c9aed42e6c36446bbf76aafe3289aa1e6a4f9a016315",
    "rodinia.pathfinder":
        "4cb7ff531235bbbbc54fff9a8d3383ef6d779fb887a4f153bcb2c7f95d578f37",
    "rodinia.srad":
        "6ea741e364419916dadd81917b5fb287ad13b12fff3abba1ac8895e4c2be909f",
    "rodinia.streamcluster":
        "245585133a41b35c7b560d65f178fa1014c7841447ab98bdda7c452fe57224c6",
    "parsec.blackscholes":
        "dcdf88999214152d590eb400e48244a8288200be82455c998ed75219cce863b5",
    "parsec.bodytrack":
        "f74c1b6b5eb8663b03b539cb6b9389fa14ae4598ca349fbf9379669aad8d8da9",
    "parsec.canneal":
        "1b3a113748ba63cca9a8c44f352c823c1589c4d8dc08f27ba7b59f6e4c706d9f",
    "parsec.facesim":
        "b700ca4b844d0827ad94c667011a5f437a931fdf8423e42e11ec202dc14ccc72",
    "parsec.fluidanimate":
        "82b10e1ede1931eb97d18f5431934db51096e9099ddf540a952eb23014c26d17",
    "parsec.freqmine":
        "b86c73717e3ae57aed57b45c3efec9d62064e1fd63741eafc6b6f5ec5afc0f6e",
    "parsec.raytrace":
        "1ae81c4ddb84c44ab44327b9ae7d4b17b2adca2cbf9999831bc6bf4a868e97e1",
    "parsec.streamcluster":
        "da947e570d6c1256de1e584fab484f1096cb4a62b2ae15efa2ed7b9a75adedf6",
    "parsec.swaptions":
        "df5229e47113b8a70861dc6dab13bbdca3dc8f90474529caad2197c7024a5936",
    "parsec.vips":
        "d4fc8349d765c4941e4aa90f615df58b7d9b1a35735749d3faa5de47fb200df2",
}

SUITE = {ref.label: ref for ref in full_suite()}


class TestPinnedKeys:
    def test_pins_cover_the_suite(self):
        assert set(TRACE_KEYS_SCALE_1) == set(SUITE)
        assert set(TRACE_KEYS_SCALE_025_SEED_12345) == set(SUITE)

    @pytest.mark.parametrize("label", sorted(TRACE_KEYS_SCALE_1))
    def test_trace_key_at_scale_1(self, label):
        spec = build_workload(SUITE[label], 1.0)
        assert ProfileStore.trace_key(spec) == TRACE_KEYS_SCALE_1[label]

    @pytest.mark.parametrize(
        "label", sorted(TRACE_KEYS_SCALE_025_SEED_12345)
    )
    def test_trace_key_at_scale_025_seed_12345(self, label):
        spec = dataclasses.replace(
            build_workload(SUITE[label], 0.25), seed=12345
        )
        assert (
            ProfileStore.trace_key(spec)
            == TRACE_KEYS_SCALE_025_SEED_12345[label]
        )

    def test_profile_key(self):
        assert ProfileStore.profile_key(
            "rodinia.hotspot", 0x5EED, 1.0, 4096
        ) == (
            "1f67bddbb13fababe031f521c755f532fa79f611c991239eac0259f243cf598d"
        )

    def test_result_key_at_table_iv_base(self):
        assert ProfileStore.result_key(
            "prediction", "rodinia.hotspot", 0x5EED, 1.0,
            table_iv_config("base", 4),
        ) == (
            "e0605b3b18726038a0cbaf1adb69c6e13d44627017392d6a3a97c1a3f7ca729a"
        )

    def test_job_key(self):
        job = Job("predict", "rodinia", "hotspot", config="base")
        assert job.key == (
            "6b90f0ae06f783c7300b9d670871a4310a741a2d1754528d52e069de6a9b683d"
        )


class Color(Enum):
    RED = "red"
    GREEN = 2
    BLUE = 2.5
    PAIR = (1, "x")


class Level(IntEnum):
    LOW = 1
    HIGH = 7


class Ratio(float):
    pass


class Tag(str):
    pass


@dataclass(frozen=True)
class Leaf:
    name: str
    value: Any


@dataclass
class Box:
    items: list
    label: str = ""


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.floats(allow_nan=True, allow_infinity=True).map(Ratio),
    st.text(),
    st.text().map(Tag),
    st.sampled_from(list(Color) + list(Level)),
    st.complex_numbers(allow_nan=False),
)

VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.builds(Leaf, st.text(max_size=6), children),
        st.builds(Box, st.lists(children, max_size=3), st.text(max_size=6)),
    ),
    max_leaves=24,
)


class TestFingerprintMatchesSpec:
    @settings(max_examples=200, deadline=None)
    @given(VALUES)
    def test_any_key_structure(self, value):
        assert fingerprint(value) == fingerprint_reference(value)

    @settings(max_examples=100, deadline=None)
    @given(VALUES, st.text(max_size=6))
    def test_frozen_object_referenced_from_several_places(
        self, value, name
    ):
        shared = Leaf(name, value)
        tree = {
            "first": shared,
            "again": [shared, (shared, Box([shared, Leaf("x", shared)]))],
            "nested": {"leaf": Leaf(name, [shared, shared])},
        }
        assert fingerprint(tree) == fingerprint_reference(tree)

    @pytest.mark.parametrize("scale, seed", [(0.05, 1), (2.0, 1)])
    def test_every_suite_spec_at_the_unpinned_scales(self, scale, seed):
        """With the two pinned tables, every scale of {0.05, 0.25, 1.0,
        2.0} and every seed of {0x5EED, 1, 12345} is covered."""
        for ref in SUITE.values():
            spec = dataclasses.replace(
                build_workload(ref, scale), seed=seed
            )
            assert ProfileStore.trace_key(spec) == trace_key_reference(
                spec
            ), ref.label
