"""Unit tests for repro.core.threedreach and threedreach_rev specifics."""

import pytest

from helpers import FIG1_INDEX, FIG1_REGION, fig1_network
from repro.core import ThreeDReach, ThreeDReachRev
from repro.geometry import Rect
from repro.geosocial import condense_network
from repro.labeling import build_labeling, build_reversed_labeling


@pytest.fixture
def condensed():
    return condense_network(fig1_network())


def test_point_transformation_cardinality(condensed):
    # One 3-D point per spatial vertex (replicate mode on a DAG network).
    method = ThreeDReach(condensed)
    assert len(method.rtree) == 6
    assert method.rtree.dims == 3


def test_rev_segment_cardinality(condensed):
    # One segment per (spatial vertex, reversed label) pair.
    method = ThreeDReachRev(condensed)
    expected = sum(
        len(method.labeling.labels_of(condensed.super_of(FIG1_INDEX[n])))
        for n in "ehfgil"
    )
    assert len(method.rtree) == expected


def test_3d_points_sit_at_post_height(condensed):
    method = ThreeDReach(condensed)
    post = method.labeling.post
    for bounds, component in method.rtree.items():
        assert bounds[2] == bounds[5] == post[component]


def test_paper_example_42(condensed):
    # Example 4.2: the cuboid for L(a) = [1,10] contains vertex e's point;
    # none of the three cuboids of c contains a spatial vertex.
    method = ThreeDReach(condensed)
    assert method.query(FIG1_INDEX["a"], FIG1_REGION) is True
    assert method.query(FIG1_INDEX["c"], FIG1_REGION) is False


def test_paper_example_43(condensed):
    # Example 4.3: the single slab query of the line-based variant.
    method = ThreeDReachRev(condensed)
    assert method.query(FIG1_INDEX["a"], FIG1_REGION) is True
    assert method.query(FIG1_INDEX["c"], FIG1_REGION) is False


def test_accepts_prebuilt_labelings(condensed):
    fwd = build_labeling(condensed.dag)
    rev = build_reversed_labeling(condensed.dag)
    assert ThreeDReach(condensed, labeling=fwd).labeling is fwd
    assert ThreeDReachRev(condensed, labeling=rev).labeling is rev


def test_invalid_scc_mode(condensed):
    with pytest.raises(ValueError):
        ThreeDReach(condensed, scc_mode="banana")
    with pytest.raises(ValueError):
        ThreeDReachRev(condensed, scc_mode="banana")


def test_names(condensed):
    assert ThreeDReach(condensed).name == "3dreach"
    assert ThreeDReach(condensed, scc_mode="mbr").name == "3dreach-mbr"
    assert ThreeDReachRev(condensed).name == "3dreach-rev"
    assert ThreeDReachRev(condensed, scc_mode="mbr").name == "3dreach-rev-mbr"


def test_query_outside_space(condensed):
    far = Rect(1000, 1000, 1001, 1001)
    assert ThreeDReach(condensed).query(FIG1_INDEX["a"], far) is False
    assert ThreeDReachRev(condensed).query(FIG1_INDEX["a"], far) is False


def test_rev_size_independent_of_scc_mode(condensed):
    # Segments and boxes occupy the same space (as the paper observes for
    # Boost's R-tree).
    replicate = ThreeDReachRev(condensed)
    mbr = ThreeDReachRev(condensed, scc_mode="mbr")
    assert replicate.size_bytes() == mbr.size_bytes()


def test_mbr_variant_costs_more_for_3dreach(condensed):
    assert (
        ThreeDReach(condensed, scc_mode="mbr").size_bytes()
        > ThreeDReach(condensed).size_bytes()
    )
