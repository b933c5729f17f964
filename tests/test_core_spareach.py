"""Unit tests for repro.core.spareach specifics."""

import pytest

from helpers import FIG1_INDEX, FIG1_REGION, fig1_network
from repro.core import SocReach, SpaReach
from repro.geosocial import condense_network


@pytest.fixture
def condensed():
    return condense_network(fig1_network())


def test_unknown_reach_index_rejected(condensed):
    with pytest.raises(ValueError, match="unknown reachability index"):
        SpaReach(condensed, reach_index="nope")
    # Only the paper's two variants remain; the error names both.
    with pytest.raises(ValueError, match="bfl, interval"):
        SpaReach(condensed, reach_index="pll")
    with pytest.raises(TypeError):
        SpaReach(condensed, streaming=True)
    with pytest.raises(TypeError):
        SpaReach(condensed, spatial_index="rtree")
    with pytest.raises(TypeError):
        SocReach(condensed, descendant_access="array")


def test_unknown_scc_mode_rejected(condensed):
    with pytest.raises(ValueError, match="scc_mode"):
        SpaReach(condensed, scc_mode="banana")


def test_name_reflects_configuration(condensed):
    assert SpaReach(condensed, "bfl").name == "spareach-bfl"
    assert SpaReach(condensed, "interval").name == "spareach-interval"
    assert SpaReach(condensed, "bfl", scc_mode="mbr").name == "spareach-bfl-mbr"


def test_rtree_indexes_all_spatial_vertices(condensed):
    method = SpaReach(condensed)
    assert len(method.rtree) == 6


def test_mbr_mode_indexes_components(condensed):
    method = SpaReach(condensed, scc_mode="mbr")
    # fig1 is a DAG: every spatial vertex is its own component
    assert len(method.rtree) == 6


def test_size_accounts_for_reach_index(condensed):
    bfl = SpaReach(condensed, "bfl")
    interval = SpaReach(condensed, "interval")
    # BFL stores two 256-bit filters per vertex: strictly bigger here.
    assert bfl.size_bytes() > interval.size_bytes()


def test_mbr_variant_not_smaller(condensed):
    point_based = SpaReach(condensed, "interval")
    mbr_based = SpaReach(condensed, "interval", scc_mode="mbr")
    assert mbr_based.size_bytes() >= point_based.size_bytes()
