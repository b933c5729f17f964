"""Differential-oracle harness: every numpy kernel vs its python twin.

The pure-python kernels are verbatim repackagings of the original inner
loops, so they are the behavioral oracle; the numpy kernels must agree
with them on *every* generated input — empty slabs and flat ranges,
degenerate zero-area rectangles, single-vertex SCCs, empty candidate
batches, and BFL filters small enough (8 bits) that the vectorized
rule-out leaves plenty of DFS-fallback survivors.  Parity is asserted at
three layers: the bare kernels, the five method classes plus the
extended engine, and the serving databases under a churn stream.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import FIG1_INDEX, FIG1_REGION, fig1_network
from kernel_helpers import (
    BACKEND_PAIR,
    apply_churn,
    churn_network,
    churn_ops,
    networks,
    region_on,
    regions,
)
from repro import obs
from repro.core import (
    GeoReach,
    GeosocialQueryEngine,
    SocReach,
    SpaReach,
    ThreeDReach,
    ThreeDReachRev,
)
from repro.geosocial import condense_network
from repro.kernels import (
    make_bfl_kernel,
    make_label_kernel,
    make_point_kernel,
    make_segment_kernel,
    make_slab_kernel,
    numpy_available,
    resolve_backend,
)
from repro.pipeline import BuildContext
from repro.reach.bfl import BflReach
from repro.shard import ShardedDatabase
from repro.system import GeosocialDatabase

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not importable"
)


# ----------------------------------------------------------------------
# Kernel-level parity
# ----------------------------------------------------------------------
@given(networks(), st.data())
@settings(max_examples=50, deadline=None)
def test_slab_kernel_parity(network, data):
    """any_in_flat / first_in_flat / any_in_zrange agree on every probe."""
    condensed = condense_network(network)
    context = BuildContext(condensed)
    stride = data.draw(st.integers(min_value=1, max_value=3))
    slabs = context.post_slabs(stride=stride)
    py = make_slab_kernel("python", slabs, stride)
    np_ = make_slab_kernel("numpy", slabs, stride)
    assert py.num_slots == np_.num_slots
    total = len(slabs.xs)
    for _ in range(6):
        region = data.draw(regions())
        # Flat probes, empty ranges (lo == hi) included.
        lo = data.draw(st.integers(min_value=0, max_value=total))
        hi = data.draw(st.integers(min_value=lo, max_value=total))
        assert py.any_in_flat(region, lo, hi) == np_.any_in_flat(
            region, lo, hi
        )
        assert py.first_in_flat(region, lo, hi) == np_.first_in_flat(
            region, lo, hi
        )
        # Cuboid sweeps, including labels covering no whole slot.
        zmax = condensed.num_components + 2
        zlo = data.draw(st.integers(min_value=0, max_value=zmax))
        zhi = data.draw(st.integers(min_value=zlo, max_value=zmax))
        assert py.slot_range(zlo, zhi) == np_.slot_range(zlo, zhi)
        assert py.any_in_zrange(region, zlo, zhi) == np_.any_in_zrange(
            region, zlo, zhi
        )


@given(networks(), st.data())
@settings(max_examples=50, deadline=None)
def test_point_kernel_parity(network, data):
    """Point probes and MBR verification agree for every component."""
    condensed = condense_network(network)
    context = BuildContext(condensed)
    columns = context.columns()
    py = make_point_kernel("python", columns)
    np_ = make_point_kernel("numpy", columns)
    total = len(columns.xs)
    for _ in range(4):
        region = data.draw(regions())
        lo = data.draw(st.integers(min_value=0, max_value=total))
        hi = data.draw(st.integers(min_value=lo, max_value=total))
        assert py.any_contained(region, lo, hi) == np_.any_contained(
            region, lo, hi
        )
        assert py.first_contained(region, lo, hi) == np_.first_contained(
            region, lo, hi
        )
        for component in range(condensed.num_components):
            assert py.component_hits_region(
                condensed, component, region
            ) == np_.component_hits_region(condensed, component, region)


@given(networks(), st.data())
@settings(max_examples=50, deadline=None)
def test_bfl_kernel_parity_with_dfs_fallback(network, data):
    """8-bit filters saturate fast, forcing the DFS-fallback path."""
    condensed = condense_network(network)
    bits = data.draw(st.sampled_from((8, 16, 256)))
    reach = BflReach(condensed.dag, filter_bits=bits, seed=3)
    py = make_bfl_kernel("python", reach)
    np_ = make_bfl_kernel("numpy", reach)
    n = condensed.num_components
    for _ in range(4):
        source = data.draw(st.integers(min_value=0, max_value=n - 1))
        targets = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=0,
                max_size=2 * n,
            )
        )
        assert py.reaches_many(source, targets) == np_.reaches_many(
            source, targets
        )
        assert py.any_reaches(source, targets) == np_.any_reaches(
            source, targets
        )


@given(networks(), st.data())
@settings(max_examples=50, deadline=None)
def test_label_kernel_parity(network, data):
    """covers_many agrees with scalar greach, empty batches included."""
    condensed = condense_network(network)
    context = BuildContext(condensed)
    labeling = context.labeling()
    py = make_label_kernel("python", labeling)
    np_ = make_label_kernel("numpy", labeling)
    n = condensed.num_components
    for _ in range(4):
        source = data.draw(st.integers(min_value=0, max_value=n - 1))
        targets = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=0,
                max_size=2 * n,
            )
        )
        assert py.covers_many(source, targets) == np_.covers_many(
            source, targets
        )


@given(networks(), st.data())
@settings(max_examples=50, deadline=None)
def test_segment_kernel_parity(network, data):
    """Slab-at-z sweeps agree, out-of-range z included."""
    condensed = condense_network(network)
    context = BuildContext(condensed)
    labeling = context.reversed_labeling()
    py = make_segment_kernel("python", condensed, labeling)
    np_ = make_segment_kernel("numpy", condensed, labeling)
    assert py.num_segments == np_.num_segments
    zmax = condensed.num_components + 2
    for _ in range(6):
        region = data.draw(regions())
        z = data.draw(st.integers(min_value=-1, max_value=zmax))
        assert py.any_at(region, z) == np_.any_at(region, z)


def test_empty_slab_columns():
    """A network with one isolated spatial vertex: minimal slabs, empty
    probes, and the degenerate rect sitting exactly on the point."""
    from repro.geometry import Point
    from repro.geosocial import GeosocialNetwork
    from repro.graph import DiGraph

    network = GeosocialNetwork(DiGraph(1), [Point(2.0, 3.0)])
    condensed = condense_network(network)
    context = BuildContext(condensed)
    slabs = context.post_slabs()
    for backend in BACKEND_PAIR:
        kernel = make_slab_kernel(backend, slabs, 1)
        hit = region_on(Point(2.0, 3.0))
        miss = region_on(Point(2.0, 3.5))
        assert kernel.any_in_flat(hit, 0, len(slabs.xs)) is True
        assert kernel.any_in_flat(miss, 0, len(slabs.xs)) is False
        assert kernel.any_in_flat(hit, 0, 0) is False
        assert kernel.first_in_flat(hit, 0, 0) == -1


# ----------------------------------------------------------------------
# Method-level parity (numpy vs python twins of every method class)
# ----------------------------------------------------------------------
def _method_pairs(condensed):
    """(name, python_instance, numpy_instance) for every method class."""
    builders = [
        ("socreach", lambda k: SocReach(condensed, kernels=k)),
        (
            "socreach-stride2",
            lambda k: SocReach(condensed, stride=2, kernels=k),
        ),
        ("georeach", lambda k: GeoReach(condensed, kernels=k)),
        ("spareach-bfl", lambda k: SpaReach(condensed, kernels=k)),
        (
            "spareach-mbr",
            lambda k: SpaReach(condensed, scc_mode="mbr", kernels=k),
        ),
        ("3dreach", lambda k: ThreeDReach(condensed, kernels=k)),
        (
            "3dreach-mbr",
            lambda k: ThreeDReach(condensed, scc_mode="mbr", kernels=k),
        ),
        ("3dreach-rev", lambda k: ThreeDReachRev(condensed, kernels=k)),
        (
            "3dreach-rev-mbr",
            lambda k: ThreeDReachRev(condensed, scc_mode="mbr", kernels=k),
        ),
        ("engine", lambda k: GeosocialQueryEngine(condensed, kernels=k)),
    ]
    return [
        (name, build("python"), build("numpy")) for name, build in builders
    ]


@given(networks(), st.data())
@settings(max_examples=25, deadline=None)
def test_methods_match_python_twin(network, data):
    condensed = condense_network(network)
    pairs = [
        (
            data.draw(
                st.integers(min_value=0, max_value=network.num_vertices - 1)
            ),
            data.draw(regions()),
        )
        for _ in range(6)
    ]
    for name, py, np_ in _method_pairs(condensed):
        assert py.kernels == "python" and np_.kernels == "numpy"
        for v, region in pairs:
            assert py.query(v, region) == np_.query(v, region), (
                f"{name} disagrees for vertex {v}, region {region}"
            )
        assert py.query_batch(pairs) == np_.query_batch(pairs), (
            f"{name} batch disagrees"
        )


# ----------------------------------------------------------------------
# The re-routed methods do identical *work* under both backends
# ----------------------------------------------------------------------
_INERT_BUILDERS = [
    lambda c, k: ThreeDReachRev(c, kernels=k),
    lambda c, k: ThreeDReachRev(c, scc_mode="mbr", kernels=k),
    lambda c, k: SpaReach(c, kernels=k),
    lambda c, k: SpaReach(c, scc_mode="mbr", kernels=k),
    lambda c, k: GeoReach(c, kernels=k),
]


def _assert_identical_work(condensed, pairs):
    """3DReach-Rev, SpaReach and GeoReach evaluate on the paper's
    structures whatever ``kernels=`` says: same answers, and the same
    counter deltas — R-tree, method and kernel-invocation tallies."""
    for build in _INERT_BUILDERS:
        outcomes = []
        for backend in BACKEND_PAIR:
            method = build(condensed, backend)
            assert method.kernels == backend
            with obs.measure() as delta:
                answers = [method.query(v, region) for v, region in pairs]
                answers.append(method.query_batch(pairs))
            outcomes.append((answers, delta))
        assert outcomes[0] == outcomes[1], method.name
        assert not any(
            key.startswith("repro_kernel_invocations_total")
            for key in outcomes[0][1]
        ), method.name


def test_inert_kernels_identical_work_fig1():
    condensed = condense_network(fig1_network())
    _assert_identical_work(
        condensed, [(FIG1_INDEX[n], FIG1_REGION) for n in "abcdefghijkl"]
    )


@given(networks(), st.data())
@settings(max_examples=25, deadline=None)
def test_inert_kernels_identical_work(network, data):
    pairs = [
        (
            data.draw(
                st.integers(min_value=0, max_value=network.num_vertices - 1)
            ),
            data.draw(regions()),
        )
        for _ in range(4)
    ]
    _assert_identical_work(condense_network(network), pairs)


@given(networks(), st.data())
@settings(max_examples=25, deadline=None)
def test_engine_reaches_many_parity(network, data):
    condensed = condense_network(network)
    py = GeosocialQueryEngine(condensed, kernels="python")
    np_ = GeosocialQueryEngine(condensed, kernels="numpy")
    n = network.num_vertices
    for _ in range(4):
        u = data.draw(st.integers(min_value=0, max_value=n - 1))
        targets = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=0,
                max_size=12,
            )
        )
        expected = [py.reaches(u, t) for t in targets]
        assert py.reaches_many(u, targets) == expected
        assert np_.reaches_many(u, targets) == expected


# ----------------------------------------------------------------------
# Database-level parity under churn (overlay + rebuild paths)
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2 ** 16), st.data())
@settings(max_examples=15, deadline=None)
def test_database_churn_parity(seed, data):
    """Both backends answer identically before, during, and after churn.

    A low refresh threshold makes the stream cross the rebuild boundary,
    so the overlay (frontier) path and the clean-snapshot path both run.
    """
    network = churn_network(seed, n=30, edges=60)
    py = GeosocialDatabase.from_network(
        network, refresh_threshold=8, kernels="python"
    )
    np_ = GeosocialDatabase.from_network(
        network, refresh_threshold=8, kernels="numpy"
    )
    n = network.num_vertices
    queries = [
        (
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(regions()),
        )
        for _ in range(8)
    ]
    assert py.range_reach_many(queries) == np_.range_reach_many(queries)
    ops = data.draw(churn_ops(n))
    apply_churn((py, np_), ops)
    assert py.range_reach_many(queries) == np_.range_reach_many(queries)
    for _ in range(3):
        u = data.draw(st.integers(min_value=0, max_value=n - 1))
        targets = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=0,
                max_size=8,
            )
        )
        expected = [py.reaches(u, t) for t in targets]
        assert py.reaches_many(u, targets) == expected
        assert np_.reaches_many(u, targets) == expected


@given(st.integers(min_value=0, max_value=2 ** 16), st.data())
@settings(max_examples=10, deadline=None)
def test_sharded_database_parity(seed, data):
    """Scatter-gather answers match across backends and the monolith."""
    network = churn_network(seed, n=40, edges=90)
    mono = GeosocialDatabase.from_network(network, kernels="python")
    shard_py = ShardedDatabase.from_network(
        network, shards=3, kernels="python"
    )
    shard_np = ShardedDatabase.from_network(network, shards=3, kernels="numpy")
    assert shard_py.kernels == "python" and shard_np.kernels == "numpy"
    n = network.num_vertices
    queries = [
        (
            data.draw(st.integers(min_value=0, max_value=n - 1)),
            data.draw(regions()),
        )
        for _ in range(8)
    ]
    expected = mono.range_reach_many(queries)
    assert shard_py.range_reach_many(queries) == expected
    assert shard_np.range_reach_many(queries) == expected
    # Both planners issued (and counted) the same boundary probes.
    assert (
        shard_py.stats()["scatter"]["boundary_probes"]
        == shard_np.stats()["scatter"]["boundary_probes"]
    )


# ----------------------------------------------------------------------
# Batched / deadline / overlay smoke under each backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_PAIR)
def test_deadline_batch_and_overlay_paths(backend):
    import random

    from repro.geometry import Rect

    network = churn_network(99, n=50, edges=120)
    kinds = list(network.kinds)
    database = GeosocialDatabase.from_network(
        network, refresh_threshold=4, kernels=backend
    )
    assert database.kernels == backend
    assert database.stats()["kernels"] == backend
    rng = random.Random(5)
    n = network.num_vertices
    queries = [
        (rng.randrange(n), Rect(0.0, 0.0, rng.uniform(1, 9), rng.uniform(1, 9)))
        for _ in range(32)
    ]
    sequential = database.range_reach_many(queries)
    assert database.range_reach_many(queries, timeout=60.0) == sequential
    # Push the database into overlay mode and query through it again.
    users = [v for v in range(n) if kinds[v] == "user"]
    venues = [v for v in range(n) if kinds[v] == "venue"]
    database.add_checkin(users[0], venues[0])
    overlay = database.range_reach_many(queries)
    database.refresh()
    assert database.range_reach_many(queries) == overlay


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("fortran")


def test_resolve_backend_env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "python")
    assert resolve_backend(None) == "python"
    monkeypatch.setenv("REPRO_KERNELS", "NumPy")
    assert resolve_backend(None) == "numpy"
    monkeypatch.setenv("REPRO_KERNELS", "bogus")
    with pytest.raises(ValueError, match="REPRO_KERNELS"):
        resolve_backend(None)
    # An explicit argument wins over the environment.
    monkeypatch.setenv("REPRO_KERNELS", "python")
    assert resolve_backend("numpy") == "numpy"


def test_context_rejects_unknown_backend():
    network = churn_network(1, n=10, edges=10)
    condensed = condense_network(network)
    with pytest.raises(ValueError, match="unknown kernel backend"):
        BuildContext(condensed, kernels="cython")
