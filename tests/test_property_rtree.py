"""Property-based tests for the R-tree."""

from hypothesis import given, settings, strategies as st

from repro.spatial import LinearScanIndex, RTree

coordinate = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)


@st.composite
def boxes2d(draw):
    x1, x2 = sorted((draw(coordinate), draw(coordinate)))
    y1, y2 = sorted((draw(coordinate), draw(coordinate)))
    return (x1, y1, x2, y2)


points2d = st.tuples(coordinate, coordinate)


@given(st.lists(points2d, max_size=80), boxes2d())
@settings(max_examples=60, deadline=None)
def test_bulk_loaded_point_query_matches_linear_scan(points, query):
    entries = [((x, y, x, y), i) for i, (x, y) in enumerate(points)]
    tree = RTree.bulk_load(entries, dims=2, capacity=4)
    reference = LinearScanIndex.bulk_load(entries, dims=2)
    assert sorted(tree.search_all(query)) == sorted(reference.search_all(query))


@given(st.lists(points2d, min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_every_item_findable_by_its_own_bounds(points):
    entries = [((x, y, x, y), i) for i, (x, y) in enumerate(points)]
    tree = RTree.bulk_load(entries, dims=2, capacity=4)
    for (x, y), i in zip(points, range(len(points))):
        assert i in tree.search_all((x, y, x, y))


@given(st.lists(points2d, max_size=60), boxes2d())
@settings(max_examples=40, deadline=None)
def test_any_intersecting_consistent_with_search(points, query):
    entries = [((x, y, x, y), i) for i, (x, y) in enumerate(points)]
    tree = RTree.bulk_load(entries, dims=2, capacity=4)
    hit = tree.any_intersecting(query)
    results = tree.search_all(query)
    if results:
        assert hit in results
    else:
        assert hit is None


@given(st.lists(st.tuples(coordinate, coordinate, coordinate), max_size=60))
@settings(max_examples=30, deadline=None)
def test_3d_trees_work(points):
    entries = [((x, y, z, x, y, z), i) for i, (x, y, z) in enumerate(points)]
    tree = RTree.bulk_load(entries, dims=3, capacity=4)
    tree.check_invariants()
    assert tree.count_intersecting((-100, -100, -100, 100, 100, 100)) == len(points)


# Coordinates on a coarse grid make zero-extent, touching and identical
# boxes common; the float draws keep general positions in the mix.
grid_coordinate = st.one_of(
    st.integers(min_value=0, max_value=6).map(float),
    st.floats(min_value=0, max_value=6, allow_nan=False, allow_infinity=False),
)


@st.composite
def box_workloads(draw):
    """``(dims, capacity, entries, queries)`` with duplicate-bbox entries."""
    dims = draw(st.sampled_from([2, 3]))

    def box():
        lows, highs = [], []
        for _ in range(dims):
            lo, hi = sorted((draw(grid_coordinate), draw(grid_coordinate)))
            lows.append(lo)
            highs.append(hi)
        return tuple(lows + highs)

    boxes = [box() for _ in range(draw(st.integers(0, 60)))]
    if boxes:  # the same bbox again under a new item id
        boxes += draw(st.lists(st.sampled_from(boxes), max_size=10))
    queries = [box() for _ in range(draw(st.integers(1, 5)))]
    capacity = draw(st.sampled_from([2, 3, 4, 16]))
    return dims, capacity, list(zip(boxes, range(len(boxes)))), queries


@given(box_workloads())
@settings(max_examples=80, deadline=None)
def test_bulk_loaded_boxes_match_linear_scan(workload):
    dims, capacity, entries, queries = workload
    tree = RTree.bulk_load(entries, dims=dims, capacity=capacity)
    tree.check_invariants()
    reloaded = RTree.from_flat(**tree.flatten())
    reloaded.check_invariants()
    reference = LinearScanIndex.bulk_load(entries, dims=dims)
    assert len(tree) == len(reloaded) == len(entries)
    for query in queries:
        expected = sorted(reference.search_all(query))
        assert sorted(tree.search_all(query)) == expected
        assert list(reloaded.search(query)) == list(tree.search(query))
