"""Shared test utilities: the paper's running example and random inputs."""

from __future__ import annotations

import random

from repro.geometry import Point, Rect
from repro.geosocial import GeosocialNetwork
from repro.graph import DiGraph

# ----------------------------------------------------------------------
# The paper's running example (Figure 1 / Figure 3 / Table 1)
# ----------------------------------------------------------------------
FIG1_NAMES = list("abcdefghijkl")
FIG1_INDEX = {name: i for i, name in enumerate(FIG1_NAMES)}

# Edges of the geosocial network in Figure 1, reconstructed from the
# spanning forest (Figure 3: tree edges a->b,d,j; b->e,l; e->f; j->g,h;
# c->i,k) and the non-spanning edges listed in Example 3.2
# ((l,h), (b,d), (g,i), (i,f), (c,d)).
FIG1_EDGES = [
    ("a", "b"), ("a", "d"), ("a", "j"),
    ("b", "e"), ("b", "l"), ("b", "d"),
    ("e", "f"),
    ("l", "h"),
    ("j", "g"), ("j", "h"),
    ("g", "i"), ("i", "f"),
    ("c", "i"), ("c", "k"), ("c", "d"),
]

# Spatial vertices of Figure 1; e and h lie inside the query region R,
# the others outside.
FIG1_POINTS = {
    "e": Point(4.0, 6.0),
    "h": Point(5.0, 5.0),
    "f": Point(1.0, 1.0),
    "g": Point(8.0, 2.0),
    "i": Point(9.0, 8.0),
    "l": Point(2.0, 9.0),
}

FIG1_REGION = Rect(3.5, 4.5, 6.0, 7.0)

# The paper's spanning forest (Figure 3) with its post-order numbers
# (Table 1): parent relation and post(.) per vertex name.
FIG1_FOREST_PARENT = {
    "a": None, "b": "a", "d": "a", "j": "a",
    "e": "b", "l": "b", "f": "e", "g": "j", "h": "j",
    "c": None, "i": "c", "k": "c",
}
FIG1_POST = {
    "f": 1, "e": 2, "l": 3, "b": 4, "d": 5, "g": 6,
    "h": 7, "j": 8, "a": 9, "i": 10, "k": 11, "c": 12,
}

# Final compressed labels from Table 1 (the 'final' column), derived from
# the reachable sets: L(v) canonically covers {post(u) : v reaches u}.
FIG1_FINAL_LABELS = {
    "a": [(1, 10)],
    "b": [(1, 5), (7, 7)],
    "c": [(1, 1), (5, 5), (10, 12)],
    "d": [(5, 5)],
    "e": [(1, 2)],
    "f": [(1, 1)],
    "g": [(1, 1), (6, 6), (10, 10)],
    "h": [(7, 7)],
    "i": [(1, 1), (10, 10)],
    "j": [(1, 1), (6, 8), (10, 10)],
    "k": [(11, 11)],
    "l": [(3, 3), (7, 7)],
}


def fig1_graph() -> DiGraph:
    """Return the directed graph of the paper's Figure 1."""
    edges = [(FIG1_INDEX[s], FIG1_INDEX[t]) for s, t in FIG1_EDGES]
    return DiGraph.from_edges(len(FIG1_NAMES), edges)


def fig1_network() -> GeosocialNetwork:
    """Return the geosocial network of the paper's Figure 1."""
    points = [FIG1_POINTS.get(name) for name in FIG1_NAMES]
    return GeosocialNetwork(fig1_graph(), points, name="fig1")


# ----------------------------------------------------------------------
# Random inputs
# ----------------------------------------------------------------------
def random_dag(
    rng: random.Random, num_vertices: int, edge_probability: float = 0.15
) -> DiGraph:
    """Return a random DAG (edges only from lower to higher id)."""
    graph = DiGraph(num_vertices)
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < edge_probability:
                graph.add_edge(u, v)
    return graph


def random_digraph(
    rng: random.Random, num_vertices: int, num_edges: int
) -> DiGraph:
    """Return a random directed graph (cycles allowed, no self-loops)."""
    graph = DiGraph(num_vertices)
    seen: set[tuple[int, int]] = set()
    for _ in range(num_edges):
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            graph.add_edge(u, v)
    return graph


def random_geosocial_network(
    rng: random.Random,
    num_vertices: int = 40,
    num_edges: int = 90,
    spatial_fraction: float = 0.5,
) -> GeosocialNetwork:
    """Return a random geosocial network (may contain spatial SCCs).

    Unlike the dataset generators, spatial vertices here can have
    outgoing edges, so strongly connected components can contain points —
    exercising the Section 5 machinery.
    """
    graph = random_digraph(rng, num_vertices, num_edges)
    points: list[Point | None] = [
        Point(rng.random(), rng.random())
        if rng.random() < spatial_fraction
        else None
        for _ in range(num_vertices)
    ]
    if not any(p is not None for p in points):
        points[rng.randrange(num_vertices)] = Point(rng.random(), rng.random())
    return GeosocialNetwork(graph, points, name="random")


def random_region(rng: random.Random) -> Rect:
    """Return a random rectangle inside the unit square."""
    x1, x2 = sorted((rng.random(), rng.random()))
    y1, y2 = sorted((rng.random(), rng.random()))
    return Rect(x1, y1, x2, y2)


# ----------------------------------------------------------------------
# Timed-out database batches
# ----------------------------------------------------------------------
def weeplaces_batch(count: int = 60, seed: int = 7):
    """A small weeplaces replica and ``count`` user queries whose regions
    span a tenth of each side of SPACE (a mix of True and False)."""
    from repro.datasets import make_network

    network = make_network("weeplaces", scale=0.0005, seed=3)
    space = network.space()
    width = (space.xhi - space.xlo) * 0.1
    height = (space.yhi - space.ylo) * 0.1
    rng = random.Random(seed)
    users = [v for v in range(network.num_vertices) if network.kinds[v] == "user"]
    pairs = []
    for _ in range(count):
        x = rng.uniform(space.xlo, space.xhi - width)
        y = rng.uniform(space.ylo, space.yhi - height)
        pairs.append((rng.choice(users), Rect(x, y, x + width, y + height)))
    return network, users, pairs


def stall_second_call(batch, seconds: float):
    """Wrap a ``query_batch`` callable so its second call sleeps first:
    a deadline shorter than ``seconds`` then expires after two chunks."""
    import time

    calls = []

    def stalled(chunk):
        calls.append(len(chunk))
        if len(calls) == 2:
            time.sleep(seconds)
        return batch(chunk)

    return stalled
