"""Ablations around the interval labeling (not part of the paper's figures).

* **Construction mode** — the verbatim Algorithm 1 ("faithful") vs the
  equivalent near-linear "subtree" construction, on a reduced-size input
  (the faithful mode is quadratic by design).
* **Spanning-forest strategy** — the paper's future work asks about
  "optimal (e.g., shallow) spanning forests"; we compare child-visit
  orders by the compressed label count they induce.
"""

import pytest

from repro.bench import bench_datasets, format_table
from repro.bench.harness import get_condensed
from repro.datasets import make_network
from repro.geosocial import condense_network
from repro.graph.traversal import dfs_forest
from repro.labeling import build_labeling


def _dataset() -> str:
    datasets = bench_datasets()
    return "yelp" if "yelp" in datasets else datasets[0]


@pytest.mark.parametrize("mode", ["subtree", "faithful"])
def test_construction_mode(benchmark, mode):
    # The faithful mode is quadratic; use a deliberately tiny instance.
    network = make_network(_dataset(), scale=0.0002, seed=1)
    dag = condense_network(network).dag
    labeling = benchmark(build_labeling, dag, mode)
    assert labeling.num_vertices == dag.num_vertices


def test_construction_modes_agree_on_small_input():
    network = make_network(_dataset(), scale=0.0002, seed=1)
    dag = condense_network(network).dag
    assert (
        build_labeling(dag, "subtree").labels
        == build_labeling(dag, "faithful").labels
    )


@pytest.mark.parametrize("child_order", ["natural", "degree", "degree-asc"])
def test_forest_strategy(benchmark, child_order):
    dag = get_condensed(_dataset()).dag
    forest = dfs_forest(dag, child_order=child_order)
    labeling = benchmark.pedantic(
        lambda: build_labeling(dag, forest=forest), rounds=1, iterations=1
    )
    benchmark.extra_info["compressed_labels"] = labeling.stats().compressed_labels


def test_forest_strategy_report(benchmark, report):
    def sweep():
        dag = get_condensed(_dataset()).dag
        rows = []
        for child_order in ("natural", "degree", "degree-asc"):
            forest = dfs_forest(dag, child_order=child_order)
            stats = build_labeling(dag, forest=forest).stats()
            rows.append(
                [child_order, stats.uncompressed_labels, stats.compressed_labels]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        format_table(
            ["child order", "uncompressed", "compressed"],
            rows,
            title=(
                f"Ablation — spanning-forest strategy on {_dataset()} "
                "(label counts; future-work knob of Section 8)"
            ),
        )
    )


def test_post_stride_report(benchmark, report):
    """Gapped numbering (Section 4.1's update head-room) vs compression."""

    def sweep():
        dag = get_condensed(_dataset()).dag
        rows = []
        for stride in (1, 4, 16, 64):
            stats = build_labeling(dag, post_stride=stride).stats()
            rows.append(
                [stride, stats.uncompressed_labels, stats.compressed_labels]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # gaps can only hurt compression
    compressed = [row[2] for row in rows]
    assert compressed == sorted(compressed)
    report(
        format_table(
            ["post stride", "uncompressed", "compressed"],
            rows,
            title=(
                f"Ablation — gapped post-order numbering on {_dataset()} "
                "(update head-room vs compression, Section 4.1)"
            ),
        )
    )
