"""Experiment definitions: one function per paper table/figure.

Each ``run_*`` function returns ``(title, headers, rows)`` ready for
:func:`repro.bench.tables.format_table`; the pytest benchmarks under
``benchmarks/`` call these.  Query times are reported in microseconds — the
paper's machine (C++, 5.8 GHz) is roughly two orders of magnitude faster
than CPython, so compare *ratios between methods*, not absolute values.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.harness import (
    PAPER_METHODS,
    bench_datasets,
    bench_num_queries,
    bench_scale,
    get_bundle,
    get_condensed,
    get_network,
    time_queries,
)
from repro.bench.tables import mb, us
from repro.labeling import build_labeling, build_reversed_labeling
from repro.workloads import (
    DEFAULT_DEGREE_BUCKETS,
    DEFAULT_EXTENTS,
    DEFAULT_SELECTIVITIES,
    QueryWorkload,
)

DEFAULT_EXTENT = 5.0
DEFAULT_BUCKET = DEFAULT_DEGREE_BUCKETS[2]

_WORKLOADS: dict[str, QueryWorkload] = {}


def get_workload(dataset: str) -> QueryWorkload:
    """Return the (cached) query workload generator for a dataset."""
    if dataset not in _WORKLOADS:
        _WORKLOADS[dataset] = QueryWorkload(get_network(dataset), seed=2)
    return _WORKLOADS[dataset]


def _bucket_label(bucket: tuple[int, int]) -> str:
    lo, hi = bucket
    return f"[{lo}-{'...' if hi >= 10**9 else hi}]"


# ----------------------------------------------------------------------
# Table 3 — dataset characteristics
# ----------------------------------------------------------------------
def run_table3(datasets: Sequence[str] | None = None):
    datasets = datasets or bench_datasets()
    headers = [
        "dataset", "#users", "#venues", "#checkins", "|V|", "|E|", "|P|",
        "#SCCs", "largest SCC",
    ]
    rows = []
    for name in datasets:
        s = get_network(name).stats()
        rows.append([
            name, s.num_users, s.num_venues, s.num_checkin_edges,
            s.num_vertices, s.num_edges, s.num_spatial, s.num_sccs,
            s.largest_scc,
        ])
    title = f"Table 3 — dataset characteristics (scale={bench_scale()})"
    return title, headers, rows


# ----------------------------------------------------------------------
# Tables 4 & 5 — index size / indexing time
# ----------------------------------------------------------------------
_T45_METHODS = ("spareach-bfl", "spareach-int", "georeach", "socreach",
                "3dreach", "3dreach-rev")
_MBR_VARIANTS = {
    "spareach-bfl": "spareach-bfl-mbr",
    "spareach-int": "spareach-int-mbr",
    "3dreach": "3dreach-mbr",
    "3dreach-rev": "3dreach-rev-mbr",
}


def _bundle_with_variants(dataset: str):
    names = list(_T45_METHODS) + list(_MBR_VARIANTS.values())
    return get_bundle(dataset, names)


def run_table4(datasets: Sequence[str] | None = None):
    datasets = datasets or bench_datasets()
    headers = ["dataset"] + list(_T45_METHODS)
    rows = []
    for name in datasets:
        bundle = _bundle_with_variants(name)
        row = [name]
        for method in _T45_METHODS:
            size = mb(bundle[method].size_bytes())
            if method in _MBR_VARIANTS:
                variant = mb(bundle[_MBR_VARIANTS[method]].size_bytes())
                row.append(f"{size:.2f} ({variant:.2f})")
            else:
                row.append(f"{size:.2f}")
        rows.append(row)
    title = (
        "Table 4 — index size [MB]; MBR-based SCC variant in parentheses "
        f"(scale={bench_scale()})"
    )
    return title, headers, rows


def run_table5(datasets: Sequence[str] | None = None):
    datasets = datasets or bench_datasets()
    headers = ["dataset"] + list(_T45_METHODS)
    rows = []
    for name in datasets:
        bundle = _bundle_with_variants(name)
        row = [name]
        for method in _T45_METHODS:
            seconds = bundle.build_seconds[method]
            if method in _MBR_VARIANTS:
                variant = bundle.build_seconds[_MBR_VARIANTS[method]]
                row.append(f"{seconds:.2f} ({variant:.2f})")
            else:
                row.append(f"{seconds:.2f}")
        rows.append(row)
    title = (
        "Table 5 — indexing time [s]; MBR-based SCC variant in parentheses "
        f"(scale={bench_scale()})"
    )
    return title, headers, rows


# ----------------------------------------------------------------------
# Table 6 — interval labeling statistics
# ----------------------------------------------------------------------
def run_table6(datasets: Sequence[str] | None = None):
    datasets = datasets or bench_datasets()
    headers = [
        "dataset",
        "fwd uncompressed", "fwd compressed",
        "rev uncompressed", "rev compressed",
    ]
    rows = []
    for name in datasets:
        dag = get_condensed(name).dag
        fwd = build_labeling(dag).stats()
        rev = build_reversed_labeling(dag).stats()
        rows.append([
            name,
            fwd.uncompressed_labels, fwd.compressed_labels,
            rev.uncompressed_labels, rev.compressed_labels,
        ])
    title = f"Table 6 — interval-labeling label counts (scale={bench_scale()})"
    return title, headers, rows


# ----------------------------------------------------------------------
# Figure helpers: query-time series
# ----------------------------------------------------------------------
def _series_by_extent(dataset: str, method_names: Sequence[str], extents, count):
    workload = get_workload(dataset)
    bundle = get_bundle(dataset, method_names)
    rows = []
    for extent in extents:
        batch = workload.batch_by_extent(extent, DEFAULT_BUCKET, count)
        row = [f"{extent:g}%"]
        for name in method_names:
            avg, _ = time_queries(bundle[name], batch)
            row.append(round(us(avg), 1))
        rows.append(row)
    return rows


def _series_by_degree(dataset: str, method_names: Sequence[str], buckets, count):
    workload = get_workload(dataset)
    bundle = get_bundle(dataset, method_names)
    rows = []
    for bucket in buckets:
        batch = workload.batch_by_extent(DEFAULT_EXTENT, bucket, count)
        row = [_bucket_label(bucket)]
        for name in method_names:
            avg, _ = time_queries(bundle[name], batch)
            row.append(round(us(avg), 1))
        rows.append(row)
    return rows


def _series_by_selectivity(dataset: str, method_names: Sequence[str], sels, count):
    workload = get_workload(dataset)
    bundle = get_bundle(dataset, method_names)
    rows = []
    for sel in sels:
        batch = workload.batch_by_selectivity(sel, DEFAULT_BUCKET, count)
        row = [f"{sel:g}%"]
        for name in method_names:
            avg, _ = time_queries(bundle[name], batch)
            row.append(round(us(avg), 1))
        rows.append(row)
    return rows


def _figure(dataset: str, method_names: Sequence[str], axes: Sequence[str], count: int):
    """Build the per-dataset rows of a query-time figure."""
    rows = []
    if "extent" in axes:
        rows.append(["-- vary region extent --"] + [""] * len(method_names))
        rows.extend(_series_by_extent(dataset, method_names, DEFAULT_EXTENTS, count))
    if "degree" in axes:
        rows.append(["-- vary vertex degree --"] + [""] * len(method_names))
        rows.extend(_series_by_degree(dataset, method_names, DEFAULT_DEGREE_BUCKETS, count))
    if "selectivity" in axes:
        rows.append(["-- vary selectivity --"] + [""] * len(method_names))
        rows.extend(
            _series_by_selectivity(dataset, method_names, DEFAULT_SELECTIVITIES, count)
        )
    return rows


# ----------------------------------------------------------------------
# Figure 5 — MBR vs non-MBR SCC handling (SpaReach-INT)
# ----------------------------------------------------------------------
def run_fig5(datasets: Sequence[str] | None = None, count: int | None = None):
    datasets = datasets or bench_datasets()
    count = count or bench_num_queries()
    methods = ("spareach-int", "spareach-int-mbr")
    headers = ["x"] + [f"{m} [us]" for m in methods]
    rows = []
    for name in datasets:
        rows.append([f"== {name} =="] + [""] * len(methods))
        rows.extend(_figure(name, methods, ("extent", "degree"), count))
    title = (
        "Figure 5 — SCC handling: replicate vs MBR variant of SpaReach-INT, "
        f"avg query time ({count} queries/point, scale={bench_scale()})"
    )
    return title, headers, rows


# ----------------------------------------------------------------------
# Figure 6 — best spatial-first method
# ----------------------------------------------------------------------
def run_fig6(datasets: Sequence[str] | None = None, count: int | None = None):
    datasets = datasets or bench_datasets()
    count = count or bench_num_queries()
    methods = ("spareach-bfl", "spareach-int")
    headers = ["x"] + [f"{m} [us]" for m in methods]
    rows = []
    for name in datasets:
        rows.append([f"== {name} =="] + [""] * len(methods))
        rows.extend(_figure(name, methods, ("extent", "degree", "selectivity"), count))
    title = (
        "Figure 6 — SpaReach-BFL vs SpaReach-INT, avg query time "
        f"({count} queries/point, scale={bench_scale()})"
    )
    return title, headers, rows


# ----------------------------------------------------------------------
# Figure 7 — all evaluation methods
# ----------------------------------------------------------------------
def run_fig7(datasets: Sequence[str] | None = None, count: int | None = None):
    datasets = datasets or bench_datasets()
    count = count or bench_num_queries()
    methods = PAPER_METHODS
    headers = ["x"] + [f"{m} [us]" for m in methods]
    rows = []
    for name in datasets:
        rows.append([f"== {name} =="] + [""] * len(methods))
        rows.extend(_figure(name, methods, ("extent", "degree", "selectivity"), count))
    title = (
        "Figure 7 — all methods, avg query time "
        f"({count} queries/point, scale={bench_scale()})"
    )
    return title, headers, rows


def chart_series(
    dataset: str,
    method_names: Sequence[str],
    axis: str = "extent",
    count: int | None = None,
):
    """Return ``(x_labels, {method: values})`` for one figure axis.

    Feeds :func:`repro.bench.ascii_chart.render_series`.
    """
    count = count or bench_num_queries()
    if axis == "extent":
        rows = _series_by_extent(dataset, method_names, DEFAULT_EXTENTS, count)
    elif axis == "degree":
        rows = _series_by_degree(dataset, method_names, DEFAULT_DEGREE_BUCKETS, count)
    elif axis == "selectivity":
        rows = _series_by_selectivity(
            dataset, method_names, DEFAULT_SELECTIVITIES, count
        )
    else:
        raise ValueError(
            "axis must be 'extent', 'degree' or 'selectivity'"
        )
    x_labels = [row[0] for row in rows]
    series = {
        name: [row[i + 1] for row in rows]
        for i, name in enumerate(method_names)
    }
    return x_labels, series
