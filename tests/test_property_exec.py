"""Property-based parity: deadline-checked batches equal the oracle.

Hypothesis generates arbitrary (possibly cyclic) geosocial networks plus
batches of (vertex, region) queries with deliberate region reuse, and a
random deadline.  For every method, the per-query ``query()`` loop, one
``query_batch`` call and :func:`repro.exec.run_batch` must agree with
the BFS oracle: ``run_batch`` either answers the whole batch or raises
:class:`BatchTimeoutError` whose answers are an exact prefix.  Runs with
observability both off and on (counter flushes and trace state must
never perturb answers).
"""

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import RangeReachOracle, build_methods
from repro.exec import BatchTimeoutError, run_batch
from repro.geosocial import condense_network
from repro.pipeline import BuildContext
from tests.test_property_methods import networks, regions

_NAMES = ("spareach-bfl", "georeach", "socreach", "3dreach", "3dreach-rev")

#: Deadlines from "expires before the first chunk" to "never expires".
deadlines = st.one_of(
    st.none(), st.floats(min_value=1e-9, max_value=1e-3), st.just(60.0)
)


@st.composite
def batches(draw, network, max_queries=12):
    """A query batch with region reuse: few distinct regions, many pairs."""
    n_regions = draw(st.integers(min_value=1, max_value=3))
    distinct = [draw(regions()) for _ in range(n_regions)]
    n_queries = draw(st.integers(min_value=0, max_value=max_queries))
    vertex = st.integers(min_value=0, max_value=network.num_vertices - 1)
    return [
        (draw(vertex), distinct[draw(st.integers(0, n_regions - 1))])
        for _ in range(n_queries)
    ]


@given(networks(), st.data(), st.booleans(), deadlines)
@settings(max_examples=25, deadline=None)
def test_deadline_batches_match_oracle(network, data, observe, timeout):
    oracle = RangeReachOracle(network)
    condensed = condense_network(network)
    methods = build_methods(_NAMES, context=BuildContext(condensed))
    pairs = data.draw(batches(network))
    expected = [oracle.query(v, region) for v, region in pairs]
    with obs.observability(observe):
        for name, method in methods.items():
            loop = [method.query(v, region) for v, region in pairs]
            assert loop == expected, name
            assert method.query_batch(pairs) == expected, name
            try:
                answers = run_batch(method.query_batch, pairs, timeout)
            except BatchTimeoutError as exc:
                assert timeout is not None and timeout < 1.0, name
                assert exc.completed < exc.total, name
                assert exc.answers == expected[: len(exc.answers)], name
            else:
                assert answers == expected, name
