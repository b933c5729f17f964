"""Shared protocol, base class and factory for RangeReach methods.

The unified query surface lives here:

* :class:`QueryRequest` / :class:`QueryResult` — the request/response
  dataclasses every query layer (method classes, the extended engine,
  the mutable store) speaks;
* :class:`RangeReachMethod` — the structural protocol (``query``,
  ``query_batch``, ``size_bytes``, ``name``);
* :class:`RangeReachBase` — the concrete base class all built-in methods
  inherit; it supplies a correct default ``query_batch`` loop, the
  distinct-pair batch helper the overriding methods share, the one
  build-context resolution every constructor uses, and the request-level
  ``execute`` / ``execute_many`` entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.geometry import Rect, as_rect
from repro.geosocial.network import GeosocialNetwork
from repro.geosocial.scc_handling import CondensedNetwork
from repro.kernels import resolve_backend
from repro.obs import instruments as _inst
from repro.obs.metrics import enabled as _obs_enabled
from repro.obs.trace import trace as _trace
from repro.obs.trace import tracing as _tracing
from repro.pipeline import BuildContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Trace


@dataclass(frozen=True, slots=True)
class QueryRequest:
    """One ``RangeReach(G, v, R)`` request: a query vertex and a region.

    The request form of the ``(v, region)`` pair every query layer
    accepts; :meth:`as_pair` converts to the tuple form the batch API
    uses.  ``region`` accepts either a :class:`Rect` or a plain
    ``(xlo, ylo, xhi, yhi)`` tuple/list (coerced on construction).
    """

    v: int
    region: Rect

    def __post_init__(self) -> None:
        object.__setattr__(self, "region", as_rect(self.region))

    def as_pair(self) -> tuple[int, Rect]:
        return (self.v, self.region)


@dataclass(frozen=True, slots=True)
class QueryResult:
    """The answer to one :class:`QueryRequest`.

    Attributes:
        answer: the boolean RangeReach answer.
        method: display name of the method/engine that served it.
        spans: the per-query span tree, when the request was executed
            with tracing (None otherwise).
    """

    answer: bool
    method: str
    spans: "Trace | None" = field(default=None, compare=False)


@runtime_checkable
class RangeReachMethod(Protocol):
    """A built index structure answering ``RangeReach(G, v, R)`` queries."""

    name: str

    def query(self, v: int, region: Rect) -> bool:
        """Return True iff original vertex ``v`` geosocially reaches ``region``."""
        ...

    def query_batch(self, pairs: Sequence[tuple[int, Rect]]) -> list[bool]:
        """Answer many ``(v, region)`` queries; aligned with the input."""
        ...

    def size_bytes(self) -> int:
        """Return the analytic index footprint in bytes (Table 4)."""
        ...


class RangeReachBase:
    """Concrete base class of the built-in RangeReach methods.

    Supplies the batched and request-level entry points on top of the
    subclass's ``query``:

    * :meth:`query_batch` — a correct default loop; SocReach, 3DReach,
      3DReach-Rev and SpaReach override it to evaluate each distinct
      work item once (:meth:`_batch_distinct`);
    * :meth:`execute` / :meth:`execute_many` — the
      :class:`QueryRequest`/:class:`QueryResult` protocol shared with
      :class:`~repro.system.database.GeosocialDatabase`.
    """

    name = "rangereach"

    #: Cross-method counters, bound by :meth:`_bind_counters`; the
    #: extended engine never binds them and so emits none.
    _m_queries = None

    def query(self, v: int, region: Rect) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_context(
        self,
        network: CondensedNetwork,
        context: BuildContext | None,
        kernels: str | None,
        labeling_key: tuple | None = None,
        labeling=None,
    ) -> BuildContext:
        """Return the one :class:`BuildContext` this method builds through.

        Also resolves ``self.kernels``.  An explicit ``labeling`` may not
        match any key of a shared context, so it is seeded under
        ``labeling_key`` into a private one — every artifact derived from
        it (R-tree, slabs, kernels) then comes off the same context path
        a context-built method takes.
        """
        if labeling is not None:
            context = BuildContext(network, kernels=kernels)
            context.seed_artifact(labeling_key, labeling)
        elif context is None:
            context = BuildContext(network, kernels=kernels)
        self.kernels = (
            context.kernels if kernels is None else resolve_backend(kernels)
        )
        return context

    def _build_forward(
        self,
        network: CondensedNetwork,
        labeling,
        mode: str,
        stride: int,
        context: BuildContext | None,
        kernels: str | None,
    ) -> tuple[BuildContext, int]:
        """:meth:`_build_context` for the forward-labeling methods.

        Sets ``self._labeling`` and returns the context with the stride
        to key further artifacts on: an explicit labeling carries its
        own, the ``stride`` keyword only steers context builds.
        """
        if labeling is not None:
            stride = labeling.stride
        context = self._build_context(
            network, context, kernels,
            ("labeling", "forward", mode, stride), labeling,
        )
        self._labeling = context.labeling(mode=mode, stride=stride)
        return context, stride

    def _bind_counters(self) -> None:
        """Resolve the four cross-method counters for ``self.name`` once,
        so the query path is a bound ``Counter.inc``."""
        self._m_queries = _inst.METHOD_QUERIES.labels(method=self.name)
        self._m_positives = _inst.METHOD_POSITIVES.labels(method=self.name)
        self._m_probes = _inst.METHOD_LABEL_PROBES.labels(method=self.name)
        self._m_verified = _inst.METHOD_CANDIDATES_VERIFIED.labels(
            method=self.name
        )

    def query_batch(self, pairs: Sequence[tuple[int, Rect]]) -> list[bool]:
        """Answer a batch of ``(v, region)`` pairs.

        The default implementation is the plain per-query loop — always
        correct, never faster.  An empty batch returns immediately
        without touching any index structure.
        """
        if not pairs:
            return []
        query = self.query
        return [query(v, region) for v, region in pairs]

    def _batch_distinct(
        self,
        pairs: Sequence[tuple[int, Rect]],
        evaluate: Callable[[int, Rect], bool],
        z_of: Callable[[int], float] | None = None,
    ) -> list[bool]:
        """Run ``evaluate(source, region)`` once per distinct pair.

        The answer is a pure function of ``(super-vertex, region)``, so
        duplicated queries reuse the memoized answer.  With ``z_of`` the
        distinct pairs run in ascending ``z_of(source)``: consecutive
        3-D probes then touch neighbouring post-order heights.  Answers
        come back aligned with ``pairs``.
        """
        super_of = self._network.super_of
        keys = [(super_of(v), region.as_tuple()) for v, region in pairs]
        unique: dict[tuple[int, tuple], Rect] = {}
        for key, (_, region) in zip(keys, pairs):
            unique.setdefault(key, region)
        order = (
            unique if z_of is None
            else sorted(unique, key=lambda key: z_of(key[0]))
        )
        memo = {key: evaluate(key[0], unique[key]) for key in order}
        answers = [memo[key] for key in keys]
        if self._m_queries is not None and _obs_enabled():
            # ``evaluate`` counted each distinct pair as one query; the
            # duplicates it spared are queries (and positives) too.
            self._m_queries.inc(len(keys) - len(memo))
            self._m_positives.inc(sum(answers) - sum(memo.values()))
        return answers

    # ------------------------------------------------------------------
    # Request-level protocol
    # ------------------------------------------------------------------
    def execute(self, request: QueryRequest, *, trace: bool = False) -> QueryResult:
        """Serve one :class:`QueryRequest` as a :class:`QueryResult`.

        With ``trace=True`` (and no trace already active on this thread)
        the result carries the query's span tree in ``spans``.
        """
        if trace and not _tracing():
            with _trace(f"{self.name}.execute") as spans:
                answer = self.query(request.v, request.region)
            return QueryResult(answer, self.name, spans)
        return QueryResult(self.query(request.v, request.region), self.name)

    def execute_many(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResult]:
        """Serve many requests as one :meth:`query_batch`."""
        answers = self.query_batch([request.as_pair() for request in requests])
        return [QueryResult(answer, self.name) for answer in answers]


# Factories take the condensed network plus keyword options and return a
# ready-to-query method.  The registry gives benchmarks and the CLI a
# single switchboard keyed by the names used in the paper's plots.
MethodFactory = Callable[..., RangeReachMethod]

METHOD_REGISTRY: dict[str, MethodFactory] = {}


def register_method(name: str) -> Callable[[MethodFactory], MethodFactory]:
    """Class decorator registering a method under its paper name."""

    def decorate(factory: MethodFactory) -> MethodFactory:
        METHOD_REGISTRY[name] = factory
        return factory

    return decorate


_BUILD_METHOD_DOC = """Instantiate a registered method by paper name.

    Known names: {names} (see :data:`METHOD_REGISTRY`).
    """


def _resolve_factory(name: str) -> MethodFactory:
    try:
        return METHOD_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(METHOD_REGISTRY))
        raise ValueError(f"unknown method {name!r}; known: {known}") from None


def build_method(name: str, network: CondensedNetwork, **options) -> RangeReachMethod:
    return _resolve_factory(name)(network, **options)


def build_methods(
    names: Iterable[str],
    network: GeosocialNetwork | CondensedNetwork | None = None,
    *,
    context: BuildContext | None = None,
    options: Mapping[str, Mapping] | None = None,
) -> dict[str, RangeReachMethod]:
    """Build several methods over ONE shared :class:`BuildContext`.

    Unlike N calls to :func:`build_method`, the condensation runs exactly
    once and each interval labeling at most once per distinct
    ``(direction, mode, stride)`` key; R-trees and spatial feeds are
    shared wherever two methods agree on their build parameters.

    Args:
        names: registered method names, in the order the result dict
            should iterate; duplicates are built once.
        network: the network to build over (raw or condensed).  Optional
            when ``context`` is given.
        context: an existing :class:`BuildContext` to build through.  When
            omitted, one is created from ``network``.
        options: per-method keyword options, keyed by method name (the
            same keywords :func:`build_method` accepts).

    Returns:
        Mapping of method name to built method, preserving input order.
    """
    names = list(dict.fromkeys(names))
    factories = {name: _resolve_factory(name) for name in names}
    if context is None:
        if network is None:
            raise ValueError("build_methods needs a network or a context")
        context = BuildContext(network)
    condensed = context.condensed()
    options = options or {}
    unknown = sorted(set(options) - set(names))
    if unknown:
        raise ValueError(
            f"options given for methods not being built: {', '.join(unknown)}"
        )
    return {
        name: factories[name](condensed, context=context, **options.get(name, {}))
        for name in names
    }


def sync_known_names_doc() -> None:
    """Regenerate :func:`build_method`'s docstring from the registry.

    Called once all built-in methods have registered (at the end of
    ``repro.core.__init__``) so the documented name list can never drift
    from :data:`METHOD_REGISTRY`.
    """
    names = ", ".join(f"``{name}``" for name in sorted(METHOD_REGISTRY))
    build_method.__doc__ = _BUILD_METHOD_DOC.format(names=names)


sync_known_names_doc()
