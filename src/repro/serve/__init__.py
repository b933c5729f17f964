"""Long-running network query service over a GeosocialDatabase.

Split by transport boundary:

* :mod:`repro.serve.service` — request semantics (admission control,
  query/batch/write handling, drain), no sockets;
* :mod:`repro.serve.http` — the stdlib ``ThreadingHTTPServer``
  front-end with graceful SIGTERM drain.
"""

from repro.serve.http import QueryHTTPServer, run_server, start_server
from repro.serve.service import (
    DEFAULT_MAX_INFLIGHT,
    BadRequestError,
    DrainingError,
    OverloadedError,
    QueryService,
    ServiceError,
    parse_region,
)

__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "BadRequestError",
    "DrainingError",
    "OverloadedError",
    "QueryHTTPServer",
    "QueryService",
    "ServiceError",
    "parse_region",
    "run_server",
    "start_server",
]
