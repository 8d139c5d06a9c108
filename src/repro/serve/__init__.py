"""Long-running inference service around a persisted detector.

The :mod:`repro.serve` subsystem turns ``.npz`` detector archives
(:mod:`repro.core.persist`) into an observable network service:

- :mod:`repro.serve.metrics` — Prometheus-style counters, gauges and
  latency histograms, reusable by the core detector;
- :mod:`repro.serve.registry` — named model versions with hot-reload on
  file change;
- :mod:`repro.serve.batching` — a bounded micro-batching queue that
  coalesces clip-prediction requests with backpressure and timeouts;
- :mod:`repro.serve.service` — the transport-independent service facade;
- :mod:`repro.serve.httpd` — the HTTP front end (``POST /v1/predict``,
  ``POST /v1/scan``, ``GET /v1/models``, ``GET /healthz``,
  ``GET /metrics``), one app on the fleet's stdlib HTTP server
  (:class:`~repro.fleet.protocol.FleetHTTPServer`);
- :mod:`repro.serve.client` — :class:`ServeClient`, the Python client
  used by the tests, the CLI and the throughput benchmark; it sends
  through the fleet's :class:`~repro.fleet.protocol.FleetClient`.

Everything here is standard library + numpy; there is no new dependency.
"""

import importlib

from repro.serve.batching import BatchingConfig, MicroBatcher
from repro.serve.metrics import MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.serve.service import ServeService

#: Names loaded on first use.  The front end and the client run on
#: repro.fleet's HTTP stack, and repro.fleet imports repro.serve.metrics,
#: so importing this package must not import repro.fleet.
_LAZY = {
    "HotspotServer": "repro.serve.httpd",
    "ServerConfig": "repro.serve.httpd",
    "ServeClient": "repro.serve.client",
    "ServeClientError": "repro.serve.client",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)


__all__ = [
    "BatchingConfig",
    "HotspotServer",
    "MetricsRegistry",
    "MicroBatcher",
    "ModelRegistry",
    "ServeClient",
    "ServeClientError",
    "ServeService",
    "ServerConfig",
]
