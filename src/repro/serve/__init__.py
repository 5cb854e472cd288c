"""``repro.serve`` — the long-lived query-serving layer.

Register a Portal problem once (warming the compile and reference-tree
caches), then submit point queries against the handle; concurrent
compatible requests are coalesced into one batched traversal.  See
``docs/serving.md``.

* :mod:`~repro.serve.service` — :class:`PortalService` (asyncio facade)
  and :class:`ServeProgram` (re-instantiable problem template);
* :mod:`~repro.serve.coalesce` — the cross-request :class:`Coalescer`;
* :mod:`~repro.serve.admission` — :class:`AdmissionConfig` bounds and
  the typed :class:`ServiceOverloaded` load-shed error;
* :mod:`~repro.serve.frontend` — newline-delimited JSON over TCP
  (stdlib asyncio streams), ``python -m repro serve``.
"""

from .admission import AdmissionConfig, ServeError, ServiceOverloaded
from .coalesce import BatchResult, Coalescer, ServeResult
from .frontend import ServeFrontend
from .service import PortalService, ServeProgram

__all__ = [
    "AdmissionConfig", "BatchResult", "Coalescer", "PortalService",
    "ServeError", "ServeFrontend", "ServeProgram", "ServeResult",
    "ServiceOverloaded",
]
