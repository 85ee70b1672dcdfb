"""Async batched inference service over compressed model archives.

The serving story completes the compression pipeline: the paper's
archives are the *deployable* artifact, and this package answers "what
does inference against one look like under concurrent load?"  The
pieces, in request order:

* :class:`~repro.serve.service.InferenceService` — asyncio front door:
  bounded admission, micro-batching, per-request deadlines, typed
  degraded replies (:mod:`~repro.serve.replies`);
* :class:`~repro.serve.model.ServedModel` — a
  :class:`~repro.core.model_store.ModelArchive` wired onto the fused
  streamed-decode forward path;
* :class:`~repro.serve.cache.DecodedWeightCache` — bounded LRU of
  decoded weight arrays, content-addressed and shared across requests;
* :mod:`~repro.serve.server` — a JSON-lines TCP transport for the demo
  (``python -m repro.serve``);
* :class:`~repro.serve.fleet.ReplicaFleet` — N supervised worker
  processes behind one typed ``submit``: health probes, crash/hang
  detection, capped-jittered-backoff restarts
  (:mod:`~repro.serve.supervisor`), and retry routing with
  per-replica circuit breakers (:mod:`~repro.serve.router`).

Guarantees worth naming: every request gets exactly one typed reply
(shed and expired requests get errors, never silence), batched outputs
are bit-identical to serial execution of the same requests, and a
replica crash, hang, or damaged archive degrades the fleet instead of
taking the endpoint down (a damaged archive serves under an
``on_fault`` policy with its damage report attached to every ``Ok``).
"""

from .cache import DecodedWeightCache
from .fleet import FleetConfig, ReplicaFleet, ReplicaSpec
from .model import ServedModel, decoded_weight_key
from .replies import DeadlineExceeded, Failed, Ok, Overloaded, Reply
from .router import CircuitBreaker, FleetRouter, ReplicaClient
from .service import InferenceService, ServeConfig
from .supervisor import ReplicaSupervisor

__all__ = [
    "DecodedWeightCache",
    "ServedModel",
    "decoded_weight_key",
    "Reply",
    "Ok",
    "Overloaded",
    "DeadlineExceeded",
    "Failed",
    "InferenceService",
    "ServeConfig",
    "ReplicaSpec",
    "FleetConfig",
    "ReplicaFleet",
    "ReplicaSupervisor",
    "FleetRouter",
    "ReplicaClient",
    "CircuitBreaker",
]
