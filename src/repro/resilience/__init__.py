"""Fault injection and resilience for the compressed-weight path.

The system's premise is that weights live and travel in compressed form
(main memory -> NoC -> on-PE decompression), so a single corrupted
⟨m, q, len⟩ segment silently poisons an entire regenerated
sub-succession — an error-amplification property this package makes
measurable and defensible:

* :mod:`~repro.resilience.inject` — deterministic, seeded fault
  injectors: bit flips in payloads and raw weight streams, and
  crash/hang/kill injectors for runtime pool workers;
* :mod:`~repro.resilience.degrade` — graceful-degradation decode:
  salvage the undamaged frames of a corrupted line-fit payload and
  zero-fill the rest, instead of losing the whole layer;
* :mod:`~repro.resilience.chaos` — chaos campaigns against a serving
  fleet: kill/hang replicas and bit-flip archive files under live load,
  measuring availability, typed-reply coverage, and recovery time.

The measurement side is ``python -m repro.experiments
fig_fault_campaign`` (bit-error rate x delta, compressed vs raw
storage).  Error types live in :mod:`repro.core.errors`
(``CodecError`` > ``IntegrityError`` / ``FaultError``).
"""

from ..core.errors import CodecError, FaultError, IntegrityError
from .chaos import (
    ChaosEvent,
    ChaosResult,
    corrupt_archive,
    hang_replica,
    kill_replica,
    run_campaign,
)
from .degrade import DamageReport, decode_degraded
from .inject import (
    BitFlipInjector,
    crash,
    crash_once,
    digest,
    hang_once,
    kill_once,
)

__all__ = [
    "CodecError",
    "IntegrityError",
    "FaultError",
    "BitFlipInjector",
    "digest",
    "crash",
    "crash_once",
    "hang_once",
    "kill_once",
    "DamageReport",
    "decode_degraded",
    "ChaosEvent",
    "ChaosResult",
    "kill_replica",
    "hang_replica",
    "corrupt_archive",
    "run_campaign",
]
