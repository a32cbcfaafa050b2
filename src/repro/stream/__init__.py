"""Streaming subsystem: ingestion, selective invalidation, monitoring.

The serving-shaped layer on top of the batch engine:

* :mod:`repro.stream.ingest` — typed event batches
  (:class:`AddObject` / :class:`AddObservation` / :class:`RemoveObject`)
  applied through an :class:`ObservationStream`, reporting exactly which
  objects each batch touched;
* :mod:`repro.stream.scheduler` — standing :class:`Subscription`\\ s
  (fixed or :class:`SlidingWindow` time sets) and the
  :class:`SubscriptionScheduler` that proves which of them an ingest
  batch can affect (UST-tree filter stage, no sampling);
* :mod:`repro.stream.monitor` — the :class:`ContinuousMonitor` tick loop:
  ingest → schedule → one staged batch (``QueryEngine.stage``, then
  ``evaluate_staged``) over the held draw epoch → per-subscription delta
  :class:`Notification`\\ s.

Underneath, database mutations invalidate the engine's derived structures
*per object* (UST-tree segment re-indexing, world-cache
``invalidate_objects``, arena eviction) instead of wholesale — the reason
a tick costs one object's worth of work, not one database's.
"""

from .ingest import (
    AddObject,
    AddObservation,
    IngestResult,
    ObservationStream,
    RemoveObject,
    StreamEvent,
)
from .monitor import ContinuousMonitor, Notification, TickReport, results_equal
from .scheduler import (
    Decision,
    SlidingWindow,
    Subscription,
    SubscriptionScheduler,
)

__all__ = [
    "AddObject",
    "AddObservation",
    "ContinuousMonitor",
    "Decision",
    "IngestResult",
    "Notification",
    "ObservationStream",
    "RemoveObject",
    "SlidingWindow",
    "StreamEvent",
    "Subscription",
    "SubscriptionScheduler",
    "TickReport",
    "results_equal",
]
