"""The monitor tick that draws per evaluation: the world pass's twin.

A tick's world pass (``ContinuousMonitor`` → ``QueryEngine.stage`` with
the due requests) draws in one batch exactly the worlds the due
evaluations would otherwise draw one request at a time.  The twin keeps
that older shape: its engine predicts no request's fill job, so a tick's
stage warms only the dirty objects some due subscription was influenced
by last tick and fills no block, and each evaluation adapts, compiles
and samples its own newcomers.  The two must notify byte-equal payloads, tick by tick.
"""

from __future__ import annotations

from repro.core.evaluator import QueryEngine
from repro.stream.monitor import ContinuousMonitor


class PerRequestEngine(QueryEngine):
    """A ``QueryEngine`` whose requests name no worlds ahead of evaluation."""

    def _fill_job(self, request, plan):
        return None


def per_request_monitor(db, **engine_kwargs) -> ContinuousMonitor:
    """A monitor over ``db`` whose due evaluations draw for themselves."""
    return ContinuousMonitor(PerRequestEngine(db, **engine_kwargs))
