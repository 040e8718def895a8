"""Sweep service: persistent job broker + asyncio HTTP front-end.

Cell execution is not here: the lease-guarded work unit
(:func:`repro.sim.sweep.run_cell`) and the dispatch core that windows,
dedups and retries cells (:class:`repro.sim.sweep.CellDispatcher`) are
the ones in-process grids use. This package adds what outlives one
call:

- :mod:`repro.service.broker` — turns submitted grids into jobs on a
  shared dispatcher: job threads, cancel, resume, per-job events.
- :mod:`repro.service.jobs` — job states, status records, persistence,
  and the :class:`JobHandle` surface front-ends hand back.
- :mod:`repro.service.http` — stdlib-asyncio HTTP/JSON endpoints.
- :mod:`repro.service.client` — blocking ``http.client`` consumer of
  those endpoints (:class:`ServiceClient` / :class:`RemoteJobHandle`).
"""

from repro.service.broker import BrokerError, LocalJobHandle, SweepBroker
from repro.service.client import RemoteJobHandle, ServiceClient, ServiceError
from repro.service.http import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    SweepService,
    serve_forever,
)
from repro.service.jobs import (
    ACTIVE_STATES,
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    JobHandle,
    JobStatus,
    JobStore,
)

__all__ = [
    "ACTIVE_STATES",
    "BrokerError",
    "CANCELLED",
    "COMPLETED",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "FAILED",
    "JobHandle",
    "JobStatus",
    "JobStore",
    "LocalJobHandle",
    "PENDING",
    "RUNNING",
    "RemoteJobHandle",
    "ServiceClient",
    "ServiceError",
    "SweepBroker",
    "SweepService",
    "TERMINAL_STATES",
    "serve_forever",
]
