"""Crash-safe, multi-process-safe disk cache for simulation results.

One JSON file per (config, tracker, workload) key. Safety properties:

- **Atomic writes**: results are serialized to a temporary file in the
  cache directory and moved into place with :func:`os.replace`, so a
  crash mid-write can never leave a truncated entry, and a reader can
  never observe a half-written file.
- **Corrupt-entry eviction**: a file that fails to parse (e.g. left by
  a pre-atomic-write version of this cache, or by disk trouble) is
  unlinked on load so it is re-simulated once rather than failing
  every run.
- **Idempotent fills**: two processes racing to fill the same key both
  succeed — each writes its own temp file and the ``os.replace`` calls
  serialize arbitrarily. Simulation is deterministic, so whichever
  write lands last is byte-identical to the other.

This makes a single ``REPRO_CACHE_DIR`` safe to share between the
worker processes of one parallel sweep and between independent
benchmark invocations running concurrently.

Leases (the sweep service's in-flight markers): racing *fills* were
always safe, but they were also wasted work — two brokers (or two
workers of one broker) that both miss on a key would both simulate it.
:meth:`ResultCache.lease` adds a best-effort claim: an atomically
created ``<key>.lease`` file naming an owner and an expiry. A worker
that wins the lease simulates and stores; one that loses polls the
cache until the entry lands — or until the lease goes stale (its
holder crashed), at which point the lease is reclaimed instead of
wedging the grid. A lease whose holder is an exited process on this
host is reclaimed at once, without waiting out the expiry. Leases are
an *optimization*, never a correctness gate: if the protocol ever
double-grants under a pathological race, both winners simulate the
same deterministic cell and the atomic ``store`` keeps the cache
consistent.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.sim.results import RunResult

#: How long a lease protects a key before other workers may reclaim
#: it. Generous relative to a cell simulation (seconds) so a healthy
#: worker never loses its claim, small enough that a crashed worker
#: delays a grid by at most this.
DEFAULT_LEASE_TTL_S = 300.0


@dataclass(frozen=True)
class LeaseInfo:
    """What a lease file records about its holder."""

    key: str
    owner: str
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def holder_exited(self) -> bool:
        """True if the owner names a process on this host that is gone.

        Owners are ``host:pid:...`` strings (see
        :func:`repro.sim.sweep.worker_identity`); any other form, a
        remote host, or a process that still exists (or whose pid was
        reused) counts as alive, leaving the expiry to decide.
        """
        host, _, rest = self.owner.partition(":")
        pid = rest.split(":", 1)[0]
        if os.name != "posix" or host != socket.gethostname():
            return False
        if not pid.isdigit():
            return False
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            return True
        except OSError:
            return False  # exists, owned by another user
        return False


class ResultCache:
    """Directory of ``<key>.json`` payloads with atomic replacement."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        #: Corrupt entries evicted by this process (observability).
        self.evictions = 0
        #: Payloads written by this process (the service's dedup
        #: assertions count these: a grid submitted twice must fill
        #: each unique key exactly once).
        self.stores = 0
        #: Stale leases this process reclaimed from crashed holders.
        self.leases_reclaimed = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored payload, or None on miss or corruption.

        A corrupt file is unlinked so the next fill replaces it.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            self._evict(path)
            return None
        if not isinstance(payload, dict):
            self._evict(path)
            return None
        return payload

    def load_result(self, key: str) -> Optional[RunResult]:
        """The stored :class:`RunResult`, or None on miss or corruption.

        The payload is parsed once; one that is valid JSON but not a
        RunResult (a foreign or truncated schema) is evicted like a
        corrupt file.
        """
        payload = self.load(key)
        if payload is None:
            return None
        try:
            return RunResult.from_dict(payload)
        except (TypeError, KeyError):
            self._evict(self.path_for(key))
            return None

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically publish a payload under ``key``.

        The temp file lives in the cache directory itself so the
        ``os.replace`` is a same-filesystem rename (atomic on POSIX
        and Windows).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key}.", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
            self.stores += 1
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Leases: best-effort in-flight markers for racing fillers
    # ------------------------------------------------------------------

    def lease_path(self, key: str) -> Path:
        return self.directory / f"{key}.lease"

    def lease(
        self,
        key: str,
        owner: str,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        now: Optional[float] = None,
    ) -> bool:
        """Try to claim ``key`` for ``owner``; True on success.

        The claim is an ``O_CREAT | O_EXCL`` file create — atomic on
        every platform the cache's ``os.replace`` already relies on.
        An existing unexpired lease means someone else is filling the
        key (returns False); an *expired* lease, or one whose holder
        process on this host has exited (a worker killed mid-fill), is
        reclaimed: the stale file is unlinked and the create retried
        once. The unlink+create pair is not atomic, so under a
        pathological interleaving two reclaimers can both believe they
        won — see the module docstring for why that is harmless here.
        """
        clock = time.time if now is None else (lambda: now)
        self.directory.mkdir(parents=True, exist_ok=True)
        for attempt in range(2):
            if self._try_create_lease(key, owner, ttl_s, clock()):
                return True
            holder = self.lease_info(key)
            if holder is None:
                continue  # holder released between our create and read
            if not holder.expired(clock()) and not holder.holder_exited():
                return False
            # Stale: the holder crashed (or stalled past its TTL).
            # Reclaim by unlinking the stale file, then retry the
            # atomic create; a racing reclaimer may beat us to it.
            try:
                self.lease_path(key).unlink()
                self.leases_reclaimed += 1
            except OSError:
                pass
        return self._try_create_lease(key, owner, ttl_s, clock())

    def release(self, key: str, owner: str) -> None:
        """Drop ``owner``'s lease on ``key`` (a stranger's survives)."""
        info = self.lease_info(key)
        if info is None or info.owner != owner:
            return
        try:
            self.lease_path(key).unlink()
        except OSError:
            pass

    def lease_info(self, key: str) -> Optional[LeaseInfo]:
        """The current lease on ``key``, or None (corrupt = none)."""
        try:
            text = self.lease_path(key).read_text()
        except OSError:
            return None
        try:
            data = json.loads(text)
            return LeaseInfo(
                key=key,
                owner=str(data["owner"]),
                expires_at=float(data["expires_at"]),
            )
        except (ValueError, KeyError, TypeError):
            # A torn or foreign lease file: treat as absent; the
            # expiry path will clean it up.
            return None

    def _try_create_lease(
        self, key: str, owner: str, ttl_s: float, now: float
    ) -> bool:
        try:
            fd = os.open(
                self.lease_path(key),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            json.dump({"owner": owner, "expires_at": now + ttl_s}, handle)
        return True

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass  # a racing process may have replaced or removed it
        self.evictions += 1
