"""Asyncio HTTP/JSON front-end of the sweep service.

A deliberately small stdlib-only server (``asyncio.start_server`` +
hand-parsed HTTP/1.1 — no web framework is baked into the container)
exposing the broker:

    POST   /jobs               submit a grid   -> 201 {"job_id": ...}
    GET    /jobs               list jobs       -> 200 {"jobs": [...]}
    GET    /jobs/<id>          status/progress -> 200 JobStatus
    GET    /jobs/<id>/events   stream per-cell manifest lines (NDJSON,
                               connection-close delimited) as they land
    GET    /jobs/<id>/result   fetch the GridResult payload
    DELETE /jobs/<id>          preempt the job
    GET    /healthz            liveness probe

The submit body is ``{"grid": GridSpec.to_dict()}`` — the grid must
carry its ``config`` (the service cannot guess one). Every
non-streaming route goes through :meth:`SweepService.dispatch`, a
plain ``(method, path, body) -> (status, payload)`` function, so
handlers unit-test without sockets; the asyncio layer only parses
bytes and streams events.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.sim.grid import GridSpec
from repro.service.broker import BrokerError, SweepBroker

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8265

#: How often the event stream re-polls the job's manifest.
DEFAULT_EVENT_POLL_S = 0.1

#: Largest request body accepted (a submitted grid is a few KB).
MAX_BODY_BYTES = 1 << 20

#: Most header lines accepted per request. A line longer than the
#: ``StreamReader`` limit (64 KiB by default) is refused as well.
MAX_HEADERS = 100

_JSON_HEADERS = "Content-Type: application/json\r\nConnection: close\r\n"


class RequestRejected(Exception):
    """A request refused before its body is read: ``status`` + reason."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class SweepService:
    """Routes HTTP requests onto a :class:`SweepBroker`."""

    def __init__(
        self,
        broker: SweepBroker,
        event_poll_s: float = DEFAULT_EVENT_POLL_S,
    ) -> None:
        self.broker = broker
        self.event_poll_s = event_poll_s

    # ------------------------------------------------------------------
    # Socket-free request dispatch (the unit-testable surface)
    # ------------------------------------------------------------------

    def dispatch(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, Any]]:
        """Handle one non-streaming request; returns (status, payload)."""
        parts = [p for p in path.split("?", 1)[0].split("/") if p]
        try:
            if parts == ["healthz"]:
                if method == "GET":
                    return 200, {"ok": True}
                return 405, {"error": "method not allowed"}
            if parts == ["jobs"]:
                if method == "POST":
                    return self._submit(body)
                if method == "GET":
                    return 200, {
                        "jobs": [s.to_dict() for s in self.broker.jobs()]
                    }
                return 405, {"error": "method not allowed"}
            if len(parts) == 2 and parts[0] == "jobs":
                if method == "GET":
                    return 200, self.broker.status(parts[1]).to_dict()
                if method == "DELETE":
                    return 200, self.broker.cancel(parts[1]).to_dict()
                return 405, {"error": "method not allowed"}
            if len(parts) == 3 and parts[0] == "jobs" and method == "GET":
                if parts[2] == "result":
                    return self._result(parts[1])
                if parts[2] == "events":
                    # Snapshot form; the async layer streams instead.
                    return 200, {"events": self.broker.events(parts[1])}
        except BrokerError as exc:
            if "unknown job" in str(exc):
                return 404, {"error": str(exc)}
            return 409, {"error": str(exc)}
        return 404, {"error": f"no route for {method} /{'/'.join(parts)}"}

    def _submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            data = json.loads(body.decode() or "{}")
            grid = GridSpec.from_dict(data["grid"])
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": f"bad grid payload: {exc}"}
        try:
            job_id = self.broker.submit(grid)
        except ValueError as exc:  # e.g. a grid without a config
            return 400, {"error": str(exc)}
        status = self.broker.status(job_id)
        return 201, {
            "job_id": job_id,
            "grid_key": status.grid_key,
            "total_cells": status.total_cells,
        }

    def _result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        grid = self.broker.result(job_id)  # BrokerError if not done
        return 200, {"job_id": job_id, "grid": grid.to_payload()}

    # ------------------------------------------------------------------
    # Asyncio layer
    # ------------------------------------------------------------------

    async def handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
            except RequestRejected as exc:
                self._write_response(writer, exc.status, {"error": str(exc)})
                await writer.drain()
                return
            if request is None:
                return
            method, path, body = request
            parts = [p for p in path.split("?", 1)[0].split("/") if p]
            if (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "events"
            ):
                await self._stream_events(writer, parts[1])
            else:
                status, payload = self.dispatch(method, path, body)
                self._write_response(writer, status, payload)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await _read_line(reader)
        if not request_line.strip():
            return None
        try:
            method, path, _version = request_line.split()
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = await _read_line(reader)
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise RequestRejected(431, f"more than {MAX_HEADERS} header lines")
        length = _body_length(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        writer.write(
            f"HTTP/1.1 {status} {_reason(status)}\r\n{_JSON_HEADERS}"
            f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        """NDJSON event tail: manifest lines as the broker lands them.

        Connection-close delimited (no Content-Length): the stream
        ends when the job reaches a terminal state and every written
        event has been delivered.
        """
        try:
            self.broker.status(job_id)
        except BrokerError as exc:
            self._write_response(writer, 404, {"error": str(exc)})
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            events = self.broker.events(job_id)
            for event in events[sent:]:
                writer.write(
                    json.dumps(event, sort_keys=True).encode() + b"\n"
                )
            sent = len(events)
            await writer.drain()
            if self.broker.status(job_id).done:
                # Final drain for records that landed after the read.
                events = self.broker.events(job_id)
                for event in events[sent:]:
                    writer.write(
                        json.dumps(event, sort_keys=True).encode() + b"\n"
                    )
                await writer.drain()
                return
            await asyncio.sleep(self.event_poll_s)


async def _read_line(reader: asyncio.StreamReader) -> str:
    """One request or header line, decoded.

    Raises :class:`RequestRejected`: 431 for a line over the reader's
    limit, 400 for bytes that are not UTF-8.
    """
    try:
        line = await reader.readline()
    except ValueError:  # asyncio's report of a line over the limit
        raise RequestRejected(431, "request or header line too long") from None
    try:
        return line.decode()
    except UnicodeDecodeError:
        raise RequestRejected(400, "request line or header is not UTF-8") from None


def _body_length(value: str) -> int:
    """Validate a ``Content-Length`` value before any body is read.

    Raises :class:`RequestRejected`: 400 for anything but a decimal
    integer of at least zero, 413 above :data:`MAX_BODY_BYTES`.
    """
    if not (value.isascii() and value.isdigit()):
        raise RequestRejected(400, f"bad Content-Length: {value[:40]!r}")
    # Compare digit counts first: int() refuses very long digit strings.
    digits = value.lstrip("0") or "0"
    if (
        len(digits) > len(str(MAX_BODY_BYTES))
        or int(digits) > MAX_BODY_BYTES
    ):
        raise RequestRejected(
            413, f"body of {digits[:40]} bytes exceeds {MAX_BODY_BYTES}"
        )
    return int(digits)


def _reason(status: int) -> str:
    return {
        200: "OK",
        201: "Created",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        409: "Conflict",
        413: "Payload Too Large",
        431: "Request Header Fields Too Large",
    }.get(status, "OK")


async def serve_async(
    broker: SweepBroker,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    event_poll_s: float = DEFAULT_EVENT_POLL_S,
) -> "asyncio.AbstractServer":
    """Bind the service; caller drives the returned server."""
    service = SweepService(broker, event_poll_s=event_poll_s)
    return await asyncio.start_server(service.handle_client, host, port)


def serve_forever(
    broker: SweepBroker,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> None:
    """Blocking entry point used by ``hydra-sim serve``."""

    async def _main() -> None:
        server = await serve_async(broker, host, port)
        addrs = ", ".join(
            str(sock.getsockname()) for sock in server.sockets or ()
        )
        print(f"hydra-sim serve: listening on {addrs}")
        resumed = broker.resume()
        if resumed:
            print(f"resumed {len(resumed)} interrupted job(s)")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("hydra-sim serve: shutting down")
        broker.shutdown(wait=False)
