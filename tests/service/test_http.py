"""HTTP front-end tests: socket-free dispatch + one live round trip."""

import asyncio
import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import ServiceClient, ServiceError, SweepBroker
from repro.service.http import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    RequestRejected,
    SweepService,
    serve_async,
)
from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)
GRID = GridSpec(
    trackers=("baseline",),
    workloads=("leela", "gcc"),
    config=CONFIG,
)


@pytest.fixture
def broker(tmp_path):
    b = SweepBroker(
        state_dir=tmp_path / "state",
        cache_dir=tmp_path / "cache",
        pool="inline",
    )
    yield b
    b.shutdown(wait=False)


@pytest.fixture
def service(broker):
    return SweepService(broker)


def submit_body(grid=GRID) -> bytes:
    return json.dumps({"grid": grid.to_dict()}).encode()


class TestDispatch:
    """The socket-free routing surface (no asyncio involved)."""

    def test_healthz(self, service):
        assert service.dispatch("GET", "/healthz") == (200, {"ok": True})

    def test_submit_returns_job_id(self, service, broker):
        status, payload = service.dispatch("POST", "/jobs", submit_body())
        assert status == 201
        assert payload["total_cells"] == 2
        assert broker.status(payload["job_id"]).grid_key == payload["grid_key"]

    def test_submit_rejects_bad_json(self, service):
        status, payload = service.dispatch("POST", "/jobs", b"not json")
        assert status == 400
        assert "bad grid payload" in payload["error"]

    def test_submit_rejects_configless_grid(self, service):
        grid = GridSpec(trackers=("baseline",), workloads=("leela",))
        status, payload = service.dispatch(
            "POST", "/jobs", submit_body(grid)
        )
        assert status == 400
        assert "config" in payload["error"]

    def test_status_and_list(self, service, broker):
        _, submitted = service.dispatch("POST", "/jobs", submit_body())
        job_id = submitted["job_id"]
        status, payload = service.dispatch("GET", f"/jobs/{job_id}")
        assert status == 200
        assert payload["job_id"] == job_id
        status, listing = service.dispatch("GET", "/jobs")
        assert status == 200
        assert [j["job_id"] for j in listing["jobs"]] == [job_id]

    def test_unknown_job_is_404(self, service):
        status, payload = service.dispatch("GET", "/jobs/nope")
        assert status == 404
        assert "unknown job" in payload["error"]

    def test_result_before_completion_is_409(self, service, broker):
        job_id = broker.submit(GRID, start=False)
        status, payload = service.dispatch(
            "GET", f"/jobs/{job_id}/result"
        )
        assert status == 409
        assert "not completed" in payload["error"]

    def test_result_after_completion(self, service, broker):
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        status, payload = service.dispatch(
            "GET", f"/jobs/{job_id}/result"
        )
        assert status == 200
        assert sorted(payload["grid"]["baseline"]) == ["gcc", "leela"]

    def test_delete_cancels(self, service, broker):
        job_id = broker.submit(GRID, start=False)
        status, payload = service.dispatch("DELETE", f"/jobs/{job_id}")
        assert status == 200
        assert payload["state"] == "cancelled"

    def test_events_snapshot(self, service, broker):
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        status, payload = service.dispatch(
            "GET", f"/jobs/{job_id}/events"
        )
        assert status == 200
        assert len(payload["events"]) == 2

    def test_method_not_allowed(self, service):
        assert service.dispatch("PUT", "/jobs")[0] == 405
        assert service.dispatch("POST", "/healthz")[0] == 405

    def test_unrouted_path_is_404(self, service):
        assert service.dispatch("GET", "/nope/deeper")[0] == 404


class _MemoryWriter:
    """The slice of ``asyncio.StreamWriter`` that ``handle_client`` uses."""

    def __init__(self):
        self.data = b""
        self.closed = False

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


def _reader(raw: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(raw)
    if eof:
        reader.feed_eof()
    return reader


def read_request(service, raw: bytes, eof: bool = True):
    async def main():
        return await asyncio.wait_for(
            service._read_request(_reader(raw, eof)), timeout=5
        )

    return asyncio.run(main())


def handle_raw(service, raw: bytes, eof: bool = True) -> bytes:
    """Run ``handle_client`` on in-memory streams; the bytes written."""
    writer = _MemoryWriter()

    async def main():
        await asyncio.wait_for(
            service.handle_client(_reader(raw, eof), writer), timeout=5
        )

    asyncio.run(main())
    assert writer.closed
    return writer.data


def handle(service, raw: bytes, eof: bool = True):
    """Run ``handle_client`` on in-memory streams; (status, payload)."""
    head, _, body = handle_raw(service, raw, eof).partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body)


def post(length: str, body: bytes = b"") -> bytes:
    return (
        b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
        + f"Content-Length: {length}\r\n\r\n".encode()
        + body
    )


class TestRequestLimits:
    """``Content-Length`` is validated before any body byte is read.

    The reader is left open (no EOF) wherever a body read would block,
    so a handler that tried to read it would time out instead of
    answering.
    """

    def test_valid_length_reads_body(self, service):
        body = submit_body()
        assert read_request(service, post(str(len(body)), body)) == (
            "POST", "/jobs", body
        )

    def test_missing_length_means_empty_body(self, service):
        raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        assert read_request(service, raw) == ("GET", "/healthz", b"")

    @pytest.mark.parametrize("value", ["abc", "-5", "", "1.5", "0x10", "1_0"])
    def test_non_integer_or_negative_length_is_400(self, service, value):
        with pytest.raises(RequestRejected) as err:
            read_request(service, post(value), eof=False)
        assert err.value.status == 400
        status, payload = handle(service, post(value), eof=False)
        assert status == 400
        assert "Content-Length" in payload["error"]

    @pytest.mark.parametrize(
        "length",
        [str(MAX_BODY_BYTES + 1), "99999999999", "9" * 40, "9" * 5000],
        ids=["cap+1", "11-digits", "40-digits", "5000-digits"],
    )
    def test_oversized_length_is_413(self, service, length):
        with pytest.raises(RequestRejected) as err:
            read_request(service, post(length), eof=False)
        assert err.value.status == 413
        status, payload = handle(service, post(length), eof=False)
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]

    def test_leading_zeros_are_still_a_length(self, service):
        body = submit_body()
        raw = post("000000000" + str(len(body)), body)
        assert read_request(service, raw)[2] == body

    def test_length_at_the_cap_is_read(self, service):
        body = b" " * MAX_BODY_BYTES
        request = read_request(service, post(str(MAX_BODY_BYTES), body))
        assert request[2] == body

    def test_valid_request_still_dispatched(self, service):
        body = submit_body()
        status, payload = handle(service, post(str(len(body)), body))
        assert status == 201
        assert payload["total_cells"] == 2

    def test_undecodable_header_is_400(self, service):
        raw = b"GET /healthz HTTP/1.1\r\nX: \xff\xfe\r\n\r\n"
        with pytest.raises(RequestRejected) as err:
            read_request(service, raw)
        assert err.value.status == 400
        assert handle(service, raw)[0] == 400

    @pytest.mark.parametrize("where", ["header", "request-line"])
    def test_line_over_reader_limit_is_431(self, service, where):
        long = "x" * (70 * 1024)
        if where == "header":
            raw = f"GET /healthz HTTP/1.1\r\nX: {long}\r\n\r\n"
        else:
            raw = f"GET /{long} HTTP/1.1\r\n\r\n"
        with pytest.raises(RequestRejected) as err:
            read_request(service, raw.encode())
        assert err.value.status == 431
        assert handle(service, raw.encode())[0] == 431

    def test_header_count_is_capped_at_431(self, service):
        def request(n_headers):
            headers = "".join(f"X-{i}: y\r\n" for i in range(n_headers))
            return f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode()

        assert handle(service, request(MAX_HEADERS)) == (200, {"ok": True})
        status, payload = handle(service, request(MAX_HEADERS + 1))
        assert status == 431
        assert str(MAX_HEADERS) in payload["error"]
        assert handle_raw(service, request(MAX_HEADERS + 1)).startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n"
        )

    def test_repeated_header_name_still_counts(self, service):
        raw = b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * (MAX_HEADERS + 1)
        assert handle(service, raw + b"\r\n")[0] == 431

    @given(raw=st.binary(max_size=512))
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_arbitrary_bytes_never_raise(self, service, raw):
        """Whatever a client sends, ``handle_client`` answers or
        closes; it never lets an exception escape."""
        handle_raw(service, raw)


class TestLiveServer:
    """One real asyncio server + http.client round trip."""

    @pytest.fixture
    def endpoint(self, tmp_path):
        broker = SweepBroker(
            state_dir=tmp_path / "state",
            cache_dir=tmp_path / "cache",
            pool="thread",
            workers=2,
        )
        loop = asyncio.new_event_loop()
        started = threading.Event()
        box = {}

        def run():
            async def main():
                server = await serve_async(
                    broker, host="127.0.0.1", port=0, event_poll_s=0.02
                )
                box["port"] = server.sockets[0].getsockname()[1]
                started.set()
                async with server:
                    await server.serve_forever()

            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(main())
            except asyncio.CancelledError:
                pass

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        yield ServiceClient("127.0.0.1", box["port"])
        loop.call_soon_threadsafe(
            lambda: [t.cancel() for t in asyncio.all_tasks(loop)]
        )
        broker.shutdown(wait=False)

    def test_submit_stream_result_over_http(self, endpoint):
        assert endpoint.healthy()
        handle = endpoint.submit(GRID)
        events = list(handle.events())  # blocks until terminal
        assert len(events) == 2
        assert {e["workload"] for e in events} == {"leela", "gcc"}
        assert all(e["job_id"] == handle.job_id for e in events)
        result = handle.result(timeout=60)
        assert sorted(result["baseline"]) == ["gcc", "leela"]
        # Listed and terminal.
        assert handle.job_id in [s.job_id for s in endpoint.jobs()]
        assert endpoint.status(handle.job_id).state == "completed"

    def test_http_result_matches_direct_run(self, endpoint, tmp_path):
        handle = endpoint.submit(GRID)
        via_http = handle.result(timeout=60)
        direct_broker = SweepBroker(
            state_dir=tmp_path / "direct-state",
            cache_dir=tmp_path / "direct-cache",
            pool="inline",
        )
        job_id = direct_broker.submit(GRID, start=False)
        direct_broker.step(job_id)
        direct = direct_broker.result(job_id)
        assert json.dumps(via_http.to_payload(), sort_keys=True) == (
            json.dumps(direct.to_payload(), sort_keys=True)
        )

    def test_unknown_job_raises_service_error(self, endpoint):
        with pytest.raises(ServiceError) as err:
            endpoint.status("nope")
        assert err.value.status == 404
