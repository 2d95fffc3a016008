"""Pooled keep-alive transport and per-request timeout failover.

The load driver exposed two serving-stack serialization bugs this suite
pins the fixes for:

* :class:`~repro.serve.client.ScoringClient` used to dial a fresh TCP
  connection per request (``urllib.request.urlopen``); it now pools
  HTTP/1.1 keep-alive connections, so repeat requests reuse one socket;
* :class:`~repro.serve.fleet.RemoteShard` carried a flat 30 s timeout,
  stalling a concurrent worker for the full 30 s before failover; the
  timeout is now configurable per request via ``FleetRouter``/CLI and a
  hung shard fails over within that bound.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.serve import FleetRouter, RemoteShard, ScoringClient
from repro.serve.client import ScoringServiceError
from repro.serve.fleet import ConsistentHashRing, is_shard_failure
from repro.serve.server import ScoringServer


@pytest.fixture(scope="module")
def pool_server(model_registry):
    with ScoringServer(model_registry, quiet=True) as running:
        yield running


@pytest.fixture()
def pool_client(pool_server):
    client = ScoringClient(pool_server.url, timeout=10.0)
    client.wait_until_ready()
    yield client
    client.close()


class TestConnectionPool:
    def test_serial_requests_reuse_one_connection(self, pool_client):
        for _ in range(5):
            assert pool_client.healthz()["status"] == "ok"
        stats = pool_client.transport_stats()
        assert stats["connections_created"] == 1
        assert stats["requests_reused"] >= 5  # wait_until_ready dialled it
        assert stats["pool_idle"] == 1

    @staticmethod
    def _read_response(sock):
        # a response may arrive in several TCP segments; consume exactly
        # one (headers then Content-Length body) so the next request's
        # reply starts at a clean boundary
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            assert chunk, "server closed the keep-alive connection"
            data += chunk
        head, body = data.split(b"\r\n\r\n", 1)
        length = next(int(line.split(b":")[1])
                      for line in head.split(b"\r\n")
                      if line.lower().startswith(b"content-length:"))
        while len(body) < length:
            chunk = sock.recv(65536)
            assert chunk, "server closed mid-body"
            body += chunk
        return head

    def test_server_speaks_keepalive_http11(self, pool_server):
        # raw socket probe: two requests over one connection must both
        # answer — that is the HTTP/1.1 keep-alive contract the pooled
        # transport depends on
        host, port = pool_server.url.replace("http://", "").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            request = (b"GET /healthz HTTP/1.1\r\n"
                       b"Host: " + host.encode() + b"\r\n"
                       b"Accept: application/json\r\n\r\n")
            for _ in range(2):
                sock.sendall(request)
                head = self._read_response(sock)
                assert head.startswith(b"HTTP/1.1 200")
                assert b"Content-Length:" in head

    def test_concurrent_requests_use_separate_connections(self, pool_client):
        pool_client.close()  # start from an empty pool
        before = pool_client.transport_stats()
        barrier = threading.Barrier(4)
        errors = []

        def hammer():
            try:
                barrier.wait()
                for _ in range(8):
                    pool_client.stats()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = pool_client.transport_stats()
        created = stats["connections_created"] - before["connections_created"]
        reused = stats["requests_reused"] - before["requests_reused"]
        # the pool grew to at most one socket per concurrent worker and
        # far fewer than one per request
        assert 1 <= created <= 4
        assert reused >= 32 - 4

    def test_set_timeout_flushes_pool_and_applies(self, pool_client):
        pool_client.healthz()
        assert pool_client.transport_stats()["pool_idle"] == 1
        pool_client.set_timeout(3.0)
        assert pool_client.timeout == 3.0
        assert pool_client.transport_stats()["pool_idle"] == 0
        assert pool_client.healthz()["status"] == "ok"

    def test_timeout_setter_is_equivalent(self, pool_client):
        pool_client.timeout = 7.5
        assert pool_client.timeout == 7.5
        with pytest.raises(ValueError):
            pool_client.set_timeout(0)

    def test_close_then_reuse(self, pool_client):
        pool_client.healthz()
        pool_client.close()
        assert pool_client.transport_stats()["pool_idle"] == 0
        assert pool_client.healthz()["status"] == "ok"

    def test_error_responses_still_raise_typed(self, pool_client):
        with pytest.raises(ScoringServiceError) as excinfo:
            pool_client.model_info("no-such-model")
        assert excinfo.value.status == 404

    def test_unreachable_host_raises_status_zero(self):
        client = ScoringClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ScoringServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert is_shard_failure(excinfo.value)


@pytest.fixture()
def hung_server():
    """Accepts TCP connections, reads the request, never answers."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    port = listener.getsockname()[1]
    accepted = []
    alive = threading.Event()
    alive.set()

    def run():
        while alive.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            accepted.append(conn)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}"
    alive.clear()
    # closing the listener does not wake a thread blocked in accept(), so
    # one last connection does; otherwise teardown waits out the join
    socket.create_connection(("127.0.0.1", port), timeout=2).close()
    thread.join(timeout=2)
    listener.close()
    for conn in accepted:
        try:
            conn.close()
        except OSError:
            pass


class TestTimeoutFailover:
    def test_hung_request_times_out_within_bound(self, hung_server):
        client = ScoringClient(hung_server, timeout=0.4)
        start = time.perf_counter()
        with pytest.raises(ScoringServiceError) as excinfo:
            client.healthz()
        elapsed = time.perf_counter() - start
        assert excinfo.value.status == 0
        assert elapsed < 2.0, f"timeout took {elapsed:.1f}s, bound was 0.4s"

    def test_router_applies_request_timeout_to_remote_shards(self,
                                                             hung_server,
                                                             shard_factory):
        remote = RemoteShard(hung_server, "tiny", shard_id="rs-t")
        assert remote.timeout == 30.0  # the old flat default, still there
        FleetRouter([remote, shard_factory("es-t")], replication=2,
                    request_timeout=0.4)
        assert remote.timeout == 0.4

    def test_request_timeout_must_be_positive(self, shard_factory):
        with pytest.raises(ValueError):
            FleetRouter([shard_factory("es-neg")], replication=1,
                        request_timeout=0.0)

    def test_hung_shard_fails_over_within_bound(self, hung_server,
                                                shard_factory, fleet_cities):
        """Regression: a hung replica used to stall clients for the flat
        30 s transport timeout before failover fired."""
        name, graph = next(iter(fleet_cities.items()))
        key = graph.structural_fingerprint()
        # name the shards so the hung remote is the city's ring primary —
        # otherwise the healthy shard absorbs the request and the timeout
        # path is never exercised
        ring = ConsistentHashRing(["shard-a", "shard-b"], vnodes=64)
        primary, secondary = ring.assign(key, 2)
        healthy = shard_factory(secondary)
        hung = RemoteShard(hung_server, "tiny", shard_id=primary)
        fleet = FleetRouter([hung, healthy], replication=2,
                            request_timeout=0.4)

        start = time.perf_counter()
        payload = fleet.open_stream(name, graph, rescore=True)
        elapsed = time.perf_counter() - start
        assert payload["shard"] == secondary
        # one timed-out dial plus the real open; far below the old 30 s
        assert elapsed < 10.0, f"failover took {elapsed:.1f}s"
        assert fleet.fleet_stats.shard_failures >= 1
        assert primary in fleet.down_shards()

        # subsequent traffic never touches the hung shard again
        start = time.perf_counter()
        fleet.score_stream(name)
        assert time.perf_counter() - start < 2.0
        fleet.close()
