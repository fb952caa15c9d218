"""Failure accounting: a refused request or a corrupted body is failed.

The client runs against a tiny in-test HTTP server, so these tests need
neither the package nor a daemon."""

import hashlib
import socket
import threading

import pytest

from harness import Report
from loadgen import Client, Request, run_target
from serve_workload import TIMING_FIELDS, check_requests

GOOD = b'{"artifact": "good", "wall_time_s": 0.25, "cache_hit": true}\n'


class FakeDaemon:
    """Answers each request with ``script[target]`` (status, body), or
    200 and :data:`GOOD`; closes a connection after ``per_conn``
    responses."""

    def __init__(self, script, per_conn=1000):
        self.script = dict(script)
        self.per_conn = per_conn
        self.connections = 0
        self._lock = threading.Lock()
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.port = self.sock.getsockname()[1]
        self._threads = []
        self._accept = threading.Thread(target=self._serve, daemon=True)
        self._accept.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with self._lock:
                self.connections += 1
            thread = threading.Thread(target=self._handle, args=(conn,), daemon=True)
            thread.start()
            self._threads.append(thread)

    def _handle(self, conn):
        served = 0
        buf = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    data = conn.recv(4096)
                    if not data:
                        return
                    buf += data
                head, buf = buf.split(b"\r\n\r\n", 1)
                target = head.split(b" ")[1].decode()
                status, body = self.script.get(target, (200, GOOD))
                served += 1
                close = served >= self.per_conn
                head = (
                    f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n"
                    f"Connection: {'close' if close else 'keep-alive'}\r\n"
                    "X-Repro-Served-From: memory\r\n\r\n"
                )
                conn.sendall(head.encode() + body)
                if close:
                    return

    def close(self):
        self.sock.close()


@pytest.fixture
def run_script():
    daemons = []

    def run(script, requests, open_loop=False, per_conn=1000):
        daemon = FakeDaemon(script, per_conn)
        daemons.append(daemon)
        with Client("127.0.0.1", daemon.port) as client:
            client.run(requests, open_loop)
        return daemon

    yield run
    for daemon in daemons:
        daemon.close()


def expected_for(keys, fresh=None):
    """What ``expected.py`` prints when every key's warm read is
    :data:`GOOD` and its independent computation is ``fresh``."""
    fresh = fresh or {"artifact": "good", **dict.fromkeys(TIMING_FIELDS)}
    digest = hashlib.sha256(GOOD).hexdigest()
    return {f"{e}/{s}": {"body": digest, "fresh": fresh} for e, s in keys}


def test_corrupted_body_and_refusal_count_as_failed(run_script):
    keys = [("eq8", 1), ("eq8", 2), ("fig1", 3)]
    requests = [Request(run_target(*k), k, group=i) for i, k in enumerate(keys)]
    script = {
        requests[1].target: (429, b'{"error": 1}\n'),
        requests[2].target: (200, b'{"artifact": "bad"}\n'),
    }
    run_script(script, requests)
    report = Report("serve", trace=False)
    check_requests(report, requests, expected_for(keys))
    assert (report.attempted, report.failed) == (4, 2)  # 3 requests, 1 key served well
    assert not report.correct
    assert [r.status for r in requests] == [200, 429, 200]


def test_all_good_is_correct(run_script):
    keys = [("eq8", s) for s in range(6)]
    requests = [Request(run_target(*k), k, group=i) for i, k in enumerate(keys)]
    run_script({}, requests)
    report = Report("serve", trace=False)
    check_requests(report, requests, expected_for(keys))
    assert (report.attempted, report.failed) == (12, 0) and report.correct  # 6 requests, 6 keys


def test_stored_artifact_unlike_an_independent_computation_fails(run_script):
    """The body matches the warm read of the store, but what was stored
    differs from a fresh computation: each key fails once."""
    keys = [("eq8", 1), ("eq8", 1), ("fig1", 2)]
    requests = [Request(run_target(*k), k, group=i) for i, k in enumerate(keys)]
    run_script({}, requests)
    report = Report("serve", trace=False)
    fresh = {"artifact": "other", **dict.fromkeys(TIMING_FIELDS)}
    check_requests(report, requests, expected_for(keys, fresh))
    assert (report.attempted, report.failed) == (5, 2)  # 3 requests, 2 keys
    assert all("independent computation" in what for what in report.failures)


def test_reconnects_after_connection_close(run_script):
    keys = [("abeq", s) for s in range(7)]
    requests = [Request(run_target(*k), k, due=0.001 * i, group=i) for i, k in enumerate(keys)]
    daemon = run_script({}, requests, open_loop=True, per_conn=2)
    assert all(r.ok and r.served_from == "memory" for r in requests)
    assert daemon.connections >= 4  # two to start, then one per closed connection
    assert all(r.latency_ms >= 0 and r.late_ms >= 0 for r in requests)


def test_duplicate_group_goes_out_on_both_connections(run_script):
    key = ("lemma1", 5)
    requests = [Request(run_target(*key), key, group=0), Request(run_target(*key), key, group=0)]
    run_script({}, requests)
    assert requests[0].sent <= requests[1].done and requests[1].sent <= requests[0].done
