"""HTTP load generator for the serve workload: the schedule and the client.

The schedule is a pure function of the workload seed.  The client is
one thread driving at most two keep-alive connections through
``select``, with one outstanding request per connection and no
pipelining.  A connection the daemon closes (``Connection: close``
after its request budget) is replaced before its next request.

Open loop: each request has a due time.  Its latency runs from the due
time to the end of its response, so a stall also counts against the
requests queued behind it.  The client sleeps in ``select`` until just
before a due time and spins the last stretch; how late it still sent
(``sent - ready``, where ``ready`` is the later of the due time and the
moment a connection came free) is reported as the generator's lateness.

Closed loop: requests go out as soon as a connection is free.  A group
of two identical requests waits for both connections and goes out on
both at once, so the daemon coalesces them.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence

#: The four cheapest experiments: the serve key space.
SERVE_EXPERIMENTS = ("eq8", "fig1", "abeq", "lemma1")

#: Seeds per experiment in the timed key space (4 x 24 = 96 keys).
SEEDS_PER_EXPERIMENT = 24

#: Open-loop arrival rate, far below saturation on a 2-core host.
READ_RATE_PER_S = 400.0

#: Zipf exponent of key popularity in the read phase.
ZIPF_EXPONENT = 1.1

#: Every this many fill keys, one is sent as a concurrent duplicate.
DUPLICATE_EVERY = 4

#: Seconds between ``/v1/metrics`` scrapes in the read phase.
SCRAPE_PERIOD_S = 1.0

#: Connections (and so outstanding requests) the client keeps.
CONNECTIONS = 2

#: Fresh daemons the read schedule is split over.  Each starts with an
#: empty memory tier, so each reads its keys from the store once, and
#: each boot is a set-up sample.
READ_DAEMONS = 3

#: Spin instead of sleeping when a due time is this close.
SPIN_S = 0.0003

#: A request with no complete response after this long has failed.
IO_TIMEOUT_S = 60.0


@dataclass
class Request:
    """One request and, once run, its outcome."""

    target: str
    key: tuple[str, int] | None = None  # (experiment, seed) of a run request
    due: float = 0.0  # seconds after the phase start (open loop)
    group: int = -1  # requests sharing a group go out together
    due_at: float = math.nan  # when it was due (closed loop: dispatched)
    ready: float = math.nan
    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    served_from: str = ""
    digest: str = ""
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and self.status == 200

    @property
    def latency_ms(self) -> float:
        """Due time to the end of the response."""
        return (self.done - self.due_at) * 1000.0

    @property
    def late_ms(self) -> float:
        """How late the generator sent, past the moment it could."""
        return (self.sent - self.ready) * 1000.0


def run_target(experiment: str, seed: int) -> str:
    return f"/v1/run/{experiment}?quick=1&seed={seed}"


@dataclass(frozen=True)
class ServePlan:
    """The serve workload's inputs, all drawn from the workload seed."""

    timed_keys: tuple[tuple[str, int], ...]
    warmup_seed: int
    fill_order: tuple[tuple[str, int], ...]
    read_schedule: tuple[tuple[float, tuple[str, int] | None], ...]

    @classmethod
    def from_seed(cls, seed: int, seconds: float) -> "ServePlan":
        rng = random.Random(seed)
        seeds = rng.sample(range(1, 1_000_000), SEEDS_PER_EXPERIMENT + 1)
        timed = tuple((exp, s) for s in seeds[:-1] for exp in SERVE_EXPERIMENTS)
        warmup_seed = seeds[-1]
        fill = list(timed) + [(exp, warmup_seed) for exp in SERVE_EXPERIMENTS]
        rng.shuffle(fill)
        ranked = list(timed)
        rng.shuffle(ranked)
        weights = [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, len(ranked) + 1)]
        schedule: list[tuple[float, tuple[str, int] | None]] = []
        t = rng.expovariate(READ_RATE_PER_S)
        while t < seconds:
            schedule.append((t, rng.choices(ranked, weights)[0]))
            t += rng.expovariate(READ_RATE_PER_S)
        scrapes = int(math.ceil(seconds / SCRAPE_PERIOD_S)) - 1
        schedule += [((i + 1) * SCRAPE_PERIOD_S, None) for i in range(scrapes)]
        schedule.sort(key=lambda item: item[0])
        return cls(
            timed_keys=timed,
            warmup_seed=warmup_seed,
            fill_order=tuple(fill),
            read_schedule=tuple(schedule),
        )

    @property
    def warmup_keys(self) -> tuple[tuple[str, int], ...]:
        return tuple((exp, self.warmup_seed) for exp in SERVE_EXPERIMENTS)

    def fill_requests(self) -> list[Request]:
        requests = []
        for i, key in enumerate(self.fill_order):
            copies = 2 if i % DUPLICATE_EVERY == 0 else 1
            requests += [Request(run_target(*key), key, group=i) for _ in range(copies)]
        return requests

    def warmup_requests(self) -> list[Request]:
        """A read daemon's untimed warm-up: one request per experiment at
        the seed outside the timed keys."""
        return [Request(run_target(*key), key, group=i) for i, key in enumerate(self.warmup_keys)]

    def read_segments(self, seconds: float) -> list[list[Request]]:
        """The read schedule cut into :data:`READ_DAEMONS` consecutive
        slices of equal length, each timed from its own start."""
        length = seconds / READ_DAEMONS
        out: list[list[Request]] = [[] for _ in range(READ_DAEMONS)]
        for i, (due, key) in enumerate(self.read_schedule):
            k = min(int(due // length), READ_DAEMONS - 1)
            target = run_target(*key) if key else "/v1/metrics"
            out[k].append(Request(target, key, due=due - k * length, group=i))
        return out


class _Conn:
    """One keep-alive connection with at most one request in flight."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.free_since = time.perf_counter()
        self.request: Request | None = None
        self.closing = False
        self._buf = bytearray()
        self._head_end = -1
        self._length = 0

    def send(self, request: Request, host: str) -> None:
        self.request = request
        request.sent = time.perf_counter()
        self.sock.sendall(f"GET {request.target} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii"))

    def on_readable(self) -> Request | None:
        """Consume what arrived; the request once its response is whole."""
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("daemon closed the connection mid-response")
        if self.request is None:
            raise ConnectionError("data arrived with no request outstanding")
        self._buf += data
        if self._head_end < 0:
            end = self._buf.find(b"\r\n\r\n")
            if end < 0:
                return None
            self._parse_head(bytes(self._buf[:end]).decode("latin-1"))
            self._head_end = end + 4
        if len(self._buf) < self._head_end + self._length:
            return None
        body = bytes(self._buf[self._head_end : self._head_end + self._length])
        request = self.request
        request.done = time.perf_counter()
        request.digest = hashlib.sha256(body).hexdigest()
        request.body = body
        del self._buf[: self._head_end + self._length]
        self._head_end = -1
        self.request = None
        self.free_since = request.done
        return request

    def _parse_head(self, head: str) -> None:
        lines = head.split("\r\n")
        request = self.request
        request.status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        self._length = int(headers.get("content-length", "0"))
        request.served_from = headers.get("x-repro-served-from", "")
        self.closing = headers.get("connection", "").lower() == "close"

    def close(self) -> None:
        self.sock.close()


class Client:
    """Drives requests at one daemon over :data:`CONNECTIONS` connections."""

    def __init__(self, host: str, port: int) -> None:
        self.address = (host, port)
        self._selector = selectors.SelectSelector()  # microsecond timeouts
        self._conns: list[_Conn] = []
        for _ in range(CONNECTIONS):
            self._open()

    def _open(self) -> _Conn:
        conn = _Conn(self.address)
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        self._conns.append(conn)
        return conn

    def _replace(self, conn: _Conn) -> _Conn:
        self._selector.unregister(conn.sock)
        conn.close()
        self._conns.remove(conn)
        return self._open()

    def close(self) -> None:
        for conn in list(self._conns):
            self._selector.unregister(conn.sock)
            conn.close()
        self._conns.clear()
        self._selector.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run(self, requests: Sequence[Request], open_loop: bool) -> float:
        """Run ``requests`` in order; returns the phase start time.  The
        generator's own garbage collector is off meanwhile, so none of
        its pauses lands in a measured latency."""
        gc.disable()
        try:
            return self._run(requests, open_loop)
        finally:
            gc.enable()

    def _run(self, requests: Sequence[Request], open_loop: bool) -> float:
        groups: list[list[Request]] = []
        for request in requests:
            if groups and groups[-1][0].group == request.group >= 0:
                groups[-1].append(request)
            else:
                groups.append([request])
        if any(len(group) > CONNECTIONS for group in groups):
            raise ValueError("a request group is larger than the connection count")
        self._replace_closed_idle()
        free = deque(self._conns)
        busy: set[_Conn] = set()
        start = time.perf_counter()
        host = self.address[0]
        nxt = 0
        while nxt < len(groups) or busy:
            now = time.perf_counter()
            while nxt < len(groups) and len(free) >= len(groups[nxt]):
                due = start + groups[nxt][0].due if open_loop else now
                if due > now:
                    break
                for request in groups[nxt]:
                    conn = free.popleft()
                    request.due_at = due
                    request.ready = max(due, conn.free_since)
                    try:
                        conn.send(request, host)
                    except OSError as exc:
                        self._fail(conn, busy, free, f"{type(exc).__name__}: {exc}")
                        continue
                    busy.add(conn)
                nxt += 1
                now = time.perf_counter()
            timeout = IO_TIMEOUT_S
            if nxt < len(groups) and len(free) >= len(groups[nxt]) and open_loop:
                wait = start + groups[nxt][0].due - now
                timeout = 0.0 if wait <= SPIN_S else wait - SPIN_S
            for key, _ in self._selector.select(timeout):
                conn = key.data
                try:
                    done = conn.on_readable()
                except (ConnectionError, OSError, ValueError, IndexError) as exc:
                    self._fail(conn, busy, free, f"{type(exc).__name__}: {exc}")
                    continue
                if done is None:
                    continue
                busy.discard(conn)
                if conn.closing:
                    conn = self._replace(conn)
                free.append(conn)
            self._expire(busy, free)
        return start

    def _fail(self, conn: _Conn, busy: set[_Conn], free: deque, error: str) -> None:
        request = conn.request
        if request is not None:
            request.error = error
            request.done = time.perf_counter()
        busy.discard(conn)
        if conn in free:
            free.remove(conn)
        free.append(self._replace(conn))

    def _replace_closed_idle(self) -> None:
        """Replace idle connections the daemon has closed since the
        last phase, so no request is sent into a dead socket."""
        for key, _ in self._selector.select(0):
            conn = key.data
            if conn.request is None:
                self._replace(conn)

    def _expire(self, busy: set[_Conn], free: deque) -> None:
        now = time.perf_counter()
        for conn in list(busy):
            request = conn.request
            if request is not None and now - request.sent > IO_TIMEOUT_S:
                self._fail(conn, busy, free, "timed out")
