"""A small synchronous client for the service's JSON-lines socket protocol.

One client keeps one connection: the socket opens on the first request and
carries every later one (one JSON line out, one JSON line back), because
setting up a Unix-socket connection costs about as much CPU as answering a
cached query.  Round trips are serialized by a lock, so a client shared by
threads stays correct — but they then take turns; give each concurrent
caller its own client.  Use it as a context manager, or call
:meth:`ServiceClient.close`, to release the socket.

**Failure behavior.**  Every operation of the protocol is idempotent
(verification of a content-addressed design is deterministic, registration
is content-addressed, stats are reads), so transport-level failures —
connection refused, missing socket, reset, a truncated or garbled response
— are retried with exponential backoff and *seeded* jitter (an explicit
``jitter_seed``, never shared :mod:`random` state, so retry schedules are
reproducible).  Any transport failure closes the socket first, so a late
or partial answer can never be read as the response to the next request.
A kept socket the server closed since the last round trip (an idle close
at shutdown, a restart) fails before any response byte arrives; it gets
one silent reconnect that does not count against ``retries``.  Exhausted
retries raise :class:`~repro.service.errors.ServiceUnavailable` naming the
operation and the socket path.  Server-side failures are **not** retried:
an ``{"ok": false}`` response carries a ``code`` that maps back to the
typed :class:`~repro.service.errors.ServiceError` hierarchy
(:class:`~repro.service.errors.DeadlineExceeded`,
:class:`~repro.service.errors.ServiceOverloaded` with its ``retry_after``
hint, ...), exactly as the in-process scheduler raises them; the
connection stays open.

An optional :class:`~repro.service.faults.FaultPlan` injects connection
refusals (wherever a socket is opened) and truncated responses *below* the
retry layer, so the chaos suite exercises the same recovery code a flaky
network would.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Union

from repro.obs import trace as obs_trace
from repro.service.errors import (
    ServiceError,
    ServiceUnavailable,
    TransportError,
    error_from_code,
)
from repro.service.faults import FaultPlan

__all__ = ["ServiceClient", "ServiceError"]

#: transport failures worth a retry; server-side typed errors are not here
_RETRYABLE = (
    ConnectionError,  # refused, reset, aborted, broken pipe
    FileNotFoundError,  # the socket path does not exist (server not up yet)
    TimeoutError,  # socket.timeout is an alias since 3.10
    InterruptedError,
    TransportError,  # truncated / garbled / empty response
)


class ServiceClient:
    """Talk to a :class:`~repro.service.server.ServiceServer` over its socket.

    ``retries`` counts *additional* attempts after the first; attempt ``n``
    sleeps ``backoff * 2**n`` (capped at ``backoff_cap``) plus uniform
    seeded jitter of up to the same amount before retrying.
    """

    def __init__(
        self,
        socket_path: Union[str, Path],
        timeout: float = 120.0,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        jitter_seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.fault_plan = fault_plan
        self._jitter = Random(jitter_seed)
        self._socket: Optional[socket.socket] = None
        self._lock = threading.Lock()
        #: requests issued through :meth:`request`
        self.requests = 0
        #: transport failures that triggered a retry (observability)
        self.retried = 0
        #: sockets opened: one per client unless the server went away
        self.connections = 0

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the kept socket (the next request opens a new one)."""
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def _backoff_delay(self, attempt: int) -> float:
        base = min(self.backoff * (2 ** attempt), self.backoff_cap)
        return base + self._jitter.uniform(0.0, base)

    def _connect(self) -> socket.socket:
        if self.fault_plan is not None and self.fault_plan.connect_fault():
            raise ConnectionRefusedError(
                f"injected connection refusal to {self.socket_path}"
            )
        connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            connection.settimeout(self.timeout)
            connection.connect(self.socket_path)
        except BaseException:
            connection.close()
            raise
        self.connections += 1
        self._socket = connection
        return connection

    def _exchange(self, line: bytes) -> bytes:
        """Send one request line; return the raw response (possibly partial).

        A kept socket that fails before any response byte arrives was
        closed by the server since the last round trip: reconnect once.
        """
        kept = self._socket is not None
        connection = self._socket if kept else self._connect()
        chunks: List[bytes] = []
        try:
            connection.settimeout(self.timeout)
            connection.sendall(line)
            while True:
                chunk = connection.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
        except ConnectionError:
            if chunks or not kept:
                raise
        if chunks or not kept:
            return b"".join(chunks)
        self._drop()
        return self._exchange(line)  # a fresh socket: no second reconnect

    def _attempt(self, line: bytes, op: str) -> Dict[str, object]:
        """One send → receive → parse round trip on the kept socket."""
        try:
            data = self._exchange(line)
            if self.fault_plan is not None:
                data = self.fault_plan.response_fault(data)
            if not data:
                raise TransportError(
                    f"connection closed with no response to {op!r} on "
                    f"{self.socket_path}"
                )
            if not data.endswith(b"\n"):
                raise TransportError(
                    f"truncated response to {op!r} on {self.socket_path}"
                )
            try:
                response = json.loads(data.decode("utf-8"))
            except ValueError as error:
                raise TransportError(
                    f"truncated or garbled response to {op!r} on "
                    f"{self.socket_path}: {error}"
                ) from error
        except BaseException:
            # never leave a late or partial answer on the socket for the
            # next request to read
            self._drop()
            raise
        if not response.get("ok"):
            raise error_from_code(
                response.get("code"),
                str(response.get("error", "unknown server error")),
                retry_after=response.get("retry_after"),
            )
        return response.get("result", {})

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One round trip with bounded retries; returns the ``result``.

        Raises the typed :class:`ServiceError` subclass the server named, or
        :class:`ServiceUnavailable` when every attempt failed in transport.
        """
        op = str(payload.get("op", "request"))
        with self._lock, obs_trace.span("client.request", op=op) as request_span:
            self.requests += 1
            if request_span is not obs_trace.NULL_SPAN:
                # the propagation handoff: the traceparent rides the JSON
                # payload; the server parents its span under this one
                payload = dict(payload)
                payload["traceparent"] = request_span.context.to_traceparent()
            line = json.dumps(payload).encode("utf-8") + b"\n"
            last: Optional[BaseException] = None
            attempts = self.retries + 1
            for attempt in range(attempts):
                try:
                    return self._attempt(line, op)
                except _RETRYABLE as error:
                    last = error
                    if attempt + 1 < attempts:
                        self.retried += 1
                        delay = self._backoff_delay(attempt)
                        request_span.add_event(
                            "client.retry",
                            attempt=attempt + 1,
                            error=type(error).__name__,
                            backoff=round(delay, 4),
                        )
                        time.sleep(delay)
            request_span.set_tag("outcome", "unavailable")
            raise ServiceUnavailable(
                f"{op!r} request to {self.socket_path} failed after {attempts} "
                f"attempt(s): {type(last).__name__}: {last}"
            ) from last

    # -- operations -----------------------------------------------------------------
    def ping(self) -> bool:
        self.request({"op": "ping"})
        return True

    def register(self, source: str, name: Optional[str] = None) -> str:
        result = self.request({"op": "register", "source": source, "name": name})
        return str(result["digest"])

    def verify(
        self,
        digest: Optional[str] = None,
        source: Optional[str] = None,
        prop: str = "weak-endochrony",
        method: str = "auto",
        deadline: Optional[float] = None,
        **options: object,
    ) -> Dict[str, object]:
        """A property query by digest or by source; returns the verdict dict.

        ``deadline`` (seconds) travels with the request: the server answers
        a typed ``deadline-exceeded`` error when it expires, without
        cancelling the shared computation."""
        payload: Dict[str, object] = {
            "op": "verify",
            "prop": prop,
            "method": method,
            "options": options,
        }
        if deadline is not None:
            payload["deadline"] = deadline
        if digest:
            payload["digest"] = digest
        elif source:
            payload["source"] = source
        else:
            raise ValueError("verify needs a digest or a source")
        return self.request(payload)

    def describe(self, digest: str) -> Dict[str, object]:
        return self.request({"op": "describe", "digest": digest})

    def stats(self) -> Dict[str, object]:
        """The server's nested stats dict (deprecated key shapes preserved),
        with this client's own transport counters under ``"client"``."""
        stats = self.request({"op": "stats"})
        stats["client"] = self.local_stats()
        return stats

    def metrics(self) -> Dict[str, object]:
        """The server's unified metrics snapshot (``repro_*`` families)."""
        return self.request({"op": "metrics"})

    def local_stats(self) -> Dict[str, object]:
        """This client's own counters (no round trip)."""
        return {
            "requests": self.requests,
            "retried": self.retried,
            "connections": self.connections,
        }

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})
