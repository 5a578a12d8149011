"""The JSON-lines socket front of the verification service.

One request per line, one response per line, UTF-8 JSON both ways over a
local Unix-domain socket.  Operations mirror the programmatic API:

====================  ==========================================================
``{"op": "ping"}``                     liveness probe → ``{"ok": true}``
``{"op": "register", "source": ...}``  content-address a design → its digest
``{"op": "verify", ...}``              a property query (by ``digest`` or
                                       ``source``) → a JSON verdict; extra
                                       keys — ``prop``, ``method``,
                                       ``options`` — as in ``Design.verify``
``{"op": "describe", "digest": ...}``  per-process analysis summaries
``{"op": "stats"}``                    registry / store / scheduler counters
``{"op": "metrics"}``                  the unified metrics snapshot
                                       (``repro_*`` families; JSON)
``{"op": "shutdown"}``                 stop serving (used by tests and the CLI)
====================  ==========================================================

Responses are ``{"ok": true, "result": ...}`` or ``{"ok": false, "error":
"...", "code": "..."}``; a failing query never takes the server down.  The
``code`` is the stable name of the :mod:`repro.service.errors` class the
scheduler raised (``deadline-exceeded``, ``overloaded`` — with its
``retry_after`` hint as a sibling field — ``query-failed``, ...), so
clients rebuild the exact typed error; any other exception is reported
under the generic ``error`` code.  A ``verify`` request may carry a
``deadline`` (seconds), threaded to the scheduler's per-caller deadline.
Concurrent client connections are served concurrently — the scheduler's
coalescing applies across connections, which is the whole point of
fronting it with a socket.

A connection carries any number of requests, answered in order, until the
client closes it; :class:`~repro.service.client.ServiceClient` keeps one
open for its lifetime.  A ``verify`` result is spliced into the response
as the scheduler's cached JSON bytes, never decoded and re-encoded.  On
shutdown, connections idle between requests are closed at once; a
connection mid-request gets its answer first.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs import collect as obs_collect
from repro.obs import trace as obs_trace
from repro.service.errors import ServiceError
from repro.service.scheduler import VerificationService


class ServiceServer:
    """Serve one :class:`VerificationService` over a Unix socket."""

    def __init__(self, service: VerificationService, socket_path: Union[str, Path]):
        self.service = service
        self.socket_path = str(socket_path)
        self.connections = 0
        self.requests = 0
        self._stop: Optional["asyncio.Event"] = None
        self._handlers: set = set()
        #: writers of the connections waiting for their next request
        self._idle: set = set()
        service.metrics.register_collector(obs_collect.server_collector(self))

    # -- request dispatch ----------------------------------------------------------
    async def _dispatch(self, request: Dict[str, object]) -> Union[Dict[str, object], bytes]:
        """One request's ``result``; a verdict comes already JSON-encoded."""
        op = request.get("op")
        if op == "ping":
            return {}
        if op == "register":
            digest = self.service.register(
                str(request["source"]), name=request.get("name")
            )
            return {"digest": digest}
        if op == "verify":
            target = request.get("digest") or request.get("source")
            if not target:
                raise ValueError("verify needs a 'digest' or a 'source'")
            options = dict(request.get("options") or {})
            deadline = request.get("deadline")
            return await self.service.verify_encoded(
                str(target),
                str(request["prop"]),
                str(request.get("method", "auto")),
                deadline=float(deadline) if deadline is not None else None,
                **options,
            )
        if op == "describe":
            target = request.get("digest") or request.get("source")
            if not target:
                raise ValueError("describe needs a 'digest' or a 'source'")
            return await self.service.describe(str(target))
        if op == "stats":
            stats = self.service.stats()
            stats["server"] = {
                "socket": self.socket_path,
                "connections": self.connections,
                "requests": self.requests,
            }
            return stats
        if op == "metrics":
            return self.service.metrics.snapshot()
        if op == "shutdown":
            if self._stop is not None:
                self._stop.set()
            return {"stopping": True}
        raise ValueError(f"unknown operation {op!r}")

    #: per-request line limit: large pre-registered sources are normal,
    #: so allow well past asyncio's 64 KiB StreamReader default
    LINE_LIMIT = 16 * 1024 * 1024

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            while not self._stop.is_set():
                self._idle.add(writer)
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError) as error:
                    # an oversized request must get a protocol error, not a
                    # silently dropped connection; the buffer is no longer
                    # line-aligned afterwards, so close after responding
                    await self._respond(
                        writer,
                        json.dumps(
                            {"ok": False, "error": f"request too large: {error}"}
                        ).encode("utf-8"),
                    )
                    break
                finally:
                    self._idle.discard(writer)
                # a request racing shutdown finds its connection closed; the
                # client sees no response and reconnects or fails in transport
                if not line or self._stop.is_set():
                    break
                self.requests += 1
                try:
                    request = json.loads(line.decode("utf-8"))
                    # the receiving half of the client's traceparent handoff:
                    # this request's spans parent under the remote span
                    remote = (
                        obs_trace.extract(request) if obs_trace.TRACING else None
                    )
                    request.pop("traceparent", None)
                    with obs_trace.activate(remote):
                        with obs_trace.span(
                            "server.request", op=str(request.get("op"))
                        ):
                            result = await self._dispatch(request)
                    if not isinstance(result, bytes):
                        result = json.dumps(result).encode("utf-8")
                    response = b'{"ok": true, "result": ' + result + b"}"
                except ServiceError as error:
                    failure = {
                        "ok": False,
                        "error": f"{type(error).__name__}: {error}",
                        "code": error.code,
                    }
                    if error.retry_after is not None:
                        failure["retry_after"] = error.retry_after
                    response = json.dumps(failure).encode("utf-8")
                except Exception as error:  # noqa: BLE001 - protocol boundary
                    response = json.dumps(
                        {
                            "ok": False,
                            "error": f"{type(error).__name__}: {error}",
                            "code": "error",
                        }
                    ).encode("utf-8")
                if not await self._respond(writer, response):
                    break
        finally:
            # close without awaiting wait_closed(): on shutdown the loop
            # cancels pending handlers, and an awaited close here would
            # surface that cancellation as a spurious error callback
            writer.close()

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, response: bytes) -> bool:
        """Write one response line; False when the client has gone away
        (e.g. it timed out and closed its socket before the answer)."""
        try:
            writer.write(response + b"\n")
            await writer.drain()
        except ConnectionError:
            return False
        return True

    # -- lifecycle ------------------------------------------------------------------
    async def serve_forever(self, ready: Optional[object] = None) -> None:
        """Bind the socket and serve until a ``shutdown`` request (or cancel).

        ``ready``, when given, is an object with a ``set()`` method (e.g. a
        :class:`threading.Event`) signalled once the socket is accepting —
        how tests and the CLI synchronize with a server thread.
        """
        self._stop = asyncio.Event()
        path = Path(self.socket_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            path.unlink()
        server = await asyncio.start_unix_server(
            self._handle, path=self.socket_path, limit=self.LINE_LIMIT
        )
        try:
            if ready is not None:
                ready.set()
            await self._stop.wait()
        finally:
            self._stop.set()  # also when cancelled: handlers stop reading
            server.close()
            # kept-alive connections waiting for a request close now (their
            # handlers read EOF); one mid-request answers, then closes
            for writer in list(self._idle):
                writer.close()
            # let handlers finish on their own — a handler cancelled by loop
            # teardown logs a spurious error on some Python versions; only
            # hung connections get cancelled
            if self._handlers:
                await asyncio.wait(set(self._handlers), timeout=2)
            for task in set(self._handlers):
                task.cancel()
            # after the handlers: on Python >= 3.12.1 this waits for every
            # connection to close
            await server.wait_closed()
            try:
                path.unlink()
            except OSError:
                pass
