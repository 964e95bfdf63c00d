"""Asynchronous query client (§III-C).

*"a client can either block and wait for the query result or continue to
other tasks when the servers are processing, as the communication between
PDC clients and servers happens asynchronously. The client has a
background thread that aggregates the results received from all servers
before storing them in the user's buffer."*

:class:`AsyncQueryClient` provides exactly that interface: ``submit``
returns a :class:`concurrent.futures.Future` immediately; a single
background thread drains the request queue in FIFO order (the simulated
server clocks are shared state, so requests are serialized — which also
mirrors the paper's sequential query evaluation) and resolves each future
with its :class:`~repro.query.executor.QueryResult`.  Batching
of concurrent requests is the query service's job
(:class:`~repro.service.QueryService`), not this client's.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Optional, Tuple

from ..errors import QueryError
from ..pdc.system import PDCSystem
from ..strategies import Strategy
from .ast import QueryNode
from .executor import GetDataResult, QueryEngine, QueryResult, QuerySpec
from .selection import Selection

__all__ = ["AsyncQueryClient"]


class AsyncQueryClient:
    """Background-thread query submission for one PDC system.

    Use as a context manager::

        with AsyncQueryClient(system) as client:
            f1 = client.submit(query1.node)
            f2 = client.submit(query2.node)
            ... do other work ...
            print(f1.result().nhits, f2.result().nhits)
    """

    _SHUTDOWN = object()

    def __init__(self, system: PDCSystem) -> None:
        self.system = system
        self.engine = QueryEngine(system)
        self._requests: "queue.Queue" = queue.Queue()
        self._worker = threading.Thread(
            target=self._drain, name="pdc-client-aggregator", daemon=True
        )
        self._closed = False
        # Guards the closed-check + put pair in _enqueue against shutdown():
        # without it a submit racing a concurrent shutdown can land its
        # request *behind* the sentinel, leaving the future unresolved and
        # the caller hung on .result().
        self._lifecycle_lock = threading.Lock()
        self._worker.start()

    # --------------------------------------------------------------- submit
    def submit(
        self,
        node: QueryNode,
        want_selection: bool = True,
        region_constraint: Optional[Tuple[int, int]] = None,
        strategy: Optional[Strategy] = None,
        timeout_s: Optional[float] = None,
    ) -> "Future[QueryResult]":
        """Queue a query; returns immediately with a future."""
        spec = QuerySpec(
            node=node,
            want_selection=want_selection,
            region_constraint=region_constraint,
            strategy=strategy,
            timeout_s=timeout_s,
        )
        return self._enqueue("query", spec)

    def submit_get_data(
        self,
        selection: Selection,
        object_name: str,
        strategy: Optional[Strategy] = None,
    ) -> "Future[GetDataResult]":
        """Queue a data retrieval; returns immediately with a future."""
        return self._enqueue(
            "call",
            lambda: self.engine.get_data(selection, object_name, strategy=strategy),
        )

    def _enqueue(self, kind: str, payload: Any) -> Future:
        with self._lifecycle_lock:
            if self._closed:
                raise QueryError("client is shut down")
            future: Future = Future()
            self._requests.put((kind, payload, future))
        return future

    # --------------------------------------------------------------- worker
    def _drain(self) -> None:
        while True:
            item = self._requests.get()
            if item is self._SHUTDOWN:
                return
            self._run_one(*item)

    def _run_one(self, kind: str, payload: Any, future: Future) -> None:
        if not future.set_running_or_notify_cancel():
            return
        try:
            if kind == "query":
                future.set_result(
                    self.engine.execute(
                        payload.node,
                        want_selection=payload.want_selection,
                        region_constraint=payload.region_constraint,
                        strategy=payload.strategy,
                        timeout_s=payload.timeout_s,
                    )
                )
            else:
                future.set_result(payload())
        except BaseException as exc:  # noqa: BLE001 - delivered via future
            future.set_exception(exc)

    # ------------------------------------------------------------- lifecycle
    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every queued request has been processed."""
        done = self._enqueue("call", lambda: None)
        done.result(timeout=timeout)

    def shutdown(self, timeout: Optional[float] = 10.0) -> None:
        """Process remaining requests, then stop the background thread.
        Idempotent."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            self._requests.put(self._SHUTDOWN)
        self._worker.join(timeout=timeout)
        if self._worker.is_alive():  # pragma: no cover - defensive
            raise QueryError("client aggregator thread did not stop")
        # Belt and braces: fail anything still queued (nothing can land here
        # once _closed is set, but a pre-fix pickle or subclass might have
        # raced) so no caller blocks forever on an unresolved future.
        while True:
            try:
                item = self._requests.get_nowait()
            except queue.Empty:
                break
            if item is self._SHUTDOWN:
                continue
            *_, future = item
            if future.set_running_or_notify_cancel():
                future.set_exception(QueryError("client shut down before execution"))

    def __enter__(self) -> "AsyncQueryClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
