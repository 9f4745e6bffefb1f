"""Networked serving front end: a socket boundary in front of ServeSession.

The paper's threat model is many users querying a deployed artifact
over a real service boundary; until now ``ServeSession`` was an
in-process object, so the failure modes that matter at that boundary —
lost connections, duplicated requests, overloaded queues, crashed
servers — could not exist.  This module adds them, and the machinery
that survives them, without moving a single bit of any result:

- **frame protocol** — length-prefixed, CRC-checked frames carrying a
  JSON header plus raw array segments (:func:`encode_frame` /
  :class:`FrameParser`).  The CRC plus the length prefix make
  truncation and corruption *detectable*, which turns every wire fault
  into either a clean frame or a clean connection error — never a
  silently wrong array.
- **ServeServer** — a ``selectors``-driven event loop mapping ``submit``
  frames onto the existing session submit/drain/admission machinery.
  Backpressure propagates as structured error responses (the
  :class:`~repro.serve.resilience.ServeError` class name rides the
  header, so clients re-raise the same taxonomy), health/readiness
  probes answer even mid-drain, and shutdown drains gracefully:
  accepted work completes, new work is refused with an explicit
  ``rejected`` outcome.  A bounded idempotency window (plus the
  :mod:`~repro.serve.journal` write-ahead log when configured) makes
  retried requests serve the *recorded* response bytes instead of
  re-executing.
- **ServeClient** — per-request deadlines, timeout + exponential-
  backoff-with-jitter retries, and client-generated idempotency keys.
  A retried request re-sends the same key, so the server's dedup
  window guarantees at-most-once execution under at-least-once
  delivery — the classic idempotent-retry contract.
- **deterministic wire chaos** — every frame the client sends or
  receives passes through the PR 6 fault harness
  (:func:`repro.serve.faults.frame` at ``net.client.send`` /
  ``net.client.recv``): seeded drop / duplicate / delay / truncate
  faults, with latency advancing a
  :class:`~repro.serve.resilience.ManualClock` so chaos replays
  bit-for-bit without a single real sleep.
- **load generation** — :func:`replay_net` replays a recorded workload
  through a client honoring per-job ``arrival_offset_s`` at an
  accelerated rate (10-100x), and :func:`verify_net_parity` closes the
  loop with the existing parity gate: every client-visible ``ok``
  result bit-identical to the in-process solo run.

Doctest — frames round-trip exactly, and the parser refuses torn ones::

    >>> import numpy as np
    >>> raw = encode_frame({"op": "submit", "key": "k0"},
    ...                    {"x": np.ones((2, 3), dtype=np.float32)})
    >>> p = FrameParser(); p.feed(raw)
    >>> [(h["key"], sorted(a)) for h, a, _ in p.frames()]
    [('k0', ['x'])]
    >>> p.feed(raw[:len(raw) - 3])          # truncated: parser just waits
    >>> list(p.frames())
    []
    >>> p.partial                            # ...holding a torn frame
    True
"""

from __future__ import annotations

import itertools
import json
import math
import os
import selectors
import socket
import struct
import time
import zlib
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import faults
from .journal import Journal
from .resilience import (AdmissionError, Clock, DeadlineError, JobError,
                         ManualClock, QuotaError, ServeError, ShedError)
from .scheduler import JobFuture
from .session import ServeSession

# --------------------------------------------------------------------- #
# errors
# --------------------------------------------------------------------- #


class NetError(ServeError):
    """Base class of transport-level serving failures (client side)."""


class ProtocolError(NetError):
    """The byte stream violated the frame protocol (bad magic/version,
    CRC mismatch, oversized frame) — the connection cannot be trusted
    past this point and is torn down."""


class RetryError(NetError):
    """Every retry attempt was spent without a response; the last
    transport failure (if any) is chained via ``__cause__``."""


#: ServeError classes that may cross the wire by name; anything else
#: (including injected faults) comes back as a JobError with the
#: original class name in the message
_WIRE_ERRORS = {cls.__name__: cls for cls in
                (AdmissionError, ShedError, QuotaError, JobError,
                 DeadlineError)}


def _error_from_wire(name: str, message: str) -> ServeError:
    cls = _WIRE_ERRORS.get(name)
    if cls is None:
        return JobError(f"{name}: {message}")
    return cls(message)


# --------------------------------------------------------------------- #
# frame codec
# --------------------------------------------------------------------- #

MAGIC = b"RV"
VERSION = 1
#: magic, version, flags, payload length, payload crc32
_PREFIX = struct.Struct(">2sBBII")
#: refuse absurd lengths before allocating (a corrupted length prefix
#: must not become an OOM)
MAX_FRAME_BYTES = 1 << 28


def encode_frame(header: Dict[str, Any],
                 arrays: Optional[Dict[str, np.ndarray]] = None) -> bytes:
    """One wire frame: prefix + (json header || raw array segments).

    Array metadata (name/dtype/shape, in segment order) is folded into
    the header under ``"arrays"``; the segments themselves ride as raw
    bytes after the JSON, so numeric payloads cross the wire without
    base64 inflation or precision laundering.
    """
    arrays = arrays or {}
    meta = []
    segments = []
    for name, arr in arrays.items():
        # asarray, not ascontiguousarray: the latter makes 0-d arrays 1-d;
        # tobytes() is C-order either way
        arr = np.asarray(arr)
        meta.append({"name": name, "dtype": arr.dtype.str,
                     "shape": list(arr.shape)})
        segments.append(arr.tobytes())
    hdr = dict(header)
    hdr["arrays"] = meta
    hjson = json.dumps(hdr, sort_keys=True).encode("utf-8")
    payload = struct.pack(">I", len(hjson)) + hjson + b"".join(segments)
    prefix = _PREFIX.pack(MAGIC, VERSION, 0, len(payload),
                          zlib.crc32(payload))
    return prefix + payload


def _array_meta(meta: Any) -> Tuple[str, np.dtype, Tuple[int, ...]]:
    """Validated ``(name, dtype, shape)`` of one array segment header.

    The metadata is untrusted: anything but a string name, a plain
    numeric/bool dtype string and a list of non-negative int dims is a
    :class:`ProtocolError`, never a numpy/KeyError escaping the parser.
    """
    if not isinstance(meta, dict):
        raise ProtocolError("array metadata must be an object")
    missing = [k for k in ("name", "dtype", "shape") if k not in meta]
    if missing:
        raise ProtocolError(f"array metadata lacks {', '.join(missing)}")
    name, dtype_str, shape = meta["name"], meta["dtype"], meta["shape"]
    if not isinstance(name, str):
        raise ProtocolError("array name must be a string")
    if not isinstance(dtype_str, str):
        raise ProtocolError("array dtype must be a string")
    try:
        dtype = np.dtype(dtype_str)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unknown array dtype {dtype_str!r}") from exc
    if dtype.kind not in "biufc":
        raise ProtocolError(f"array dtype {dtype_str!r} is not numeric")
    if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0
            for d in shape):
        raise ProtocolError(f"array shape {shape!r} is not a list of "
                            "non-negative ints")
    return name, dtype, tuple(shape)


def _decode_payload(payload: bytes
                    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    if len(payload) < 4:
        raise ProtocolError("payload too short for a header length")
    (hlen,) = struct.unpack_from(">I", payload)
    if hlen > len(payload) - 4:
        raise ProtocolError("header length exceeds payload")
    try:
        header = json.loads(payload[4:4 + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # incl. Unicode/JSON
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    metas = header.pop("arrays", [])
    if not isinstance(metas, list):
        raise ProtocolError("frame array metadata must be a list")
    arrays: Dict[str, np.ndarray] = {}
    offset = 4 + hlen
    for meta in metas:
        name, dtype, shape = _array_meta(meta)
        count = math.prod(shape)          # python ints: cannot overflow
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(payload):
            raise ProtocolError("array segment exceeds payload")
        arrays[name] = np.frombuffer(
            payload, dtype=dtype, count=count,
            offset=offset).reshape(shape).copy()
        offset += nbytes
    return header, arrays


class FrameParser:
    """Incremental frame parser over an untrusted byte stream.

    ``feed`` bytes as they arrive; ``frames()`` yields every complete
    ``(header, arrays, raw_frame_bytes)`` and leaves a trailing partial
    frame buffered (``partial``) — a connection that dies mid-frame
    simply abandons it.  Violations (bad magic, CRC mismatch, bogus
    lengths) raise :class:`ProtocolError`: the stream is beyond resync
    and the owner must close it.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf += data

    @property
    def partial(self) -> bool:
        return len(self._buf) > 0

    def frames(self):
        while True:
            if len(self._buf) < _PREFIX.size:
                return
            magic, version, _flags, length, crc = _PREFIX.unpack_from(
                self._buf)
            if magic != MAGIC or version != VERSION:
                raise ProtocolError(
                    f"bad frame prefix (magic {magic!r}, version {version})")
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"frame length {length} exceeds cap")
            total = _PREFIX.size + length
            if len(self._buf) < total:
                return
            raw = bytes(self._buf[:total])
            payload = raw[_PREFIX.size:]
            del self._buf[:total]
            if zlib.crc32(payload) != crc:
                raise ProtocolError("frame CRC mismatch")
            header, arrays = _decode_payload(payload)
            yield header, arrays, raw

    def reset(self) -> None:
        self._buf.clear()


# --------------------------------------------------------------------- #
# server
# --------------------------------------------------------------------- #


class _Conn:
    """Per-connection state: its socket, parser, and outbound buffer."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.parser = FrameParser()
        self.out = bytearray()
        self.open = True

    def close(self) -> None:
        if self.open:
            self.open = False
            try:
                self.sock.close()
            except OSError:
                pass


class ServeServer:
    """Socket front end over one :class:`~repro.serve.session.ServeSession`.

    Parameters
    ----------
    session:
        The session every accepted job is submitted to.  Admission
        control, coalescing, the degradation ladder and deadline
        handling all stay the session's business — the server only maps
        frames onto submits and futures onto response frames.
    spec / models:
        Server-side model state: either a workload spec dict (models
        built via :func:`~repro.serve.workload.build_models`) or a
        prebuilt ``(original, adapted, edge)`` triple.  Attack jobs are
        materialized per request from their resolved spec record via
        :func:`~repro.serve.workload.attack_factory`.
    host / port:
        Listen address; port 0 picks a free port (``server.port`` holds
        the bound one).
    journal_path:
        Write-ahead journal location.  When given, accepted requests
        are journaled before submission and completed responses after;
        an existing journal is recovered on construction — completed
        responses reload the dedup window *verbatim* and interrupted
        accepts are re-submitted (see :mod:`repro.serve.journal`).
    dedup_window:
        Bound on the idempotency window (completed responses kept for
        retried keys).  A retry arriving after its entry was evicted
        re-executes — bit-identical by the serving stack's determinism,
        but the window is what makes the common case free.
    """

    def __init__(self, session: ServeSession, spec: Optional[Dict] = None,
                 models: Optional[Tuple[Any, Any, Any]] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 journal_path: Optional[str] = None,
                 journal_sync: bool = False,
                 dedup_window: int = 256):
        if models is None:
            if spec is None:
                raise ValueError("ServeServer needs a workload spec or a "
                                 "prebuilt (original, adapted, edge) triple")
            from .workload import build_models
            models = build_models(spec)
        self.session = session
        self.original, self.adapted, self.edge = models
        self.default_steps = int((spec or {}).get("steps", 10))
        self.dedup_window = int(dedup_window)

        self._dedup: "OrderedDict[str, bytes]" = OrderedDict()
        #: key -> (future, waiter conns, request header)
        self._inflight: "OrderedDict[str, Tuple[JobFuture, List[_Conn], Dict]]" = OrderedDict()
        self._draining = False
        self._closed = False
        self._shutdown_requested = False
        self.deduped = 0
        self.accepted = 0
        self.rejected_draining = 0
        self.recovered_completed = 0
        self.recovered_incomplete = 0

        self.journal: Optional[Journal] = None
        if journal_path is not None:
            incomplete, completed = Journal.scan(journal_path)
            for key, (outcome, hdr, arrs) in completed.items():
                self._remember(key, encode_frame(hdr, arrs))
            self.recovered_completed = len(completed)
            self.journal = Journal(journal_path, sync=journal_sync)
            for key, (hdr, arrs) in incomplete.items():
                future = self._submit(hdr, arrs)
                self._inflight[key] = (future, [], hdr)
            self.recovered_incomplete = len(incomplete)

        self._listener = socket.create_server((host, port), backlog=64)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self._conns: List[_Conn] = []

    # -- submission plumbing --------------------------------------------- #
    def _submit(self, header: Dict[str, Any],
                arrays: Dict[str, np.ndarray]) -> JobFuture:
        """Map one submit header onto the session's own submit calls."""
        from .workload import attack_factory

        rec = header["job"]
        kind = rec["kind"]
        tenant = header.get("tenant")
        deadline_s = header.get("deadline_s")
        if kind == "predict":
            return self.session.submit_predict(self.edge, arrays["x"],
                                               tenant=tenant)
        if kind == "predict_float":
            return self.session.submit_predict(self.adapted, arrays["x"],
                                               tenant=tenant)
        make = attack_factory(self.original, self.adapted, rec,
                              default_steps=self.default_steps)
        return self.session.submit_attack(make(), arrays["x"], arrays["y"],
                                          tenant=tenant,
                                          deadline_s=deadline_s)

    def _remember(self, key: str, frame_bytes: bytes) -> None:
        self._dedup[key] = frame_bytes
        self._dedup.move_to_end(key)
        while len(self._dedup) > self.dedup_window:
            self._dedup.popitem(last=False)

    def _handle_submit(self, conn: Optional[_Conn],
                       header: Dict[str, Any],
                       arrays: Dict[str, np.ndarray]) -> None:
        key = header["key"]
        if key in self._dedup:
            # the idempotent-retry fast path: the recorded response
            # bytes, never a second execution
            self.deduped += 1
            if conn is not None:
                conn.out += self._dedup[key]
            return
        if key in self._inflight:
            self.deduped += 1
            if conn is not None:
                future, waiters, hdr = self._inflight[key]
                if conn not in waiters:
                    waiters.append(conn)
            return
        if self._draining:
            self.rejected_draining += 1
            resp = encode_frame({
                "op": "result", "key": key, "outcome": "rejected",
                "error": "ShedError",
                "message": "server draining: request refused at the "
                           "boundary, resubmit after failover"})
            if conn is not None:
                conn.out += resp
            return
        if self.journal is not None:
            self.journal.accept(key, header, arrays)
        self.accepted += 1
        try:
            future = self._submit(header, arrays)
        except Exception as exc:      # noqa: BLE001 - malformed request
            # submit-time validation failures (bad rows, unknown kind)
            # are the requester's own; answer structurally and move on
            future = JobFuture(lambda timeout=None: None)
            future._fail(JobError(f"{type(exc).__name__}: {exc}"),
                         outcome="rejected")
        self._inflight[key] = (future, [conn] if conn is not None else [],
                               header)

    def _handle_frame(self, conn: _Conn, header: Dict[str, Any],
                      arrays: Dict[str, np.ndarray]) -> None:
        op = header.get("op")
        key = header.get("key")
        if op == "submit":
            self._handle_submit(conn, header, arrays)
        elif op == "health":
            conn.out += encode_frame({"op": "health", "key": key,
                                      "ok": True})
        elif op == "ready":
            conn.out += encode_frame({
                "op": "ready", "key": key,
                "ready": not self._draining and not self._closed})
        elif op == "stats":
            conn.out += encode_frame({"op": "stats", "key": key,
                                      "stats": self.stats})
        elif op == "shutdown":
            self._shutdown_requested = True
            conn.out += encode_frame({"op": "shutdown", "key": key,
                                      "ok": True})
        else:
            conn.out += encode_frame({
                "op": "result", "key": key, "outcome": "rejected",
                "error": "JobError", "message": f"unknown op {op!r}"})

    def _response_for(self, key: str, future: JobFuture
                      ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        if future._error is not None:
            return ({"op": "result", "key": key, "outcome": future.outcome,
                     "error": type(future._error).__name__,
                     "message": str(future._error)}, {})
        info = {}
        for name, val in (future.info or {}).items():
            info[name] = (np.asarray(val).tolist()
                          if isinstance(val, np.ndarray) else val)
        header = {"op": "result", "key": key, "outcome": future.outcome,
                  "info": info}
        value = future._value
        if isinstance(value, np.ndarray):
            return header, {"result": value}
        return header, {}

    def _settle_inflight(self) -> int:
        """Turn every resolved inflight future into a response frame,
        journal it, remember it in the dedup window, and queue it to
        every waiter connection."""
        settled = 0
        for key in list(self._inflight):
            future, waiters, _header = self._inflight[key]
            if not future.done:
                continue
            resp_header, resp_arrays = self._response_for(key, future)
            frame_bytes = encode_frame(resp_header, resp_arrays)
            if self.journal is not None:
                self.journal.complete(key, future.outcome or "failed",
                                      resp_header, resp_arrays)
            self._remember(key, frame_bytes)
            del self._inflight[key]
            for conn in waiters:
                if conn.open:
                    conn.out += frame_bytes
            settled += 1
        return settled

    # -- event loop ------------------------------------------------------- #
    def _accept_ready(self) -> List[_Conn]:
        accepted: List[_Conn] = []
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return accepted
            sock.setblocking(False)
            conn = _Conn(sock)
            self._conns.append(conn)
            self._sel.register(sock, selectors.EVENT_READ, conn)
            accepted.append(conn)

    def _drop_conn(self, conn: _Conn) -> None:
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.close()
        if conn in self._conns:
            self._conns.remove(conn)

    def _read_conn(self, conn: _Conn) -> List[Tuple[_Conn, Dict, Dict]]:
        """Drain one readable connection into parsed frames; a protocol
        violation or EOF mid-frame discards the partial and closes."""
        frames: List[Tuple[_Conn, Dict, Dict]] = []
        while True:
            try:
                data = conn.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop_conn(conn)
                return frames
            if not data:
                # peer closed; a buffered partial frame is a truncated
                # request — refused by construction (never half-parsed)
                self._drop_conn(conn)
                return frames
            conn.parser.feed(data)
            try:
                for header, arrays, _raw in conn.parser.frames():
                    frames.append((conn, header, arrays))
            except ProtocolError:
                self._drop_conn(conn)
                return frames
        return frames

    def _flush(self, conn: _Conn) -> None:
        while conn.out and conn.open:
            try:
                sent = conn.sock.send(conn.out)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._drop_conn(conn)
                return
            if sent <= 0:
                return
            del conn.out[:sent]

    def poll(self, io_timeout: float = 0.0, drain: bool = True) -> int:
        """One event-loop round: accept, read, submit, drain, respond.

        Every complete frame available *now* is read before the session
        drains, so concurrent submits coalesce exactly as in-process
        ones do.  Returns the number of frames handled plus futures
        settled — the client's loopback pump uses this as its progress
        signal.  ``drain=False`` accepts and journals without serving
        (the crash-window tests' hook: an accepted-not-completed job is
        exactly what a mid-drain kill leaves behind).
        """
        if self._closed:
            return 0
        activity = 0
        readable: List[_Conn] = []
        for sel_key, _events in self._sel.select(timeout=io_timeout):
            if sel_key.data is None:
                # frames riding the connect are readable immediately —
                # read fresh conns this round, not next poll's
                readable.extend(self._accept_ready())
            else:
                readable.append(sel_key.data)
        for ready in readable:
            for conn, header, arrays in self._read_conn(ready):
                self._handle_frame(conn, header, arrays)
                activity += 1
        if drain and self.session.scheduler.pending:
            self.session.drain()
        activity += self._settle_inflight()
        for conn in list(self._conns):
            self._flush(conn)
        return activity

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        """Blocking loop for a standalone server process
        (``repro-exp serve --listen``); exits after a ``shutdown`` op
        or :meth:`shutdown` from a signal handler, draining first."""
        while not self._closed and not self._shutdown_requested:
            self.poll(io_timeout=poll_interval)
        if not self._closed:
            self.shutdown(drain=True)

    # -- lifecycle -------------------------------------------------------- #
    def begin_drain(self) -> None:
        """Stop accepting new work; inflight jobs keep their promise."""
        self._draining = True

    def shutdown(self, drain: bool = True) -> None:
        """Graceful stop: refuse new work, serve accepted work, flush
        every response, then close.  With ``drain=False`` accepted jobs
        are abandoned (their journal accepts survive for recovery) —
        prefer :meth:`kill` to model a crash."""
        if self._closed:
            return
        self.begin_drain()
        if drain:
            self.session.drain()
            self._settle_inflight()
            deadline = time.monotonic() + 5.0
            while (any(c.out for c in self._conns)
                   and time.monotonic() < deadline):
                for conn in list(self._conns):
                    self._flush(conn)
        self._close_everything()
        if self.journal is not None:
            self.journal.close()

    def kill(self) -> None:
        """Abrupt crash: connections die mid-whatever, nothing drains,
        nothing settles.  The journal file (appends are flushed per
        record) is exactly what a restarted server recovers from."""
        self._close_everything()
        if self.journal is not None:
            self.journal.close()

    def _close_everything(self) -> None:
        for conn in list(self._conns):
            self._drop_conn(conn)
        try:
            self._sel.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._sel.close()
        self._closed = True

    @property
    def stats(self) -> Dict[str, Any]:
        out = {
            "accepted": self.accepted,
            "deduped": self.deduped,
            "rejected_draining": self.rejected_draining,
            "inflight": len(self._inflight),
            "dedup_entries": len(self._dedup),
            "draining": self._draining,
            "recovered_completed": self.recovered_completed,
            "recovered_incomplete": self.recovered_incomplete,
            "outcome_counts": dict(self.session.scheduler.outcomes),
        }
        if self.journal is not None:
            out["journal"] = {"accepts": self.journal.accepts,
                              "completes": self.journal.completes}
        return out

    def __enter__(self) -> "ServeServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._closed:
            self.shutdown(drain=True)
        elif not self._closed:
            self.kill()


# --------------------------------------------------------------------- #
# client
# --------------------------------------------------------------------- #

_CLIENT_IDS = itertools.count()


class ServeClient:
    """Retrying, idempotent client for :class:`ServeServer`.

    Every logical request gets a client-unique idempotency key and a
    canonical frame; :meth:`submit` returns a
    :class:`~repro.serve.scheduler.JobFuture` whose ``result(timeout=
    ...)`` drives the wait/retry loop:

    - wait up to ``attempt_timeout_s`` for the response frame;
    - on timeout, connection loss or a protocol violation, back off
      (exponential with seeded jitter, capped) and re-send the *same*
      frame — the server's idempotency window turns the retry into a
      replayed response, never a second execution;
    - after ``max_retries`` spent attempts raise :class:`RetryError`
      (the last transport error chained), and on an expired
      per-request deadline raise
      :class:`~repro.serve.resilience.DeadlineError`.

    All waiting reads ``clock`` — pass the session's
    :class:`~repro.serve.resilience.ManualClock` plus a ``pump``
    callable (the loopback server's ``poll``) and the whole
    request/retry/backoff dance runs deterministically with no real
    sleeps: chaos replays are bit-for-bit repeatable from the fault
    seed.  Without a pump the client blocks on the socket with real
    timeouts, which is the ``--connect`` / separate-process mode.
    """

    def __init__(self, host: str, port: int,
                 clock: Optional[Clock] = None,
                 attempt_timeout_s: float = 1.0,
                 max_retries: int = 5,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0,
                 retry_seed: int = 0,
                 pump: Optional[Callable[[], int]] = None,
                 client_id: Optional[str] = None):
        self.host, self.port = host, int(port)
        self.clock = clock if clock is not None else Clock()
        self.attempt_timeout_s = float(attempt_timeout_s)
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.pump = pump
        self.client_id = (client_id if client_id is not None
                          else f"c{os.getpid():x}-{next(_CLIENT_IDS)}")
        self._rng = np.random.default_rng(retry_seed)
        self._counter = itertools.count()
        self._sock: Optional[socket.socket] = None
        self._parser = FrameParser()
        self._futures: Dict[str, JobFuture] = {}
        self._requests: Dict[str, bytes] = {}
        self.retries = 0
        self.timeouts = 0
        self.reconnects = 0
        self.protocol_errors = 0
        self.frames_sent = 0
        self.stale_frames = 0

    # -- transport -------------------------------------------------------- #
    def _ensure_conn(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=5.0)
            self._sock = sock
            self._parser.reset()
            self.reconnects += 1
        return self._sock

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._parser.reset()

    def _transmit(self, payload: bytes) -> None:
        """Put one frame on the wire, through the fault harness.  Frame
        faults rewrite the delivery plan (drop / duplicate / truncate),
        and transport errors are swallowed here — the await/retry loop
        is the recovery path, not the send."""
        for action, data in faults.frame("net.client.send", payload):
            try:
                sock = self._ensure_conn()
                sock.settimeout(2.0)
                sock.sendall(data)
                self.frames_sent += 1
            except OSError:
                self._teardown()
                return
            if action == "truncate":
                # a cut frame is only a *fault* if the stream dies with
                # it — otherwise the peer would just wait forever
                self._teardown()
                return

    # -- receive ---------------------------------------------------------- #
    def _handle_response(self, header: Dict[str, Any],
                         arrays: Dict[str, np.ndarray]) -> None:
        key = header.get("key")
        future = self._futures.get(key)
        if future is None or future.done:
            self.stale_frames += 1
            return
        if header.get("op") != "result":
            future._resolve(header)
            return
        outcome = header.get("outcome") or "failed"
        if "error" in header:
            future._fail(_error_from_wire(header["error"],
                                          header.get("message", "")),
                         outcome=outcome)
        else:
            info = dict(header.get("info") or {})
            if "steps_done" in info:
                info["steps_done"] = np.asarray(info["steps_done"])
            future._resolve(arrays.get("result"), outcome=outcome,
                            info=info)

    def _recv_frames(self, slice_s: float) -> Tuple[int, int]:
        """Read whatever the wire has within ``slice_s``; returns
        ``(frames_processed, bytes_read)`` — bytes count as progress
        even when they end mid-frame (the parser holds the partial),
        so a response split across reads never burns a retry attempt.
        Recv-side frame faults may drop or duplicate frames first."""
        try:
            sock = self._ensure_conn()
        except OSError:
            return 0, 0
        try:
            sock.settimeout(slice_s if slice_s > 0 else 0.000001)
            data = sock.recv(1 << 16)
        except socket.timeout:
            return 0, 0
        except OSError:
            self._teardown()
            return 0, 0
        if not data:
            self._teardown()
            return 0, 0
        self._parser.feed(data)
        processed = 0
        try:
            parsed = list(self._parser.frames())
        except ProtocolError:
            self.protocol_errors += 1
            self._teardown()
            return processed, len(data)
        for header, arrays, raw in parsed:
            for action, _data in faults.frame("net.client.recv", raw):
                if action == "truncate":
                    # a response cut mid-frame: the stream is unusable
                    self.protocol_errors += 1
                    self._teardown()
                    return processed, len(data)
                self._handle_response(header, arrays)
                processed += 1
        return processed, len(data)

    # -- the wait/retry loop ---------------------------------------------- #
    def _sleep(self, dt: float) -> None:
        if isinstance(self.clock, ManualClock):
            self.clock.advance(dt)
        else:
            time.sleep(dt)

    def _backoff_s(self, attempt: int) -> float:
        base = min(self.backoff_cap_s,
                   self.backoff_base_s * (2.0 ** (attempt - 1)))
        return base * (0.5 + 0.5 * float(self._rng.random()))

    def _await(self, key: str, timeout: Optional[float]) -> None:
        future = self._futures[key]
        overall = (None if timeout is None
                   else self.clock.now() + float(timeout))
        attempt = 0
        last_exc: Optional[BaseException] = None
        while not future.done:
            if overall is not None and self.clock.now() >= overall:
                raise DeadlineError(
                    f"no response for {key!r} within the {timeout}s wait")
            attempt_deadline = self.clock.now() + self.attempt_timeout_s
            while not future.done:
                if self.pump is not None:
                    self.pump()
                processed, got = self._recv_frames(
                    0.05 if self.pump is None else 0.02)
                if future.done:
                    break
                if processed == 0 and got == 0:
                    if self.pump is not None:
                        # deterministic loopback: the server settled
                        # everything it will without a re-send — burn
                        # the attempt budget on the manual clock
                        self._sleep(max(
                            0.0, attempt_deadline - self.clock.now()))
                    if self.clock.now() >= attempt_deadline:
                        break
                if (overall is not None
                        and self.clock.now() >= overall):
                    break
            if future.done:
                break
            attempt += 1
            self.timeouts += 1
            if attempt > self.max_retries:
                err = RetryError(
                    f"no response for {key!r} after {attempt} attempts")
                if last_exc is not None:
                    raise err from last_exc
                raise err
            self.retries += 1
            self._sleep(self._backoff_s(attempt))
            self._transmit(self._requests[key])

    # -- public API -------------------------------------------------------- #
    def submit(self, record: Dict[str, Any], x: np.ndarray,
               y: Optional[np.ndarray] = None, tenant: Any = None,
               deadline_s: Optional[float] = None) -> JobFuture:
        """Send one job (a resolved workload record plus its arrays);
        returns a future whose ``result(timeout=...)`` runs the retry
        loop.  The idempotency key is assigned here and reused by every
        retry of this request."""
        key = f"{self.client_id}-{next(self._counter)}"
        header: Dict[str, Any] = {"op": "submit", "key": key,
                                  "job": dict(record)}
        if tenant is not None:
            header["tenant"] = tenant
        if deadline_s is not None:
            header["deadline_s"] = float(deadline_s)
        arrays: Dict[str, np.ndarray] = {"x": np.asarray(x)}
        if y is not None:
            arrays["y"] = np.asarray(y)
        payload = encode_frame(header, arrays)
        future = JobFuture(lambda timeout=None, k=key: self._await(k, timeout))
        self._futures[key] = future
        self._requests[key] = payload
        self._transmit(payload)
        return future

    def _op(self, op: str, timeout: Optional[float] = None
            ) -> Dict[str, Any]:
        key = f"{self.client_id}-{next(self._counter)}"
        payload = encode_frame({"op": op, "key": key})
        future = JobFuture(lambda timeout=timeout, k=key: self._await(k, timeout))
        self._futures[key] = future
        self._requests[key] = payload
        self._transmit(payload)
        return future.result()

    def health(self) -> bool:
        return bool(self._op("health").get("ok"))

    def ready(self) -> bool:
        return bool(self._op("ready").get("ready"))

    def server_stats(self) -> Dict[str, Any]:
        return dict(self._op("stats").get("stats") or {})

    def shutdown_server(self) -> bool:
        return bool(self._op("shutdown").get("ok"))

    @property
    def stats(self) -> Dict[str, int]:
        return {"retries": self.retries, "timeouts": self.timeouts,
                "reconnects": self.reconnects,
                "protocol_errors": self.protocol_errors,
                "frames_sent": self.frames_sent,
                "stale_frames": self.stale_frames}

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# --------------------------------------------------------------------- #
# load generation + the parity gate
# --------------------------------------------------------------------- #


def replay_net(workload, client: ServeClient, rate: float = 10.0,
               result_timeout_s: Optional[float] = None) -> Dict[str, Any]:
    """Replay a recorded workload through a client as an open-loop
    arrival process.

    Jobs are submitted in ``arrival_offset_s`` order with the offsets
    compressed by ``rate`` (10 = a 10x-accelerated replay of the
    recorded trace); under a :class:`~repro.serve.resilience.
    ManualClock` the inter-arrival gaps advance the clock instead of
    sleeping, so a 100x replay takes exactly as long as the compute it
    schedules.  Results/outcomes/errors come back in *original job
    order*, shaped like :func:`~repro.serve.workload.replay_serve`'s
    record so the same parity checks apply.
    """
    order = sorted(range(len(workload.jobs)),
                   key=lambda i: (workload.jobs[i].arrival_offset_s, i))
    futures: List[Optional[JobFuture]] = [None] * len(workload.jobs)
    t0 = time.perf_counter()
    epoch = client.clock.now()
    for i in order:
        job = workload.jobs[i]
        if job.record is None:
            raise ValueError("networked replay needs materialized spec "
                             "records (rebuild the workload with "
                             "build_workload)")
        if rate and job.arrival_offset_s:
            # open-loop arrivals at `rate`x the recorded trace; on a
            # manual clock the inter-arrival gap is an advance, not a
            # sleep, so accelerated replays cost no wall time
            gap = (epoch + job.arrival_offset_s / float(rate)
                   - client.clock.now())
            if gap > 0:
                if isinstance(client.clock, ManualClock):
                    client.clock.advance(gap)
                else:
                    time.sleep(gap)
        futures[i] = client.submit(job.record, job.x, job.y,
                                   tenant=job.tenant,
                                   deadline_s=job.deadline_s)
    results: List[Optional[np.ndarray]] = []
    errors: List[Optional[BaseException]] = []
    outcomes: List[Optional[str]] = []
    for future in futures:
        try:
            value = future.result(timeout=result_timeout_s)
            results.append(value)
            errors.append(None)
        except ServeError as exc:
            results.append(None)
            errors.append(exc)
        outcomes.append(future.outcome or "lost")
    counts: Dict[str, int] = {}
    for o in outcomes:
        counts[o] = counts.get(o, 0) + 1
    return {"results": results, "errors": errors, "outcomes": outcomes,
            "outcome_counts": counts,
            "shed": sum(1 for e in errors if isinstance(e, ShedError)),
            "seconds": time.perf_counter() - t0,
            "rows": workload.rows, "jobs": len(workload.jobs),
            "client": dict(client.stats)}


def verify_net_parity(workload, fault_specs=None, seed: int = 0,
                      rate: float = 10.0, capacity: int = 64,
                      journal_path: Optional[str] = None,
                      deadline_s: Optional[float] = None,
                      reference: Optional[List] = None) -> Dict[str, Any]:
    """The networked acceptance gate: loopback server + retrying client
    (optionally under seeded frame chaos), every client-visible ``ok``
    result bit-identical to the solo in-process run.

    Builds a :class:`~repro.serve.resilience.ManualClock` world: the
    session, server, client and fault injector all share it, so the
    entire replay — arrivals, retries, backoff, latency faults — is
    deterministic from ``(workload, fault_specs, seed)``.  Returns the
    outcome breakdown plus client/server stats (``retried`` /
    ``deduped`` land in the CLI's per-outcome line).  The server's
    ``poll`` loop, driven here as the client's ``pump``, drains the
    session's sequential scheduler.
    """
    if reference is None:
        from .workload import replay_sequential
        reference = replay_sequential(workload)["results"]
    clock = ManualClock()
    session = ServeSession(capacity=capacity, clock=clock,
                           default_deadline_s=deadline_s,
                           quarantine_cooldown_s=0.5,
                           failure_cooldown_s=0.5)
    server = ServeServer(session, spec=workload.spec,
                         models=(workload.original, workload.adapted,
                                 workload.edge),
                         journal_path=journal_path)
    client = ServeClient(server.host, server.port, clock=clock,
                         attempt_timeout_s=0.25, retry_seed=seed,
                         pump=server.poll)
    injector = None
    try:
        if fault_specs is not None:
            injector = faults.FaultInjector(fault_specs, seed=seed,
                                            clock=clock)
            with faults.inject(injector):
                srv = replay_net(workload, client, rate=rate)
        else:
            srv = replay_net(workload, client, rate=rate)
        server_stats = server.stats
    finally:
        client.close()
        server.shutdown(drain=True)
    for i, outcome in enumerate(srv["outcomes"]):
        kind = workload.jobs[i].kind
        if outcome == "ok":
            a, b = reference[i], srv["results"][i]
            if not (a.shape == b.shape and a.dtype == b.dtype
                    and np.array_equal(a, b)):
                raise AssertionError(
                    f"job {i} ({kind}) completed ok over the wire but "
                    "diverged from its solo in-process run")
        elif outcome == "deadline-degraded":
            b = srv["results"][i]
            if b is None or b.shape != reference[i].shape:
                raise AssertionError(
                    f"job {i} ({kind}) is deadline-degraded without a "
                    "best-so-far batch")
        elif srv["errors"][i] is None or not isinstance(
                srv["errors"][i], ServeError):
            raise AssertionError(
                f"job {i} ({kind}) ended {outcome!r} without a "
                "structured ServeError")
    out = {
        "jobs": len(workload.jobs),
        "rows": workload.rows,
        "outcome_counts": srv["outcome_counts"],
        "shed": srv["shed"],
        "seconds": srv["seconds"],
        "retried": srv["client"]["retries"],
        "deduped": server_stats["deduped"],
        "client": srv["client"],
        "server": server_stats,
        "clock_s": clock.now(),
    }
    if injector is not None:
        out["faults_fired"] = injector.stats
    return out
