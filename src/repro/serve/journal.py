"""Write-ahead journal of accepted jobs for crash-recoverable serving.

The networked front end (:mod:`repro.serve.net`) promises idempotent
retries: a client that re-sends a request key must get the same bytes
back, even across a server crash.  The in-memory dedup window covers
the healthy case; this journal covers the crash.  The server appends an
``accept`` record (the *full* request — header and raw arrays) before
the job touches the session, and a ``complete`` record (the full
response payload) when the job's future settles.  A killed-and-restarted
server then :func:`scan`\\ s the journal:

- ``complete`` records reload the dedup window verbatim, so a retried
  key is answered with the *recorded* bytes — re-reporting is
  bit-identical by construction, not by recomputation;
- ``accept`` records without a matching ``complete`` are the jobs the
  crash interrupted; the server re-materializes and re-submits them,
  and determinism of the serving stack (same models, same inputs, same
  row-reproducible kernels) makes the recomputed results bit-identical
  to what the dead server would have sent.

Records are JSON lines — arrays ride as base64 of their raw bytes plus
``dtype``/``shape`` — and a torn final line (the signature of dying
mid-write) is ignored by :func:`scan`, standard WAL tail semantics.
Appends are flushed per record; pass ``sync=True`` to also ``fsync``
(real durability at real cost — tests exercising in-process crashes
don't need it).

Doctest — arrays round-trip exactly through the record codec::

    >>> import numpy as np
    >>> arrs = {"x": np.arange(6, dtype=np.float32).reshape(2, 3)}
    >>> back = unpack_arrays(pack_arrays(arrs))
    >>> np.array_equal(back["x"], arrs["x"]) and back["x"].dtype.str == '<f4'
    True
"""

from __future__ import annotations

import base64
import json
import os
from collections import OrderedDict
from typing import Any, Dict, List, Tuple

import numpy as np


def pack_arrays(arrays: Dict[str, np.ndarray]) -> List[Dict[str, Any]]:
    """JSON-serializable encoding of named arrays (raw bytes as base64)."""
    out = []
    for name, arr in arrays.items():
        # asarray, not ascontiguousarray: the latter makes 0-d arrays 1-d;
        # tobytes() is C-order either way
        arr = np.asarray(arr)
        out.append({"name": name, "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "data": base64.b64encode(arr.tobytes()).decode("ascii")})
    return out


def unpack_arrays(packed: List[Dict[str, Any]]) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for rec in packed:
        buf = base64.b64decode(rec["data"])
        out[rec["name"]] = np.frombuffer(buf, dtype=np.dtype(rec["dtype"])
                                         ).reshape(rec["shape"]).copy()
    return out


class Journal:
    """Append-only JSONL write-ahead log of accepted jobs and their
    completed responses, keyed by the client idempotency key."""

    def __init__(self, path: str, sync: bool = False):
        self.path = str(path)
        self.sync = bool(sync)
        self._fh = open(self.path, "a", encoding="utf-8")
        self.accepts = 0
        self.completes = 0

    def _append(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())

    def accept(self, key: str, header: Dict[str, Any],
               arrays: Dict[str, np.ndarray]) -> None:
        """Record the full request *before* it is submitted — the WAL
        ordering that makes an accepted job survive the crash."""
        self._append({"type": "accept", "key": key, "header": header,
                      "arrays": pack_arrays(arrays)})
        self.accepts += 1

    def complete(self, key: str, outcome: str, header: Dict[str, Any],
                 arrays: Dict[str, np.ndarray]) -> None:
        """Record the full response payload once the job settles."""
        self._append({"type": "complete", "key": key, "outcome": outcome,
                      "header": header, "arrays": pack_arrays(arrays)})
        self.completes += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    # -- recovery --------------------------------------------------------- #
    @staticmethod
    def scan(path: str) -> Tuple["OrderedDict", "OrderedDict"]:
        """``(incomplete, completed)`` in journal order.

        ``incomplete`` maps key -> (request header, request arrays) for
        accepts with no complete record — the jobs a crash interrupted.
        ``completed`` maps key -> (outcome, response header, response
        arrays).  Lines decode one at a time: a line that is not UTF-8,
        not JSON, or nested too deeply to parse is undecodable.  A torn
        (undecodable) final line is skipped; an undecodable line
        anywhere *else*, or a line that decodes to a malformed record
        (not an object, missing fields, bad arrays), is real corruption
        and raises ``ValueError`` naming ``path:line``.
        """
        accepts: "OrderedDict" = OrderedDict()
        completed: "OrderedDict" = OrderedDict()
        if not os.path.exists(path):
            return accepts, completed
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                # UnicodeDecodeError and JSONDecodeError are ValueErrors
                rec = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):
                if i == len(lines) - 1:
                    break               # torn tail: the crash mid-write
                raise ValueError(
                    f"corrupt journal record at {path}:{i + 1}")
            try:
                if rec["type"] == "accept":
                    accepts[rec["key"]] = (rec["header"],
                                           unpack_arrays(rec["arrays"]))
                elif rec["type"] == "complete":
                    accepts.pop(rec["key"], None)
                    completed[rec["key"]] = (rec["outcome"], rec["header"],
                                             unpack_arrays(rec["arrays"]))
            except (TypeError, KeyError, ValueError, OverflowError) as exc:
                raise ValueError(f"malformed journal record at "
                                 f"{path}:{i + 1}: {exc!r}") from exc
        return accepts, completed

    @staticmethod
    def breakdown(path: str) -> Dict[str, int]:
        """Outcome counts over the journal's ``complete`` records — the
        ground truth the server's live accounting must match."""
        _, completed = Journal.scan(path)
        counts: Dict[str, int] = {}
        for outcome, _, _ in completed.values():
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
