"""Networked serving boundary: frame protocol, retries, idempotency,
crash recovery.

Everything deterministic runs on one shared
:class:`~repro.serve.ManualClock`: the session, the loopback server,
the retrying client and the fault injector all read it, and the
client's ``pump`` drives the server's event loop in-process — no
threads, no sleeps, no real timeouts.  The invariants extend the chaos
suite's across the wire:

- every ``ok`` result bit-identical to the job's solo in-process run,
  under drop/duplicate/delay/truncate frame faults and across a
  kill-and-restart;
- a retried idempotency key never double-executes (at-most-once
  execution under at-least-once delivery);
- refusals — backpressure, draining, expired deadlines, exhausted
  retries — are structured ServeErrors, never hangs or silence.
"""

import copy
import json
import os
import socket
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.serve import (AdmissionError, DeadlineError, Journal,
                         ManualClock, RetryError, ServeSession, ShedError,
                         assign_arrivals, build_workload,
                         default_net_chaos_specs)
from repro.serve.net import (_PREFIX, MAGIC, VERSION, FrameParser,
                             ProtocolError, ServeClient, ServeServer,
                             encode_frame, replay_net, verify_net_parity)
from repro.serve.workload import replay_sequential

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

SPEC = {
    "version": 1, "name": "net-tiny", "seed": 5, "steps": 3,
    "attack_model": {"arch": "resnet", "num_classes": 6, "width": 4,
                     "image_size": 12},
    "edge_model": {"arch": "lenet", "num_classes": 6, "width": 4,
                   "image_size": 12, "in_channels": 1},
    "jobs": [
        {"kind": "diva", "rows": 4, "c": 1.0},
        {"kind": "predict", "rows": 8},
        {"kind": "pgd", "rows": 4, "eps": 8 / 255},
        {"kind": "predict_float", "rows": 6},
        {"kind": "fgsm", "rows": 4},
        {"kind": "cw", "rows": 3, "kappa": 0.0},
        {"kind": "nes", "rows": 2, "steps": 2, "n_samples": 2},
        {"kind": "predict", "rows": 8},
    ],
}


@pytest.fixture(scope="module")
def wl():
    spec = assign_arrivals(copy.deepcopy(SPEC), rate_hz=50.0, tenants=3)
    return build_workload(spec)


@pytest.fixture(scope="module")
def ref(wl):
    return replay_sequential(wl)["results"]


def _loopback(wl, **server_kw):
    clock = ManualClock()
    session = ServeSession(capacity=64, clock=clock)
    server = ServeServer(session, spec=wl.spec,
                         models=(wl.original, wl.adapted, wl.edge),
                         **server_kw)
    client = ServeClient(server.host, server.port, clock=clock,
                         attempt_timeout_s=0.25, pump=server.poll)
    return clock, session, server, client


def _check_identical(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)


# --------------------------------------------------------------------- #
# frame protocol
# --------------------------------------------------------------------- #

def test_frame_roundtrip_exact():
    arrays = {"x": np.arange(12, dtype=np.float32).reshape(3, 4),
              "y": np.array([1, 2, 3], dtype=np.int64)}
    raw = encode_frame({"op": "submit", "key": "k", "job": {"kind": "pgd"}},
                       arrays)
    parser = FrameParser()
    parser.feed(raw)
    (header, back, echoed), = parser.frames()
    assert header["op"] == "submit" and header["job"] == {"kind": "pgd"}
    assert echoed == raw and not parser.partial
    for name in arrays:
        _check_identical(arrays[name], back[name])


def test_frame_parser_waits_on_partial_and_splits():
    raw = encode_frame({"op": "health", "key": "a"}) + \
        encode_frame({"op": "ready", "key": "b"})
    parser = FrameParser()
    parser.feed(raw[:len(raw) // 2])
    got = [h["key"] for h, _, _ in parser.frames()]
    parser.feed(raw[len(raw) // 2:])
    got += [h["key"] for h, _, _ in parser.frames()]
    assert got == ["a", "b"] and not parser.partial


def test_frame_parser_refuses_corruption():
    raw = bytearray(encode_frame({"op": "health", "key": "a"}))
    raw[-1] ^= 0xFF                      # flip a payload byte: CRC must trip
    parser = FrameParser()
    parser.feed(bytes(raw))
    with pytest.raises(ProtocolError):
        list(parser.frames())
    bad_magic = b"XX" + encode_frame({"op": "health", "key": "a"})[2:]
    fresh = FrameParser()
    fresh.feed(bad_magic)
    with pytest.raises(ProtocolError):
        list(fresh.frames())


def _crc_valid_frame(header, body=b""):
    """A frame with an arbitrary JSON header and a correct CRC — the
    metadata, not the transport, is what is malformed."""
    hjson = json.dumps(header).encode("utf-8")
    payload = struct.pack(">I", len(hjson)) + hjson + body
    return _PREFIX.pack(MAGIC, VERSION, 0, len(payload),
                        zlib.crc32(payload)) + payload


def _meta(**overrides):
    meta = {"name": "x", "dtype": "<f4", "shape": [2]}
    meta.update(overrides)
    return {k: v for k, v in meta.items() if v is not None}


def _assert_protocol_error(raw):
    parser = FrameParser()
    parser.feed(raw)
    with pytest.raises(ProtocolError):
        list(parser.frames())


def test_malformed_frame_non_dict_header():
    _assert_protocol_error(_crc_valid_frame(["op", "health"]))


@pytest.mark.parametrize("missing", ["dtype", "shape", "name"])
def test_malformed_frame_missing_array_field(missing):
    meta = _meta(**{missing: None})
    _assert_protocol_error(_crc_valid_frame(
        {"op": "submit", "key": "k", "arrays": [meta]}, bytes(8)))


def test_malformed_frame_object_dtype():
    _assert_protocol_error(_crc_valid_frame(
        {"op": "submit", "key": "k", "arrays": [_meta(dtype="|O")]},
        bytes(16)))


def test_malformed_frame_unknown_dtype():
    _assert_protocol_error(_crc_valid_frame(
        {"op": "submit", "key": "k", "arrays": [_meta(dtype="no-such")]},
        bytes(8)))


def test_malformed_frame_negative_dims():
    _assert_protocol_error(_crc_valid_frame(
        {"op": "submit", "key": "k", "arrays": [_meta(shape=[-1, 2])]},
        bytes(8)))


def test_poll_drops_only_the_malformed_connection(wl):
    _clock, _session, server, client = _loopback(wl)
    bad = socket.create_connection((server.host, server.port))
    try:
        assert client.health() is True
        bad.sendall(_crc_valid_frame(
            {"op": "submit", "key": "bad", "arrays": [_meta(dtype=None)]},
            bytes(8)))
        bad.settimeout(0.01)
        closed = False
        for _ in range(200):
            server.poll(io_timeout=0.01)  # must not raise
            try:
                closed = bad.recv(1) == b""
            except socket.timeout:
                continue
            except ConnectionResetError:
                closed = True
            break
        assert closed                     # the offender was dropped...
        assert len(server._conns) == 1    # ...and only the offender
        assert client.health() is True and client.ready() is True
    finally:
        bad.close()
        client.close()
        server.shutdown()


# --------------------------------------------------------------------- #
# loopback parity, clean and under chaos
# --------------------------------------------------------------------- #

def test_loopback_bit_parity_clean(wl, ref):
    out = verify_net_parity(wl, rate=20.0, reference=ref)
    assert out["outcome_counts"] == {"ok": len(wl.jobs)}
    assert out["retried"] == 0 and out["deduped"] == 0


def test_loopback_parity_hands_models_back(wl, ref):
    """The gate's session is closed: no model keeps its cache."""
    verify_net_parity(wl, rate=20.0, reference=ref)
    assert getattr(wl.adapted, "plan_cache", None) is None
    assert getattr(wl.edge, "plan_cache", None) is None


def test_loopback_chaos_bit_parity_and_determinism(wl, ref):
    runs = [verify_net_parity(wl, fault_specs=default_net_chaos_specs(),
                              seed=FAULT_SEED, rate=20.0, reference=ref)
            for _ in range(2)]
    a, b = runs
    # the parity gate inside verify_net_parity already asserted every ok
    # job bit-identical and every refusal structured; here: determinism
    assert a["outcome_counts"] == b["outcome_counts"]
    assert a["outcome_counts"].get("ok", 0) > 0
    assert a["retried"] == b["retried"] and a["deduped"] == b["deduped"]
    assert a["faults_fired"] == b["faults_fired"]
    lossy = sum(a["faults_fired"].get(pt, {}).get(kind, 0)
                for pt in ("net.client.send", "net.client.recv")
                for kind in ("drop", "truncate"))
    if lossy:                       # every lost frame must have been retried
        assert a["retried"] > 0


def test_retries_never_double_execute(wl, ref):
    out = verify_net_parity(wl, fault_specs=default_net_chaos_specs(),
                            seed=FAULT_SEED, rate=20.0, reference=ref)
    # at-most-once execution: duplicated/retried frames collapse onto
    # one accept per idempotency key, and every key resolves
    assert out["server"]["accepted"] == len(wl.jobs)
    assert sum(out["server"]["outcome_counts"].values()) == len(wl.jobs)
    assert out["client"]["frames_sent"] >= len(wl.jobs)


def test_idempotency_window_serves_recorded_bytes(wl, ref):
    _clock, session, server, client = _loopback(wl)
    try:
        job = wl.jobs[0]
        fut = client.submit(job.record, job.x, job.y, tenant=job.tenant)
        _check_identical(fut.result(), ref[0])
        key = next(iter(client._requests))
        # re-send the same key: served from the window, never re-run
        dispatches_before = len(session.dispatch_log)
        client._futures[key] = fut.__class__(
            lambda timeout=None: client._await(key, timeout))
        client._transmit(client._requests[key])
        _check_identical(client._futures[key].result(), ref[0])
        assert server.deduped == 1 and server.accepted == 1
        assert len(session.dispatch_log) == dispatches_before
    finally:
        client.close()
        server.shutdown()


# --------------------------------------------------------------------- #
# backpressure, drain, probes
# --------------------------------------------------------------------- #

def test_draining_server_sheds_new_work_structurally(wl, ref):
    _clock, _session, server, client = _loopback(wl)
    try:
        accepted = client.submit(wl.jobs[0].record, wl.jobs[0].x,
                                 wl.jobs[0].y)
        server.poll(drain=False)          # accepted before the drain begins
        server.begin_drain()
        assert client.ready() is False and client.health() is True
        refused = client.submit(wl.jobs[2].record, wl.jobs[2].x,
                                wl.jobs[2].y)
        with pytest.raises(ShedError):
            refused.result()
        assert refused.outcome == "rejected"
        # the accepted job keeps its promise through the drain
        _check_identical(accepted.result(), ref[0])
    finally:
        client.close()
        server.shutdown()


def test_graceful_shutdown_flushes_accepted_work(wl, ref):
    _clock, _session, server, client = _loopback(wl)
    futs = [client.submit(j.record, j.x, j.y, tenant=j.tenant)
            for j in wl.jobs[:3]]
    server.poll(drain=False)
    server.shutdown(drain=True)           # drains, settles, flushes, closes
    try:
        for i, fut in enumerate(futs):
            _check_identical(fut.result(), ref[i])
    finally:
        client.close()
    # the server is gone: a new submit exhausts its retries structurally
    late = client.submit(wl.jobs[3].record, wl.jobs[3].x)
    with pytest.raises(RetryError):
        late.result()


def test_admission_backpressure_crosses_the_wire(wl):
    clock = ManualClock()
    session = ServeSession(capacity=64, clock=clock, max_pending_jobs=1)
    server = ServeServer(session, spec=wl.spec,
                         models=(wl.original, wl.adapted, wl.edge))
    client = ServeClient(server.host, server.port, clock=clock,
                         attempt_timeout_s=0.25, pump=server.poll)
    try:
        first = client.submit(wl.jobs[0].record, wl.jobs[0].x, wl.jobs[0].y)
        second = client.submit(wl.jobs[2].record, wl.jobs[2].x,
                               wl.jobs[2].y)
        outcomes = set()
        for fut in (first, second):
            try:
                fut.result()
            except AdmissionError:
                pass
            outcomes.add(fut.outcome)
        assert outcomes == {"ok", "rejected"}
    finally:
        client.close()
        server.shutdown()


# --------------------------------------------------------------------- #
# deadlines: bounded waits end in DeadlineError, in- and cross-process
# --------------------------------------------------------------------- #

def test_result_timeout_raises_structured_deadline_error(wl, ref):
    clock = ManualClock()
    session = ServeSession(capacity=64, clock=clock)
    job = wl.jobs[0]
    fut = session.submit_attack(job.make_attack(), job.x, job.y)
    with pytest.raises(DeadlineError):
        fut.result(timeout=0.0)           # zero budget: no dispatch round
    assert not fut.done                   # still pending, not failed
    _check_identical(fut.result(), ref[0])


def test_client_overall_timeout_raises_deadline_error(wl):
    _clock, _session, server, client = _loopback(wl)
    client.max_retries = 50
    try:
        silent = client.submit(wl.jobs[0].record, wl.jobs[0].x,
                               wl.jobs[0].y)
        client.pump = lambda: 0           # the server never answers
        with pytest.raises(DeadlineError):
            silent.result(timeout=0.1)
        assert not silent.done            # the wait expired, not the job
    finally:
        client.close()
        server.kill()


# --------------------------------------------------------------------- #
# journal: kill-and-restart replays bit-identically
# --------------------------------------------------------------------- #

def test_kill_restart_recovers_bit_identically(wl, ref, tmp_path):
    path = str(tmp_path / "serve.journal")
    clock = ManualClock()
    session = ServeSession(capacity=64, clock=clock)
    first = ServeServer(session, spec=wl.spec,
                        models=(wl.original, wl.adapted, wl.edge),
                        journal_path=path)
    client = ServeClient(first.host, first.port, clock=clock,
                         attempt_timeout_s=0.25, pump=first.poll)
    futs = [client.submit(j.record, j.x, j.y, tenant=j.tenant)
            for j in wl.jobs[:3]]
    first.poll()                          # batch 1 completed + journaled
    futs += [client.submit(j.record, j.x, j.y, tenant=j.tenant)
             for j in wl.jobs[3:]]
    first.poll(drain=False)               # batch 2 accepted, never served
    assert first.stats["inflight"] == len(wl.jobs) - 3
    first.kill()                          # crash: nothing drains or flushes

    second = ServeServer(ServeSession(capacity=64, clock=clock),
                         spec=wl.spec,
                         models=(wl.original, wl.adapted, wl.edge),
                         journal_path=path, port=first.port)
    assert second.recovered_completed == 3
    assert second.recovered_incomplete == len(wl.jobs) - 3
    client.pump = second.poll
    try:
        for i, fut in enumerate(futs):
            _check_identical(fut.result(), ref[i])
        assert client.retries >= len(wl.jobs) - 3
        # the journal's outcome breakdown is the client-visible truth
        assert Journal.breakdown(path) == {"ok": len(wl.jobs)}
    finally:
        client.close()
        second.shutdown()


def test_journal_scan_tolerates_torn_tail_only(tmp_path):
    path = str(tmp_path / "torn.journal")
    with Journal(path) as journal:
        journal.accept("k0", {"op": "submit", "key": "k0"},
                       {"x": np.zeros((1, 2), dtype=np.float32)})
        journal.complete("k0", "ok", {"op": "result", "key": "k0"}, {})
        journal.accept("k1", {"op": "submit", "key": "k1"},
                       {"x": np.ones((1, 2), dtype=np.float32)})
    with open(path, "a") as fh:
        fh.write('{"type": "accept", "key": "k2", "he')   # died mid-write
    incomplete, completed = Journal.scan(path)
    assert list(completed) == ["k0"] and list(incomplete) == ["k1"]
    # the same torn line anywhere else is corruption, not a crash tail
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join([lines[-1]] + lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        Journal.scan(path)


def test_scalar_and_strided_arrays_roundtrip_wire_and_journal():
    """0-d arrays keep their shape and transposed views their values
    through both array codecs."""
    from repro.serve.journal import pack_arrays, unpack_arrays
    arrs = {"s": np.array(3.5, dtype=np.float32),
            "t": np.arange(6, dtype=np.int16).reshape(2, 3).T}
    parser = FrameParser()
    parser.feed(encode_frame({"op": "x"}, arrs))
    (_, wire, _), = parser.frames()
    for back in (wire, unpack_arrays(pack_arrays(arrs))):
        for k, v in arrs.items():
            assert back[k].shape == v.shape and back[k].dtype == v.dtype
            np.testing.assert_array_equal(back[k], v)


@pytest.mark.parametrize("line", [
    "5",                                            # not an object
    '{"key": "k9", "header": {}, "arrays": []}',    # no type
    '{"type": "accept", "key": "k9", "header": {}, "arrays": '
    '[{"name": "x", "dtype": "zz9", "shape": [1], "data": "AAAA"}]}',
], ids=["scalar", "no-type", "unknown-dtype"])
def test_journal_scan_names_malformed_records(tmp_path, line):
    """A record that decodes but is malformed is corruption: one
    ValueError naming ``path:line``, never a TypeError/KeyError."""
    path = str(tmp_path / "bad.journal")
    with Journal(path) as journal:
        journal.complete("k0", "ok", {"op": "result", "key": "k0"}, {})
    with open(path, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError, match=r"bad\.journal:2\b"):
        Journal.scan(path)


# --------------------------------------------------------------------- #
# load generation
# --------------------------------------------------------------------- #

def test_assign_arrivals_deterministic_and_optional():
    a = assign_arrivals(copy.deepcopy(SPEC), rate_hz=50.0, tenants=3)
    b = assign_arrivals(copy.deepcopy(SPEC), rate_hz=50.0, tenants=3)
    assert [j["arrival_offset_s"] for j in a["jobs"]] == \
        [j["arrival_offset_s"] for j in b["jobs"]]
    assert len({j["tenant"] for j in a["jobs"]}) == 3
    # per-tenant offsets are monotone (each tenant is its own process)
    by_tenant = {}
    for j in a["jobs"]:
        assert j["arrival_offset_s"] > by_tenant.get(j["tenant"], -1.0)
        by_tenant[j["tenant"]] = j["arrival_offset_s"]
    # old specs (no offsets) still materialize: everything arrives at 0
    legacy = build_workload(copy.deepcopy(SPEC))
    assert all(j.arrival_offset_s == 0.0 for j in legacy.jobs)


def test_replay_rate_compresses_simulated_time(wl, ref):
    slow = verify_net_parity(wl, rate=10.0, reference=ref)
    fast = verify_net_parity(wl, rate=100.0, reference=ref)
    assert slow["outcome_counts"] == fast["outcome_counts"]
    # 10x vs 100x replay: simulated makespan shrinks ~10x (clock moves
    # only on arrival gaps in a fault-free replay)
    assert slow["clock_s"] > 5 * fast["clock_s"] > 0


# --------------------------------------------------------------------- #
# a real socket server on a real thread (the --listen/--connect shape)
# --------------------------------------------------------------------- #

def test_threaded_server_real_clock_roundtrip(wl, ref):
    server = ServeServer(ServeSession(capacity=64), spec=wl.spec,
                         models=(wl.original, wl.adapted, wl.edge))
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    client = ServeClient(server.host, server.port, attempt_timeout_s=10.0)
    try:
        assert client.health() and client.ready()
        futs = [(i, client.submit(wl.jobs[i].record, wl.jobs[i].x,
                                  wl.jobs[i].y))
                for i in (0, 1, 3)]
        for i, fut in futs:
            _check_identical(fut.result(), ref[i])
        stats = client.server_stats()
        assert stats["accepted"] == 3
        assert client.shutdown_server()
    finally:
        client.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestServeConnectCli:
    """``repro-exp serve --connect``: the client-mode CLI holds a remote
    server's replay to the same oracle as every in-process mode."""

    @pytest.fixture
    def remote(self, tmp_path):
        from repro.nn import set_default_dtype
        from repro.serve import save_workload
        # the CLI materializes its workload in float32; the server builds
        # its models from the same spec under the same dtype
        set_default_dtype("float32")
        path = save_workload(copy.deepcopy(SPEC), str(tmp_path / "wl.json"))
        server = ServeServer(ServeSession(capacity=64), spec=SPEC)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.01},
                                  daemon=True)
        thread.start()
        yield ["serve", "--connect", f"{server.host}:{server.port}",
               "--workload", path]
        client = ServeClient(server.host, server.port,
                             attempt_timeout_s=10.0)
        try:
            assert client.shutdown_server()
        finally:
            client.close()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_clean_run_exits_zero(self, remote, capsys):
        from repro.experiments.cli import main
        assert main(remote) == 0
        assert "parity OK" in capsys.readouterr().out

    def test_dtype_drift_fails_the_oracle(self, remote, capsys,
                                          monkeypatch):
        """A float64 result equal in value to its float32 reference is
        still a parity failure."""
        from repro.experiments.cli import main
        from repro.serve import net

        real = net.replay_net

        def drifting(workload, client, **kw):
            out = real(workload, client, **kw)
            i = next(i for i, (o, r) in enumerate(zip(out["outcomes"],
                                                      out["results"]))
                     if o == "ok" and r.dtype == np.float32)
            out["results"][i] = out["results"][i].astype(np.float64)
            return out

        monkeypatch.setattr(net, "replay_net", drifting)
        assert main(remote) == 1
        assert "PARITY FAILURE" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [b"[" * 200000, b'{"type": "acc\xffept"}'],
                         ids=["deep-nesting", "non-utf8"])
def test_journal_scan_undecodable_lines(tmp_path, bad):
    """Lines json cannot decode — nested past the recursion limit, or
    not UTF-8 — are torn records: skipped as the final line, and a
    ValueError naming ``path:line`` anywhere else."""
    path = str(tmp_path / "odd.journal")
    with Journal(path) as journal:
        journal.complete("k0", "ok", {"op": "result", "key": "k0"}, {})
    with open(path, "ab") as fh:
        fh.write(bad)
    _, completed = Journal.scan(path)
    assert list(completed) == ["k0"]
    with open(path, "ab") as fh:
        fh.write(b"\n" + b'{"type": "noop"}' + b"\n")
    with pytest.raises(ValueError, match=r"odd\.journal:2\b"):
        Journal.scan(path)
