"""Property-based fuzz of the two untrusted-byte parsers of the serving
stack.  The wire frame parser: any chunking of a valid stream
reassembles the same frames, and truncated, bit-flipped or garbled
input yields frames or ``ProtocolError`` — nothing else, and the parser
always returns.  The journal's ``Journal.scan``: truncated, bit-flipped
or garbled journals yield records or a ``ValueError`` naming
``path:line`` — nothing else."""

import itertools
import json
import os
import re
import struct
import tempfile
import zlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.serve.journal import Journal
from repro.serve.net import (_PREFIX, MAGIC, VERSION, FrameParser,
                             ProtocolError, encode_frame)

SETTINGS = dict(max_examples=60, deadline=None)

DTYPES = ["<f4", "<f8", "<i4", "<i8", "|u1", "|b1", ">i2", "<c8"]

arrays = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.tuples(st.sampled_from(DTYPES),
              st.lists(st.integers(0, 3), max_size=3),
              st.integers(0, 2**32 - 1)),
    max_size=3,
).map(lambda spec: {
    name: np.random.default_rng(seed).integers(0, 256, size=int(
        np.prod(shape, dtype=np.int64)) * np.dtype(dt).itemsize,
        dtype=np.uint8).view(dt).reshape(shape)
    for name, (dt, shape, seed) in spec.items()})

json_scalars = (st.none() | st.booleans() | st.integers(-2**40, 2**40)
                | st.text(max_size=8))
headers = st.dictionaries(
    st.text(max_size=6).filter(lambda k: k != "arrays"),
    st.recursive(json_scalars,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                 max_leaves=6),
    max_size=4)

frame_lists = st.lists(st.tuples(headers, arrays), min_size=1, max_size=4)


def _stream(frames):
    raws = [encode_frame(h, a) for h, a in frames]
    return b"".join(raws), raws


def _parse(data, cuts=()):
    """Feed ``data`` split at ``cuts``; the frames parsed and the error
    that stopped parsing (None when the stream parsed cleanly)."""
    parser = FrameParser()
    got = []
    bounds = [0, *sorted(set(cuts)), len(data)]
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            parser.feed(data[lo:hi])
            # a parser makes progress on every yield: more frames than
            # prefixes in the stream would mean it is spinning
            got += itertools.islice(parser.frames(),
                                    len(data) // _PREFIX.size + 1)
            assert len(got) <= len(data) // _PREFIX.size
    except ProtocolError as exc:
        return got, parser, exc
    return got, parser, None


def _same_frame(got, header, arrs):
    h, a, _ = got
    if h != json.loads(json.dumps(header)) or list(a) != list(arrs):
        return False
    return all(a[k].dtype == v.dtype and a[k].shape == v.shape
               and a[k].tobytes() == v.tobytes() for k, v in arrs.items())


@given(frame_lists, st.lists(st.integers(0, 10**6), max_size=12))
@settings(**SETTINGS)
def test_any_chunking_reassembles_the_same_frames(frames, cuts):
    data, raws = _stream(frames)
    got, parser, err = _parse(data, [c % (len(data) + 1) for c in cuts])
    assert err is None and not parser.partial
    assert [g[2] for g in got] == raws
    assert all(_same_frame(g, h, a) for g, (h, a) in zip(got, frames))


@given(frame_lists, st.integers(0, 10**6))
@settings(**SETTINGS)
def test_truncation_yields_a_prefix_of_the_frames(frames, cut):
    data, raws = _stream(frames)
    cut %= len(data) + 1
    got, parser, err = _parse(data[:cut])
    assert err is None
    ends = list(itertools.accumulate(len(r) for r in raws))
    assert len(got) == sum(end <= cut for end in ends)
    assert [g[2] for g in got] == raws[:len(got)]
    assert parser.partial == (cut not in [0, *ends])


@given(frame_lists, st.integers(0, 10**7), st.integers(0, 10**6))
@settings(**SETTINGS)
def test_single_bit_flip_yields_frames_or_protocol_error(frames, bit, cut):
    data, _ = _stream(frames)
    bit %= 8 * len(data)
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    got, _, _ = _parse(bytes(flipped), [cut % (len(data) + 1)])
    # a flip in the ignored flags byte leaves a frame intact; anywhere
    # else the CRC or prefix checks stop the stream at the flipped frame
    assert len(got) <= len(frames)
    assert all(_same_frame(g, h, a) for g, (h, a) in zip(got, frames))


def _framed(payload: bytes) -> bytes:
    return _PREFIX.pack(MAGIC, VERSION, 0, len(payload),
                        zlib.crc32(payload)) + payload


metas = st.lists(
    st.dictionaries(
        st.sampled_from(["name", "dtype", "shape", "extra"]),
        st.none() | st.booleans() | st.integers(-5, 2**62)
        | st.floats(allow_nan=False) | st.text(max_size=8)
        | st.sampled_from(DTYPES + ["O", "U3", "V4", "i4,i4", "(2)i4",
                                    "M8[s]", "S2", "f2"])
        | st.lists(st.integers(-2, 2**31) | st.booleans(), max_size=3)),
    max_size=3)


@given(headers, metas | json_scalars, st.binary(max_size=64))
@settings(**SETTINGS)
def test_crc_valid_garbled_metadata_never_escapes(header, meta, tail):
    """Frames whose CRC is right but whose header and array metadata
    are arbitrary: a frame or ProtocolError, never a numpy/KeyError."""
    hjson = json.dumps(dict(header, arrays=meta)).encode("utf-8")
    payload = struct.pack(">I", len(hjson)) + hjson + tail
    got, parser, err = _parse(_framed(payload))
    assert len(got) + (err is not None) == 1


@given(st.binary(max_size=96))
@settings(**SETTINGS)
def test_crc_valid_random_payload_never_escapes(payload):
    got, _, err = _parse(_framed(payload))
    assert len(got) + (err is not None) == 1


@given(st.binary(max_size=128), st.lists(st.integers(0, 200), max_size=6))
@settings(**SETTINGS)
def test_random_bytes_never_escape(data, cuts):
    got, _, _ = _parse(data, [c % (len(data) + 1) for c in cuts])
    assert len(got) <= len(data) // _PREFIX.size


# --------------------------------------------------------------------- #
# Journal.scan
# --------------------------------------------------------------------- #

def _journal(entries) -> bytes:
    """A valid journal: every entry accepted, every other one completed."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "wal")
        with Journal(path) as journal:
            for i, (header, arrs) in enumerate(entries):
                journal.accept(f"k{i}", header, arrs)
                if i % 2:
                    journal.complete(f"k{i}", "ok", header, arrs)
        with open(path, "rb") as fh:
            return fh.read()


def _scan(data: bytes):
    """``Journal.scan`` over ``data``: its ``(incomplete, completed)``
    records, or None when it raised the ValueError naming
    ``path:line``.  Any other exception fails the test."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "wal")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            return Journal.scan(path)
        except ValueError as exc:
            assert re.search(re.escape(path) + r":\d+\b", str(exc)), exc
            return None


@given(frame_lists, st.integers(0, 10**6))
@settings(**SETTINGS)
def test_journal_truncation_yields_a_prefix_of_the_records(entries, cut):
    """A cut anywhere tears at most the final line: scan never raises
    and recovers a prefix of what the whole journal records."""
    data = _journal(entries)
    incomplete, completed = _scan(data)
    got = _scan(data[:cut % (len(data) + 1)])
    assert got is not None
    assert list(got[1]) == list(completed)[:len(got[1])]
    assert set(got[0]) <= set(incomplete) | set(completed)


@given(frame_lists, st.integers(0, 10**7))
@settings(**SETTINGS)
def test_journal_bit_flip_yields_records_or_value_error(entries, bit):
    data = bytearray(_journal(entries))
    bit %= 8 * len(data)
    data[bit // 8] ^= 1 << (bit % 8)
    _scan(bytes(data))


@given(frame_lists, st.binary(max_size=64), st.integers(0, 10**6))
@settings(**SETTINGS)
def test_journal_spliced_random_bytes_yield_records_or_value_error(
        entries, junk, at):
    data = _journal(entries)
    at %= len(data) + 1
    _scan(data[:at] + junk + data[at:])


@given(st.binary(max_size=256))
@settings(**SETTINGS)
def test_journal_random_bytes_yield_records_or_value_error(data):
    _scan(data)
