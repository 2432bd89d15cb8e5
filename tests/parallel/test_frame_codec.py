"""Property and golden-byte tests for the frame codec.

The distributed transport's correctness rests on one invariant: a
segment batch framed on one host and parsed on another — through any
sequence of partial ``recv`` chunks TCP happens to deliver — must
reproduce the original segments byte for byte, and a *torn* stream
must raise a typed :class:`~repro.parallel.frames.FrameProtocolError`
rather than yield a short or corrupt message.  Hypothesis drives the
codec with arbitrary gate lists (including zero-gate segments),
arbitrary generation/batch tokens, and arbitrary chunk splits; the
nightly workflow re-runs it at the raised example budget.

:class:`TestGoldenFrames` pins the bytes themselves: one frame of each
of the 14 types, built at the commit before the codec was split into
:mod:`repro.parallel.frames` and :mod:`repro.service.frames`, must be
produced and parsed unchanged — an older ``popqc worker`` or ``popqc
serve`` still interoperates.  REGISTER_OK is the one frame that has
changed since: it dropped its second field, and the client still reads
an older worker's longer reply.
"""

import socket
import struct

import pytest
from hypothesis import given, strategies as st

from repro.circuits.encoding import decode_segment, encode_segment
from repro.parallel.frames import (
    FRAME_MAGIC,
    FRAME_PING,
    FRAME_RESULTS,
    FRAME_SEGMENTS,
    ConnectionClosedError,
    FrameProtocolError,
    FrameReader,
    iter_results_payload,
    pack_frame,
    pack_results_payload,
    pack_segments_payload,
    recv_frame,
    unpack_segments_payload,
)

from ..conftest import gate_list_strategy


def _feed_in_chunks(reader, data, cut_points):
    """Feed ``data`` to ``reader`` split at the (sorted) ``cut_points``."""
    bounds = sorted({min(c, len(data)) for c in cut_points}) + [len(data)]
    frames = []
    pos = 0
    for bound in bounds:
        reader.feed(data[pos:bound])
        pos = bound
        while True:
            frame = reader.next_frame()
            if frame is None:
                break
            frames.append(frame)
    return frames


class TestFrameStream:
    @given(
        payloads=st.lists(st.binary(max_size=200), max_size=5),
        cuts=st.lists(st.integers(0, 2000), max_size=8),
    )
    def test_frames_survive_arbitrary_chunking(self, payloads, cuts):
        """Any chunking of a frame stream parses to the same frames."""
        stream = b"".join(pack_frame(FRAME_SEGMENTS, p) for p in payloads)
        frames = _feed_in_chunks(FrameReader(), stream, cuts)
        assert frames == [(FRAME_SEGMENTS, p) for p in payloads]

    @given(st.binary(max_size=64))
    def test_partial_frame_is_never_yielded(self, payload):
        """Every proper prefix of a frame parses to nothing (no tearing)."""
        frame = pack_frame(FRAME_PING, payload)
        for end in range(len(frame)):
            reader = FrameReader()
            reader.feed(frame[:end])
            assert reader.next_frame() is None
            assert reader.pending_bytes == end

    def test_bad_magic_rejected(self):
        reader = FrameReader()
        reader.feed(b"XXXX" + bytes(12))
        with pytest.raises(FrameProtocolError, match="magic"):
            reader.next_frame()

    def test_unknown_frame_type_rejected(self):
        reader = FrameReader()
        reader.feed(struct.pack("<4sBxxxQ", FRAME_MAGIC, 99, 0))
        with pytest.raises(FrameProtocolError, match="unknown frame type"):
            reader.next_frame()

    def test_implausible_length_rejected(self):
        """A corrupt length field fails loudly instead of waiting forever."""
        reader = FrameReader()
        reader.feed(struct.pack("<4sBxxxQ", FRAME_MAGIC, FRAME_PING, 1 << 40))
        with pytest.raises(FrameProtocolError, match="cap"):
            reader.next_frame()


class TestSegmentsPayload:
    @given(
        batches=st.lists(gate_list_strategy(num_qubits=5, max_gates=20), max_size=4),
        generation=st.integers(0, 2**63 - 1),
        batch_id=st.integers(0, 2**63 - 1),
    )
    def test_round_trip_with_header_tokens(self, batches, generation, batch_id):
        """Segments + generation token survive pack → unpack exactly."""
        encoded = [encode_segment(gates) for gates in batches]
        payload = pack_segments_payload(generation, batch_id, encoded)
        got_gen, got_batch, got_segments = unpack_segments_payload(payload)
        assert got_gen == generation
        assert got_batch == batch_id
        assert [decode_segment(seg) for seg in got_segments] == batches

    @given(
        batches=st.lists(gate_list_strategy(num_qubits=4, max_gates=12), max_size=3),
        cuts=st.lists(st.integers(0, 4000), max_size=10),
    )
    def test_round_trip_through_chunked_frame_stream(self, batches, cuts):
        """The full wire path: payload → frame → arbitrary recv splits →
        parse → unpack must be lossless, zero-gate segments included."""
        encoded = [encode_segment(gates) for gates in batches]
        stream = pack_frame(FRAME_SEGMENTS, pack_segments_payload(7, 3, encoded))
        frames = _feed_in_chunks(FrameReader(), stream, cuts)
        assert len(frames) == 1
        frame_type, payload = frames[0]
        assert frame_type == FRAME_SEGMENTS
        _, _, segments = unpack_segments_payload(payload)
        assert [decode_segment(seg) for seg in segments] == batches

    def test_zero_gate_segment_round_trips(self):
        payload = pack_segments_payload(1, 0, [encode_segment([])])
        _, _, segments = unpack_segments_payload(payload)
        assert decode_segment(segments[0]) == []

    def test_truncated_payload_rejected(self):
        from repro.circuits import CNOT, H

        encoded = [encode_segment([H(0), CNOT(0, 1)])]
        payload = pack_segments_payload(1, 0, encoded)
        with pytest.raises(FrameProtocolError):
            unpack_segments_payload(payload[: len(payload) - 9])
        with pytest.raises(FrameProtocolError):
            unpack_segments_payload(payload[:10])


class TestResultsPayload:
    @given(st.lists(gate_list_strategy(num_qubits=5, max_gates=15), max_size=4))
    def test_split_preserves_each_blob(self, batches):
        """Result blobs split back out byte-identically — the property
        lazy decode relies on (split reads headers only)."""
        import repro.circuits.encoding as enc

        blobs = []
        for gates in batches:
            encoded = encode_segment(gates)
            buf = bytearray(enc.packed_segment_nbytes(encoded))
            enc.pack_segment_into(encoded, buf, 0)
            blobs.append(bytes(buf))
        got = list(iter_results_payload(pack_results_payload(11, blobs), 11))
        assert [blob for _, blob in got] == blobs
        # the gate count rides along, read off the same header walk
        assert [length for length, _ in got] == [len(gates) for gates in batches]

    def test_reply_to_another_batch_rejected(self):
        """Pipe and TCP replies alike are checked against the batch id
        that was asked for."""
        with pytest.raises(FrameProtocolError, match="does not match"):
            list(iter_results_payload(pack_results_payload(11, []), 12))

    def test_truncated_results_rejected(self):
        from repro.circuits import H

        encoded = encode_segment([H(0)])
        import repro.circuits.encoding as enc

        buf = bytearray(enc.packed_segment_nbytes(encoded))
        enc.pack_segment_into(encoded, buf, 0)
        payload = pack_results_payload(0, [bytes(buf)])
        with pytest.raises(FrameProtocolError):
            list(iter_results_payload(payload[: len(payload) - 4], 0))


class TestRecvFrame:
    def test_clean_close_between_frames(self):
        """EOF at a frame boundary is a typed clean close."""
        a, b = socket.socketpair()
        try:
            a.sendall(pack_frame(FRAME_PING))
            a.close()
            reader = FrameReader()
            assert recv_frame(b, reader)[0] == FRAME_PING
            with pytest.raises(ConnectionClosedError):
                recv_frame(b, reader)
        finally:
            b.close()

    def test_close_mid_frame_is_a_protocol_error(self):
        """EOF with a half-delivered frame pending must be loud: a torn
        result silently treated as short would corrupt a round."""
        a, b = socket.socketpair()
        try:
            frame = pack_frame(FRAME_RESULTS, b"x" * 64)
            a.sendall(frame[: len(frame) - 10])
            a.close()
            with pytest.raises(FrameProtocolError, match="mid-frame"):
                recv_frame(b, FrameReader())
        finally:
            b.close()


#: One frame of every type, as hex, built by the commit that preceded
#: the split of ``repro/parallel/dist.py`` (1368a6e) from the inputs
#: ``TestGoldenFrames._build`` repeats — except REGISTER_OK, whose
#: payload is now the 8-byte generation alone.
GOLDEN_FRAMES = {
    "REGISTER": (
        "50514346010000001c0000000000000007000000000000008002580500000070"
        "6f70716371004b078671012e"
    ),
    "REGISTER_OK": (
        "505143460200000008000000000000000700000000000000"
    ),
    "SEGMENTS": (
        "5051434603000000a80000000000000007000000000000000300000000000000"
        "0200000000000000030000000300000004000000010000000000000001006804"
        "00636e6f740200727a00000000000000000000000000d03f0000000000000000"
        "0100000001000000000102000102012003000000030000000400000001000000"
        "000000000100680400636e6f740200727a00000000000000000000000000d03f"
        "000000000000000001000000010000000001020001020120"
    ),
    "RESULTS": (
        "5051434604000000a00000000000000003000000000000000200000000000000"
        "03000000030000000400000001000000000000000100680400636e6f74020072"
        "7a00000000000000000000000000d03f00000000000000000100000001000000"
        "0001020001020120030000000300000004000000010000000000000001006804"
        "00636e6f740200727a00000000000000000000000000d03f0000000000000000"
        "01000000010000000001020001020120"
    ),
    "ERROR": (
        "50514346050000000600000000000000017374616c65"
    ),
    "PING": (
        "50514346060000000000000000000000"
    ),
    "PONG": (
        "50514346070000000000000000000000"
    ),
    "SHUTDOWN": (
        "50514346080000000000000000000000"
    ),
    "JOB": (
        "5051434609000000680000000000000009000000000000006400000003000000"
        "0000000000000000030000000000000003000000030000000400000001000000"
        "000000000100680400636e6f740200727a00000000000000000000000000d03f"
        "000000000000000001000000010000000001020001020120"
    ),
    "RESULT": (
        "505143460a000000600000000000000009000000000000000c0000007b22726f"
        "756e6473223a317d030000000300000004000000010000000000000001006804"
        "00636e6f740200727a00000000000000000000000000d03f0000000000000000"
        "01000000010000000001020001020120"
    ),
    "STATUS": (
        "505143460b0000000a000000000000007b226a6f6273223a307d"
    ),
    "AUTH": (
        "505143460c0000000600000000000000733363726574"
    ),
    "AUTH_OK": (
        "505143460d0000000000000000000000"
    ),
    "BUSY": (
        "505143460e000000160000000000000003000000000000000000d03f71756575"
        "652066756c6c"
    ),
}


class TestGoldenFrames:
    """Every byte on every wire stays what it was."""

    BLOB = bytes.fromhex("80025805000000706f70716371004b078671012e")  # pickle v2

    @staticmethod
    def _segment():
        from repro.circuits import CNOT, RZ, H

        return encode_segment([H(0), CNOT(0, 1), RZ(1, 0.25)])

    def _build(self):
        from repro.circuits.encoding import pack_segment
        from repro.parallel import frames as f
        from repro.service import frames as sf

        seg = self._segment()
        packed = pack_segment(seg)
        return {
            "REGISTER": pack_frame(
                f.FRAME_REGISTER, f.pack_register_payload(self.BLOB, 7)
            ),
            "REGISTER_OK": pack_frame(
                f.FRAME_REGISTER_OK, f.pack_register_ok_payload(7)
            ),
            "SEGMENTS": pack_frame(
                f.FRAME_SEGMENTS, f.pack_segments_payload(7, 3, [seg, seg])
            ),
            "RESULTS": pack_frame(
                f.FRAME_RESULTS, f.pack_results_payload(3, [packed, packed])
            ),
            "ERROR": f.error_frame(f.ERR_STALE_ORACLE, "stale"),
            "PING": pack_frame(f.FRAME_PING),
            "PONG": pack_frame(f.FRAME_PONG),
            "SHUTDOWN": pack_frame(f.FRAME_SHUTDOWN),
            "JOB": pack_frame(
                f.FRAME_JOB, sf.pack_job_payload(9, 100, 2, None, seg, priority=3)
            ),
            "RESULT": pack_frame(
                f.FRAME_RESULT, sf.pack_result_payload(9, b'{"rounds":1}', seg)
            ),
            "STATUS": pack_frame(f.FRAME_STATUS, b'{"jobs":0}'),
            "AUTH": pack_frame(f.FRAME_AUTH, b"s3cret"),
            "AUTH_OK": pack_frame(f.FRAME_AUTH_OK),
            "BUSY": pack_frame(
                f.FRAME_BUSY,
                sf.pack_busy_payload(sf.BUSY_QUEUE_FULL, 0.25, "queue full"),
            ),
        }

    def test_every_frame_type_is_produced_unchanged(self):
        built = self._build()
        assert list(built) == list(GOLDEN_FRAMES) and len(built) == 14
        for name, frame in built.items():
            assert frame.hex() == GOLDEN_FRAMES[name], name

    def test_every_frame_type_is_parsed_unchanged(self):
        from repro.circuits.encoding import pack_segment
        from repro.parallel import frames as f
        from repro.service import frames as sf

        seg = self._segment()
        packed = pack_segment(seg)
        reader = FrameReader()
        reader.feed(b"".join(bytes.fromhex(h) for h in GOLDEN_FRAMES.values()))
        parsed = {}
        for number, name in enumerate(GOLDEN_FRAMES, start=1):
            frame_type, parsed[name] = reader.next_frame()
            assert frame_type == number == getattr(f, f"FRAME_{name}")
        assert reader.pending_bytes == 0
        assert f.unpack_register_payload(parsed["REGISTER"]) == (7, ("popqc", 7))
        assert f.unpack_register_ok_payload(parsed["REGISTER_OK"]) == 7
        assert f.unpack_segments_payload(parsed["SEGMENTS"]) == (7, 3, [seg, seg])
        assert list(f.iter_results_payload(parsed["RESULTS"], 3)) == [
            (3, packed), (3, packed)
        ]
        assert f.unpack_error_payload(parsed["ERROR"]) == (f.ERR_STALE_ORACLE, "stale")
        with pytest.raises(f.StaleOracleError, match="stale"):
            f.raise_remote_error(parsed["ERROR"])
        for empty in ("PING", "PONG", "SHUTDOWN", "AUTH_OK"):
            assert parsed[empty] == b""
        assert sf.unpack_job_payload(parsed["JOB"]) == (9, 100, 2, None, seg, 3)
        assert sf.unpack_result_payload(parsed["RESULT"]) == (
            9, b'{"rounds":1}', seg
        )
        assert parsed["STATUS"] == b'{"jobs":0}'
        assert parsed["AUTH"] == b"s3cret"
        assert sf.unpack_busy_payload(parsed["BUSY"]) == (
            sf.BUSY_QUEUE_FULL, 0.25, "queue full"
        )


class TestTornHandshakePayloads:
    """A short handshake payload is a typed protocol error, so a
    garbled peer goes down the connection-failure path."""

    def test_empty_error_payload(self):
        from repro.parallel.frames import raise_remote_error, unpack_error_payload

        with pytest.raises(FrameProtocolError, match="ERROR payload"):
            unpack_error_payload(b"")
        with pytest.raises(FrameProtocolError, match="ERROR payload"):
            raise_remote_error(b"")

    @pytest.mark.parametrize("size", [0, 1, 7])
    def test_short_register_ok_payload(self, size):
        from repro.parallel.frames import unpack_register_ok_payload

        with pytest.raises(FrameProtocolError, match="REGISTER_OK payload"):
            unpack_register_ok_payload(bytes(size))

    def test_legacy_register_ok_payload_reads_its_generation(self):
        from repro.parallel.frames import unpack_register_ok_payload

        assert unpack_register_ok_payload(struct.pack("<QQ", 7, 4)) == 7
