"""The frame codec against the one it replaced, outcome for outcome.

``repro.executor.protocol.decode_frame`` reads the envelope by index and
the payload where it lies; ``reference_protocol`` is the per-byte
``Reader`` walk it replaced (plus the one typed-error rule its module
doc states).  The cases are generated from the frame grammar, not
collected: every frame type under every combination of envelope flags,
cut at every length and with every single bit flipped, then seeded
arbitrary bytes — bare, behind a valid type byte, and behind a valid
checksum, so the payload readers see garbage too.  Both decoders must
agree on every one: the same ``Frame``, or the same error class with the
same message.  Whatever the bytes, the only errors are
``ProtocolError`` and its ``LinkCorruption`` — anything else (an
``IndexError``, a ``struct.error``, a ``UnicodeDecodeError``) escapes
``outcome`` and fails the test, and so would a hang.
"""

import itertools
import random

import pytest

from repro.core.values import Char, Ref, Symbol
from repro.errors import CodecError, LinkCorruption, ProtocolError
from repro.executor import protocol
from repro.executor.exchange import ReplayingServer
from repro.executor.executor import Executor, HostConnection
from repro.executor.link import make_link
from repro.executor.protocol import FrameType
from repro.frontdoor.server import FrontDoor
from repro.storage import codec

from . import reference_protocol as reference

ARBITRARY = 24_000

#: encoder name -> argument tuples; between them every frame type, every
#: value tag, one- and many-byte varints, non-ASCII text
SAMPLES = {
    "encode_login": [("DataCurator", "swordfish"), ("", ""), ("ü" * 70, "π")],
    "encode_login_ok": [(0,), (127,), (128,), (2**40,)],
    "encode_execute": [("World!k0123",), ("",), ("x" * 200,), ("'naïve' size",)],
    "encode_result": [
        (None, "nil"), (True, "true"), (False, "false"), (84, "84"),
        (-(2**40), "big"), (2.5, "2.5"), ("text", "'text'"),
        (Symbol("sym"), "#sym"), (Char("a"), "$a"), (Ref(300), "anObject"),
        (object(), "unencodable"),
    ],
    "encode_error": [("ProtocolError", "not logged in"), ("E", "")],
    "encode_simple": [
        (FrameType.COMMIT,), (FrameType.CONFLICT,), (FrameType.ABORT,),
        (FrameType.ABORTED,), (FrameType.LOGOUT,), (FrameType.BYE,),
    ],
    "encode_committed": [(0,), (300,)],
    "encode_overloaded": [(0.0,), (2.5,), (3,)],
    "encode_ship": [(b"",), (b"\x00record\xff",)],
    "encode_snapshot": [(b"snapshot" * 40,)],
    "encode_ship_ack": [(7,), (2**21,)],
    "encode_ship_status": [()],
    "encode_prepare": [("g1",), ("g" * 130,)],
    "encode_vote": [("g1", True), ("g1", False), ("g1", True, True)],
    "encode_decide": [("g1", True), ("g1", False)],
    "encode_decide_ack": [("g1", 0), ("g1", 300)],
    "encode_shard_exec": [("g1", "World!a := 1"), ("g" * 130, "")],
    "encode_shard_commit": [("g1",)],
    "encode_hello": [("0123456789abcdef",), ("",)],
    "encode_hello_ok": [("0123456789abcdef",)],
    "encode_status": [(), (True,)],
    "encode_status_report": [('{"in_doubt": []}',)],
}

#: one value per envelope field; None leaves the flag bit clear
SEQS = (1, 127, 128, 300, 2**40)
DEADLINES = (None, 12.5)
REQUEST_IDS = (None, 5, 300)
CHANNELS = (None, 0, 200)


def bare_frames() -> list[bytes]:
    return [
        getattr(reference, name)(*args)
        for name, samples in SAMPLES.items() for args in samples
    ]


def one_frame_per_type() -> list[bytes]:
    by_type = {}
    for frame in bare_frames():
        by_type.setdefault(frame[0], frame)
    assert set(by_type) == {int(t) for t in FrameType if t is not FrameType.SEQ}
    return list(by_type.values())


def enveloped(inner: bytes, rng: random.Random) -> list[bytes]:
    """*inner* under all eight flag combinations (seq drawn per envelope)."""
    return [
        reference.encode_seq(rng.choice(SEQS), inner, deadline=deadline,
                             request_id=request_id and rng.choice(REQUEST_IDS[1:]),
                             channel=None if channel is None else rng.choice(CHANNELS[1:]))
        for deadline, request_id, channel in itertools.product(
            DEADLINES, (None, 1), (None, 1))
    ]


def outcome(decode, data: bytes):
    """What *decode* makes of *data*: the frame, or the typed refusal.

    Frames compare by ``repr`` — a flipped bit can make a deadline or a
    float result NaN, which is never equal to itself.
    """
    try:
        return repr(decode(data))
    except ProtocolError as error:
        return type(error).__name__, str(error)


def disagreements(cases) -> list[bytes]:
    return [
        data for data in cases
        if outcome(protocol.decode_frame, data) != outcome(reference.decode_frame, data)
    ]


def grammar_cases() -> list[bytes]:
    """Every type × every flag combination, whole, cut and bit-flipped."""
    rng = random.Random(2026)
    whole = bare_frames()
    for inner in one_frame_per_type():
        whole.extend(enveloped(inner, rng))
    whole.append(reference.encode_seq(9, reference.encode_seq(1, b"\x09")))  # nested
    whole.append(reference.encode_seq(9, b""))  # an envelope around nothing
    cases = list(whole)
    for frame in whole:
        cases.extend(frame[:cut] for cut in range(len(frame)))
        for bit in range(len(frame) * 8):
            flipped = bytearray(frame)
            flipped[bit >> 3] ^= 1 << (bit & 7)
            cases.append(bytes(flipped))
    return cases


def arbitrary_cases(count: int = ARBITRARY, seed: int = 2026) -> list[bytes]:
    """Seeded byte strings in three shapes, a third each: anything at
    all; a known type byte then anything (the payload readers); anything
    behind an intact envelope (the payload readers, past the checksum)."""
    rng = random.Random(seed)
    types = [int(t) for t in FrameType]
    cases = []
    for index in range(count):
        body = rng.randbytes(rng.choice((0, 1, 2, 5, 9, 17, 40, 90)))
        shape = index % 3
        if shape == 1:
            body = bytes([rng.choice(types)]) + body
        elif shape == 2:
            body = reference.encode_seq(
                rng.choice(SEQS), bytes([rng.choice(types)]) + body,
                deadline=rng.choice(DEADLINES), request_id=rng.choice(REQUEST_IDS),
                channel=rng.choice(CHANNELS),
            )
        cases.append(body)
    return cases


@pytest.fixture(scope="module")
def corpus() -> list[bytes]:
    return grammar_cases() + arbitrary_cases()


def test_the_decoders_agree_on_every_generated_case(corpus):
    assert len(corpus) > 100_000
    assert disagreements(corpus) == []


def test_the_corpus_reaches_every_outcome(corpus):
    """The agreement above is not vacuous: frames decode, and each typed
    refusal the decoder has is provoked."""
    seen = {}
    for data in corpus:
        result = outcome(protocol.decode_frame, data)
        key = "frame" if isinstance(result, str) else (result[0], result[1].split(" ")[0])
        seen[key] = seen.get(key, 0) + 1
    assert seen["frame"] > 1_000
    for refusal in (
        ("ProtocolError", "empty"), ("ProtocolError", "unknown"),
        ("ProtocolError", "nested"), ("ProtocolError", "unexpected"),
        ("ProtocolError", "string"), ("ProtocolError", "varint"),
        ("LinkCorruption", "sequence"), ("LinkCorruption", "frame"),
    ):
        assert seen.get(refusal, 0) > 0, refusal


def test_the_encoders_write_the_reference_bytes():
    for name, samples in SAMPLES.items():
        for args in samples:
            assert getattr(protocol, name)(*args) == getattr(reference, name)(*args), (
                name, args)
    inner = reference.encode_execute("World!k0123")
    for seq, deadline, request_id, channel in itertools.product(
        SEQS + (0, 2**63), DEADLINES + (7,), REQUEST_IDS, CHANNELS
    ):
        assert protocol.encode_seq(
            seq, inner, deadline=deadline, request_id=request_id, channel=channel
        ) == reference.encode_seq(
            seq, inner, deadline=deadline, request_id=request_id, channel=channel
        )
    for encode in (protocol.encode_seq, reference.encode_seq):
        with pytest.raises(CodecError, match="negative -1"):
            encode(-1, inner)


# -- the same bytes through the two places that take them off a link ---------


def test_parse_hello_takes_a_token_only_from_a_hello(corpus):
    rng = random.Random(7)
    for data in rng.sample(corpus, 20_000):
        token, leftover = FrontDoor._parse_hello(None, data)
        expected = outcome(reference.decode_frame, data)
        if isinstance(expected, str) and expected.startswith("Frame(type=<FrameType.HELLO:"):
            assert leftover is None
            assert token == reference.decode_frame(data).fields["token"]
        else:
            assert (token, leftover) == (None, data)


def test_respond_drops_answers_or_applies_exactly_as_the_reference_reads(corpus):
    applied = []

    def handler(frame):
        applied.append(frame)
        return protocol.encode_simple(FrameType.BYE)

    rng = random.Random(11)
    for data in rng.sample(corpus, 20_000):
        server = ReplayingServer(handler)  # a fresh replay window per case
        del applied[:]
        response, frame = server.respond(data)
        expected = outcome(reference.decode_frame, data)
        if isinstance(expected, str):
            assert applied == [frame] and repr(frame) == expected
            inner = protocol.decode_frame(response)
            assert (inner.type, inner.seq) == (FrameType.BYE, frame.seq)
        elif expected[0] == "LinkCorruption":
            assert (response, frame, applied) == (None, None, [])
            assert server.corrupt_frames == 1
        else:
            answer = protocol.decode_frame(response)
            assert frame is None and applied == []
            assert answer.fields == {
                "error_class": expected[0], "message": expected[1]}


# -- Reader: the primitives the storage decoders share -----------------------

READS = (
    ("byte",), ("uvarint",), ("svarint",), ("string",), ("double",),
    ("raw", 0), ("raw", 3), ("raw", 40), ("remaining",),
)


def drive(reader_class, data: bytes, script) -> list:
    reader = reader_class(data)
    trace = []
    for name, *args in script:
        try:
            trace.append((getattr(reader, name)(*args), reader.pos))
        except CodecError as error:
            trace.append(("CodecError", str(error)))
            break
    return trace


def test_the_reader_primitives_agree_with_the_per_byte_reader():
    rng = random.Random(2026)
    for _ in range(ARBITRARY):
        data = rng.randbytes(rng.choice((0, 1, 3, 9, 12, 30)))
        if rng.random() < 0.3:  # a well-formed prefix, so reads get further
            writer = codec.Writer()
            writer.uvarint(rng.choice(SEQS))
            writer.string(rng.choice(("", "k0123", "ü" * 70)))
            writer.svarint(rng.choice((-5, 0, 2**40)))
            data = writer.getvalue() + data
        script = [rng.choice(READS) for _ in range(rng.randrange(1, 6))]
        assert repr(drive(codec.Reader, data, script)) == repr(
            drive(reference.Reader, data, script)), (data, script)


# -- the wire did not move: each build talks to the other ---------------------


def test_a_parent_built_client_talks_to_this_executor():
    from repro import GemStone

    executor = Executor(GemStone.create())
    seq = itertools.count(1)

    def ask(inner: bytes):
        response, _ = executor.respond(reference.encode_seq(next(seq), inner, channel=3))
        return reference.decode_frame(response)

    assert ask(reference.encode_login("DataCurator", "swordfish")).type is FrameType.LOGIN_OK
    assert ask(reference.encode_execute("World!wire := 6 * 7")).fields["value"] == 42
    committed = ask(reference.encode_simple(FrameType.COMMIT))
    assert committed.type is FrameType.COMMITTED and committed.channel == 3
    assert ask(reference.encode_execute("World!wire")).fields["display"] == "42"
    assert ask(reference.encode_execute("World!")).type is FrameType.ERROR
    assert ask(reference.encode_simple(FrameType.LOGOUT)).type is FrameType.BYE


def test_this_client_talks_to_a_parent_built_server():
    """Every frame a ``HostConnection`` puts on the link, and every
    answer it is sent, reads the same through the parent's decoder —
    and re-encodes, through the parent's encoders, to the very bytes."""
    from repro import GemStone

    captured = []

    def tapped_link():
        host_end, gem_end = make_link()
        for end in (host_end, gem_end):
            send = end.send
            end.send = lambda frame, send=send: (captured.append(frame), send(frame))[1]
        return host_end, gem_end

    connection = HostConnection(GemStone.create(), link_factory=tapped_link)
    connection.login("DataCurator", "swordfish")
    assert connection.execute("World!wire := 'x'") == ("x", "'x'")
    assert connection.commit() is not None
    connection.abort()
    connection.logout()
    assert len(captured) == 10
    for raw in captured:
        frame = reference.decode_frame(raw)
        assert repr(frame) == repr(protocol.decode_frame(raw))
        # the envelope, rebuilt by the parent's encoder around the same
        # inner bytes (wherever they start), is the frame that was sent
        assert any(
            reference.encode_seq(
                frame.seq, raw[start:], deadline=frame.deadline,
                request_id=frame.request_id, channel=frame.channel,
            ) == raw
            for start in range(3, len(raw))
        )


# -- the net has to be able to catch something --------------------------------


def test_a_decoder_that_skips_the_checksum_is_caught(corpus, monkeypatch):
    """Bug one: every envelope's CRC 'matches'."""

    class AlwaysEqual(int):
        def __ne__(self, other):
            return False

    monkeypatch.setattr(protocol, "crc32", lambda data: AlwaysEqual(0))
    assert disagreements(corpus[:40_000]) != []


def test_a_decoder_that_swaps_two_envelope_flags_is_caught(corpus, monkeypatch):
    """Bug two: request-id and channel read in each other's place."""
    monkeypatch.setattr(protocol, "_SEQ_HAS_REQUEST_ID", 0x04)
    monkeypatch.setattr(protocol, "_SEQ_HAS_CHANNEL", 0x02)
    assert disagreements(corpus[:40_000]) != []


def test_a_payload_reader_that_runs_off_the_end_is_caught(corpus, monkeypatch):
    """Bug three: a bounds check lost, the failure untyped."""

    def unchecked(reader):
        data, pos = reader._data, reader.pos
        return {"source": str(data[pos + 1: pos + 1 + data[pos]], "utf-8")}

    monkeypatch.setitem(
        protocol._PAYLOADS, int(FrameType.EXECUTE), (FrameType.EXECUTE, unchecked))
    with pytest.raises((IndexError, UnicodeDecodeError, AssertionError)):
        assert disagreements(corpus) == []


def test_link_corruption_is_still_a_protocol_error():
    assert issubclass(LinkCorruption, ProtocolError)
