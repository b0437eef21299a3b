"""Tests for the Executor protocol and host link."""

import pytest

from repro import GemStone, GemStoneError
from repro.core import Ref
from repro.errors import AuthorizationError, ProtocolError
from repro.executor import FrameType, HostConnection, make_link
from repro.executor import protocol


@pytest.fixture
def db():
    return GemStone.create(track_count=1024, track_size=1024)


@pytest.fixture
def conn(db):
    connection = HostConnection(db)
    connection.login("DataCurator", "swordfish")
    return connection


class TestLink:
    def test_frames_round_trip(self):
        a, b = make_link()
        a.send(b"hello")
        a.send(b"world")
        assert b.receive() == b"hello"
        assert b.receive() == b"world"
        assert b.receive() is None

    def test_duplex(self):
        a, b = make_link()
        a.send(b"ping")
        b.send(b"pong")
        assert b.receive() == b"ping"
        assert a.receive() == b"pong"

    def test_empty_frame_allowed_on_wire(self):
        a, b = make_link()
        a.send(b"")
        assert b.receive() == b""

    def test_close(self):
        a, b = make_link()
        a.close()
        assert b.peer_closed
        with pytest.raises(ProtocolError):
            a.send(b"x")

    def test_accounting(self):
        a, _ = make_link()
        a.send(b"12345")
        assert a.frames_sent == 1
        assert a.bytes_sent == 9


class TestProtocolCodec:
    def test_login_roundtrip(self):
        frame = protocol.decode_frame(protocol.encode_login("u", "p"))
        assert frame.type is FrameType.LOGIN
        assert frame.fields == {"user": "u", "password": "p"}

    def test_execute_roundtrip(self):
        frame = protocol.decode_frame(protocol.encode_execute("3 + 4"))
        assert frame.fields["source"] == "3 + 4"

    def test_result_with_immediate(self):
        frame = protocol.decode_frame(protocol.encode_result(42, "42"))
        assert frame.fields["value"] == 42
        assert frame.fields["display"] == "42"
        assert frame.fields["wire_value"]

    def test_result_with_object_becomes_ref(self, db):
        session = db.login()
        obj = session.new("Object")
        frame = protocol.decode_frame(
            protocol.encode_result(obj, "an Object")
        )
        assert frame.fields["value"] == Ref(obj.oid)

    def test_error_roundtrip(self):
        frame = protocol.decode_frame(protocol.encode_error("Kind", "msg"))
        assert frame.type is FrameType.ERROR
        assert frame.fields["error_class"] == "Kind"

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"\xff")
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"")


class TestHostConnection:
    def test_execute_immediate(self, conn):
        value, display = conn.execute("3 + 4")
        assert value == 7
        assert display == "7"

    def test_execute_object_returns_ref_and_display(self, conn):
        value, display = conn.execute("| o | o := Object new. o at: 'x' put: 1. o")
        assert isinstance(value, Ref)
        assert "Object" in display

    def test_blocks_of_source(self, conn):
        """The unit of communication is a block of OPAL source."""
        conn.execute("""
            Object subclass: #Counter instVarNames: #(n).
            Counter compile: 'n ^n'.
            Counter compile: 'bump n := (n isNil ifTrue: [0] ifFalse: [n]) + 1'
        """)
        value, _ = conn.execute(
            "| c | c := Counter new. c bump. c bump. c bump. c n"
        )
        assert value == 3

    def test_errors_come_back_as_frames(self, conn):
        with pytest.raises(GemStoneError, match="frobnicate"):
            conn.execute("3 frobnicate")
        # session survives the error
        assert conn.execute("1 + 1")[0] == 2

    def test_parse_error_reported(self, conn):
        with pytest.raises(GemStoneError):
            conn.execute("x := ")

    def test_commit_and_visibility(self, db):
        writer = HostConnection(db)
        writer.login("DataCurator", "swordfish")
        reader = HostConnection(db)
        reader.login("DataCurator", "swordfish")
        writer.execute("World!shared := 99")
        assert writer.commit() is not None
        assert reader.execute("World!shared")[0] == 99

    def test_conflict_reported_as_none(self, db):
        a = HostConnection(db)
        a.login("DataCurator", "swordfish")
        b = HostConnection(db)
        b.login("DataCurator", "swordfish")
        a.execute("World!x := 0")
        assert a.commit() is not None
        b.abort()
        a.execute("World!x := World!x + 1")
        b.execute("World!x := World!x + 1")
        assert a.commit() is not None
        assert b.commit() is None  # conflict

    def test_abort(self, conn):
        conn.execute("World!x := 5")
        conn.abort()
        assert conn.execute("World!x")[0] is None

    def test_bad_login(self, db):
        connection = HostConnection(db)
        with pytest.raises(AuthorizationError):  # the type survives the wire
            connection.login("DataCurator", "wrong")

    def test_execute_before_login_rejected(self, db):
        connection = HostConnection(db)
        with pytest.raises(GemStoneError):
            connection.execute("1")

    def test_logout_ends_session(self, conn):
        conn.logout()
        assert conn.session_id is None
        with pytest.raises(GemStoneError):
            conn.execute("1")
