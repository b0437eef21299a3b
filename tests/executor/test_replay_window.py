"""The bounded ``(channel, seq)`` replay window and response correlation.

The original replay cache remembered exactly one sealed response (the
last sequence number served).  Under pipelining that is a double-apply
bug: a duplicate COMMIT delayed past one intervening EXECUTE no longer
matches the remembered seq, fails the "is this a resend?" check, and is
*applied a second time* — committing work the client never asked to
commit.  These tests pin the fix: a bounded window keyed by
``(channel, seq)`` that replays any recently-sealed response, plus the
host-side discipline of correlating responses by seq instead of
dropping whatever arrives out of order.
"""

import pytest

from repro import GemStone
from repro.errors import LinkTimeout
from repro.executor import (
    ExactlyOnceClient, HostConnection, ReplayWindow, make_link,
)
from repro.executor import protocol
from repro.executor.exchange import STASH_LIMIT
from repro.executor.protocol import FrameType


@pytest.fixture
def db():
    return GemStone.create(track_count=1024, track_size=1024)


class TestReplayWindowUnit:
    def test_miss_then_hit(self):
        window = ReplayWindow(4)
        assert window.lookup(None, 1) is None
        window.store(None, 1, b"answer")
        assert window.lookup(None, 1) == b"answer"
        assert window.replays == 1

    def test_unsequenced_frames_are_never_cached(self):
        window = ReplayWindow(4)
        assert window.lookup(None, None) is None
        window.store(None, None, b"ignored")
        assert window.lookup(None, None) is None
        assert window.replays == 0

    def test_channels_do_not_collide(self):
        window = ReplayWindow(4)
        window.store(0, 7, b"stream zero")
        window.store(1, 7, b"stream one")
        assert window.lookup(0, 7) == b"stream zero"
        assert window.lookup(1, 7) == b"stream one"

    def test_eviction_is_fifo_and_bounded(self):
        window = ReplayWindow(2)
        window.store(None, 1, b"one")
        window.store(None, 2, b"two")
        window.store(None, 3, b"three")  # evicts seq 1
        assert window.lookup(None, 1) is None
        assert window.lookup(None, 2) == b"two"
        assert window.lookup(None, 3) == b"three"


class TestDelayedDuplicateCommit:
    def test_duplicate_commit_after_intervening_execute_replays(self, db):
        """The headline regression: COMMIT seq N redelivered after
        EXECUTE seq N+1 must replay, not commit the uncommitted work."""
        conn = HostConnection(db)
        conn.login("DataCurator", "swordfish")
        executor = conn.executor
        host, gem = make_link()
        increment = protocol.encode_execute(
            "World!n := (World!n ifNil: [0]) + 1"
        )
        commit = protocol.encode_seq(
            1002, protocol.encode_simple(FrameType.COMMIT)
        )
        host.send(protocol.encode_seq(1001, increment))
        host.send(commit)  # commits World!n = 1
        host.send(protocol.encode_seq(1003, increment))  # uncommitted: n = 2
        executor.serve(gem)
        host.receive()
        first_commit = host.receive()
        host.receive()
        # the network redelivers the old COMMIT *after* seq 3 was served;
        # the single-entry cache would apply it again and commit n = 2
        host.send(commit)
        executor.serve(gem)
        assert host.receive() == first_commit
        assert executor.replays == 1
        # drop the in-progress increment, then read what was committed
        host.send(protocol.encode_seq(
            1004, protocol.encode_simple(FrameType.ABORT)
        ))
        host.send(protocol.encode_seq(
            1005, protocol.encode_execute("World!n")
        ))
        executor.serve(gem)
        host.receive()
        readback = protocol.decode_frame(host.receive())
        assert readback.fields["value"] == 1  # the duplicate did not commit

    def test_any_window_entry_replays_not_just_the_last(self, db):
        conn = HostConnection(db)
        conn.login("DataCurator", "swordfish")
        executor = conn.executor
        host, gem = make_link()
        envelopes = [
            protocol.encode_seq(seq, protocol.encode_execute(f"{seq} + 0"))
            for seq in (1001, 1002, 1003)
        ]
        for envelope in envelopes:
            host.send(envelope)
        executor.serve(gem)
        originals = [host.receive() for _ in envelopes]
        for envelope in reversed(envelopes):  # resend all, oldest last
            host.send(envelope)
        executor.serve(gem)
        replayed = [host.receive() for _ in envelopes]
        assert replayed == list(reversed(originals))
        assert executor.replays == 3

    def test_window_eviction_bounds_executor_memory(self, db):
        conn = HostConnection(db)
        conn.login("DataCurator", "swordfish")
        executor = conn.executor
        capacity = executor.replay.capacity
        host, gem = make_link()
        for seq in range(1001, 1001 + capacity + 1):  # one past capacity
            host.send(protocol.encode_seq(
                seq, protocol.encode_execute("1 + 1")
            ))
        executor.serve(gem)
        assert len(executor.replay._responses) == capacity
        # seq 1001 was evicted: a resend is *applied*, not replayed
        before = executor.replays
        host.send(protocol.encode_seq(
            1001, protocol.encode_execute("1 + 1")
        ))
        executor.serve(gem)
        assert executor.replays == before


class TestClientCorrelation:
    """The one stop-and-wait client, driven through ``request`` alone: a
    bare link whose far end is answered by hand stands in for any peer."""

    def test_out_of_order_response_is_stashed_not_dropped(self):
        """A response for a different seq must be filed for its own
        requester; the old client dropped it and timed out."""
        near, far = make_link()
        client = ExactlyOnceClient(near)
        # hand-deliver the first two responses in reversed order
        far.send(protocol.encode_seq(2, protocol.encode_result(2, "2")))
        far.send(protocol.encode_seq(1, protocol.encode_result(1, "1")))
        first = client.request(protocol.encode_execute("1"))
        assert first.fields["value"] == 1
        # the overtaking response was stashed, not discarded
        assert list(client.stash) == [2]
        second = client.request(protocol.encode_execute("2"))
        assert second.fields["value"] == 2
        assert (client.retries, client.timeouts) == (0, 0)

    def test_stash_is_bounded(self):
        near, far = make_link()
        client = ExactlyOnceClient(near)
        for offset in range(STASH_LIMIT + 5):
            far.send(protocol.encode_seq(
                100 + offset, protocol.encode_result(offset, str(offset))
            ))
        far.send(protocol.encode_seq(1, protocol.encode_result(-1, "match")))
        match = client.request(protocol.encode_execute("1"))
        assert match.fields["value"] == -1
        assert len(client.stash) == STASH_LIMIT
        assert 100 not in client.stash  # the oldest were forgotten

    def test_another_channels_stray_is_neither_matched_nor_stashed(self):
        near, far = make_link()
        client = ExactlyOnceClient(near, channel=0, max_attempts=1)
        far.send(protocol.encode_seq(
            1, protocol.encode_result(9, "9"), channel=1
        ))
        with pytest.raises(LinkTimeout) as caught:
            client.request(protocol.encode_execute("1"))
        assert caught.value.retry_after == client.retry_delay
        assert not client.stash
