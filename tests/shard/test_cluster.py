"""ShardedGemStone: routing, fast path, 2PC commit/abort, conflicts."""

import pytest

from repro.errors import (
    SessionClosed,
    ShardRoutingError,
    ShardUnavailable,
    TransactionConflict,
)
from repro.shard import ShardedGemStone
from repro.shard.partition import shard_of


def keys_on_distinct_shards(shard_count, n=2):
    """World binding names hashing to *n* different shards."""
    picked, owners = [], set()
    i = 0
    while len(picked) < n:
        key = f"key{i}"
        owner = shard_of(key, shard_count)
        if owner not in owners:
            owners.add(owner)
            picked.append(key)
        i += 1
    return picked


class TestRoutingAndFastPath:
    def test_single_shard_transaction_skips_the_coordinator(self):
        cluster = ShardedGemStone(shard_count=3)
        session = cluster.login()
        session.execute("World!solo := 42")
        session.commit()
        assert cluster.single_shard_commits == 1
        assert cluster.cross_shard_commits == 0
        assert cluster.coordinator.log.commits_recorded == 0

    def test_cross_shard_statement_is_rejected_typed(self):
        cluster = ShardedGemStone(shard_count=2)
        session = cluster.login()
        a, b = keys_on_distinct_shards(2)
        with pytest.raises(ShardRoutingError):
            session.execute(f"World!{a} := World!{b}")

    def test_values_are_readable_from_any_session(self):
        cluster = ShardedGemStone(shard_count=3)
        writer = cluster.login()
        for i in range(6):
            writer.execute(f"World!val{i} := {i * 10}")
        writer.commit()
        reader = cluster.login()
        assert [reader.execute(f"World!val{i}") for i in range(6)] == [
            0, 10, 20, 30, 40, 50,
        ]


class TestCrossShardCommit:
    def test_two_shard_commit_is_atomic_and_logged_then_forgotten(self):
        cluster = ShardedGemStone(shard_count=2)
        session = cluster.login()
        a, b = keys_on_distinct_shards(2)
        session.execute(f"World!{a} := 'left'")
        session.execute(f"World!{b} := 'right'")
        session.commit()
        assert cluster.cross_shard_commits == 1
        # fully acknowledged: the decision log entry was forgotten
        assert cluster.coordinator.log.commits_recorded == 1
        assert cluster.coordinator.log.pending() == {}
        reader = cluster.login()
        assert reader.execute(f"World!{a}") == "left"
        assert reader.execute(f"World!{b}") == "right"

    def test_read_only_transaction_commits_without_phase_two(self):
        cluster = ShardedGemStone(shard_count=2)
        writer = cluster.login()
        a, b = keys_on_distinct_shards(2)
        writer.execute(f"World!{a} := 1")
        writer.execute(f"World!{b} := 2")
        writer.commit()
        reader = cluster.login()
        reader.execute(f"World!{a}")
        reader.execute(f"World!{b}")
        recorded = cluster.coordinator.log.commits_recorded
        reader.commit()  # both participants vote yes read-only
        assert cluster.coordinator.log.commits_recorded == recorded

    def test_conflicting_cross_shard_commit_aborts_everywhere(self):
        cluster = ShardedGemStone(shard_count=2)
        setup = cluster.login()
        a, b = keys_on_distinct_shards(2)
        setup.execute(f"World!{a} := 0")
        setup.execute(f"World!{b} := 0")
        setup.commit()

        first = cluster.login()
        second = cluster.login()
        for session, bump in ((first, 1), (second, 10)):
            session.execute(f"World!{a} := (World!{a}) + {bump}")
            session.execute(f"World!{b} := (World!{b}) + {bump}")
        first.commit()
        with pytest.raises(TransactionConflict):
            second.commit()
        # the loser left no partial state on either shard
        reader = cluster.login()
        assert reader.execute(f"World!{a}") == 1
        assert reader.execute(f"World!{b}") == 1
        assert cluster.in_doubt() == {}

    def test_a_no_vote_retires_the_participants_not_yet_asked(self):
        cluster = ShardedGemStone(shard_count=2)
        a, b = keys_on_distinct_shards(2)
        for attempt in range(5):
            winner, loser = cluster.login(), cluster.login()
            for session in (loser, winner):
                session.execute(f"World!{a} := (World!{a}) printString")
                session.execute(f"World!{b} := {attempt}")
            winner.commit()
            # the first participant votes no; the second was never asked,
            # and the client has nothing left to send it
            with pytest.raises(TransactionConflict):
                loser.commit()
            loser.close()
            for shard_id in range(2):
                status = cluster.status(shard_id)
                assert status["report"]["live_sessions"] == 0
                assert status["in_doubt"] == [] == status["durable_prepared"]
        assert cluster.coordinator.aborts == 5

    def test_abort_rolls_back_every_participant(self):
        cluster = ShardedGemStone(shard_count=2)
        session = cluster.login()
        a, b = keys_on_distinct_shards(2)
        session.execute(f"World!{a} := 'x'")
        session.execute(f"World!{b} := 'y'")
        session.abort()
        reader = cluster.login()
        assert reader.execute(f"World!{a}") is None
        assert reader.execute(f"World!{b}") is None

    def test_empty_commit_is_a_noop(self):
        cluster = ShardedGemStone(shard_count=2)
        assert cluster.login().commit() is None


class TestSessionLifecycle:
    def test_closed_session_rejects_execution(self):
        cluster = ShardedGemStone(shard_count=2)
        session = cluster.login()
        session.close()
        with pytest.raises(SessionClosed):
            session.execute("World!x := 1")

    def test_context_manager_discards_in_flight_work(self):
        cluster = ShardedGemStone(shard_count=2)
        with cluster.login() as session:
            session.execute("World!temp := 1")
        assert cluster.login().execute("World!temp") is None

    def test_opal_computation_round_trips_the_wire(self):
        cluster = ShardedGemStone(shard_count=2)
        session = cluster.login()
        session.execute("""
            | s |
            s := Set new.
            #(1 2 3 4 5) do: [:n | s add: n].
            World!numbers := s
        """)
        session.commit()
        reader = cluster.login()
        assert reader.execute(
            "(World!numbers select: [:n | n > 2]) size"
        ) == 3


class TestRetryBackoff:
    """Channel retries pace through govern's jittered backoff policy."""

    def test_cluster_channels_share_a_seeded_policy(self):
        from repro.govern import CommitPolicy

        cluster = ShardedGemStone(shard_count=2)
        assert isinstance(cluster.retry_policy, CommitPolicy)
        for channel in cluster.exec_channels:
            assert channel.policy is cluster.retry_policy

    def test_dead_worker_retries_back_off_exponentially(self):
        cluster = ShardedGemStone(shard_count=2, deadline=100.0)
        session = cluster.login()
        cluster.hosts[0].sigkill()
        cluster.hosts[1].sigkill()
        before = cluster.clock.now
        with pytest.raises(ShardUnavailable):
            for i in range(99):  # first statement to hit a dead worker
                session.execute(f"World!bk{i} := 1")
        channel = next(c for c in cluster.exec_channels if c.retries)
        # 4 retries at base 1.0, factor 2.0: at least 1+2+4+8 units,
        # strictly more than the flat retry_delay pacing would spend
        elapsed = cluster.clock.now - before
        assert channel.retries == channel.max_attempts - 1
        assert elapsed >= 15.0
