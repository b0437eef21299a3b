"""The presumed-abort two-phase commit coordinator.

The protocol, window by window (each a soak kill point):

1. **PREPARE fan-out** — each participant validates, durably records
   its prepared workspace, and answers VOTE.  A no-vote, a typed error,
   or a silent participant (the channel's deadline expires) aborts the
   transaction, and *every* participant is told — the ones that voted,
   the one that failed (it may hold locks its own failed write left
   behind) and the ones not yet asked (their live workspaces would
   otherwise never be retired).  Nothing was logged, so the abort needs
   no durability — absence *is* the abort record (presumed abort).
2. **Decision persist** — with every vote yes, the COMMIT decision and
   its read-write participants are forced to the decision log's disk
   via safe group writes.  This single root flip is the transaction's
   atomic commit point: before it, a crashed coordinator resolves every
   in-doubt participant to abort; after it, to commit.
3. **DECIDE fan-out** — participants apply (or drop) their prepared
   workspaces and acknowledge.  Read-only voters are skipped (they hold
   nothing).  A participant dead during fan-out keeps the decision
   pending until the cluster's recovery has respawned it, after which
   :meth:`settle` re-delivers and forgets the entry.

Recovery *pushes*: the cluster reads each respawned participant's
in-doubt gtids and :meth:`resolve` answers every one with a DECIDE
whose verdict is simply "is the gtid in the log" — commit if yes,
abort presumed if no.
"""

from __future__ import annotations

from typing import Optional

from ..errors import (
    CoordinatorUnavailable,
    GemStoneError,
    TransactionConflict,
    TransactionInDoubt,
)
from ..executor import protocol
from ..executor.protocol import FrameType
from .decisions import DecisionLog
from .rpc import CoordinatorKilled, RequestChannel


class TwoPhaseCoordinator:
    """Drives cross-shard commits against the durable decision log."""

    def __init__(self, decision_log: DecisionLog, killer=None) -> None:
        self.log = decision_log
        self.killer = killer
        self.alive = True
        #: shard id -> RequestChannel for 2PC control frames
        self.channels: dict[int, RequestChannel] = {}
        self.commits = 0
        self.aborts = 0
        #: in-doubt gtids answered from the log at recovery
        self.resolutions = 0

    def attach(self, shard_id: int, channel: RequestChannel) -> None:
        """Register the 2PC control channel for one participant."""
        self.channels[shard_id] = channel

    def _window(self, name: str) -> None:
        if self.killer is not None:
            self.killer.window(name, "coord")

    # -- the commit protocol -------------------------------------------------

    def commit(self, gtid: str, participants: list[int]) -> bool:
        """Run 2PC for *gtid* across *participants*.

        Returns True on commit.  Raises
        :class:`~repro.errors.TransactionConflict` when a participant
        votes no, or the participant channel's error when a shard fails
        or goes silent before the decision — an abort either way (nothing
        was logged), which every participant is told.
        """
        if not self.alive:
            raise CoordinatorUnavailable("coordinator is down")
        votes: dict[int, bool] = {}  # shard -> read_only
        for shard_id in participants:
            try:
                reply = self.channels[shard_id].request(
                    protocol.encode_prepare(gtid)
                )
            except CoordinatorKilled:
                raise
            except GemStoneError:
                self._abort_everywhere(gtid, participants, votes)
                raise
            self._window("coord.between_votes")
            if reply.type is not FrameType.VOTE or not reply.fields["commit"]:
                self._abort_everywhere(gtid, participants, votes)
                raise TransactionConflict(
                    f"shard {shard_id} voted no on {gtid}"
                )
            votes[shard_id] = reply.fields["read_only"]
        writers = [shard for shard, read_only in votes.items() if not read_only]
        if not writers:
            # every participant was read-only: nothing to decide, log,
            # or fan out — the transaction is trivially committed
            self.commits += 1
            return True
        self._window("coord.before_decision_persist")
        self.log.record_commit(gtid, writers)
        self._window("coord.after_decision_persist")
        self.commits += 1
        self._fan_out_decide(gtid, writers)
        return True

    def _abort_everywhere(
        self, gtid: str, participants: list[int], votes: dict[int, bool]
    ) -> None:
        """DECIDE abort for every participant but the read-only voters
        (they hold nothing): prepared, failed or not yet asked alike.

        Best effort: an unreachable participant stays prepared and is
        resolved to abort after its restart (the gtid is not in the log).
        """
        self.aborts += 1
        for shard_id in participants:
            if votes.get(shard_id):
                continue
            try:
                self.channels[shard_id].request(
                    protocol.encode_decide(gtid, False)
                )
            except GemStoneError:
                pass  # presumed abort covers it

    def _fan_out_decide(self, gtid: str, writers: list[int]) -> None:
        """Deliver DECIDE commit; forget the entry once everyone acked."""
        acked = 0
        for shard_id in writers:
            self._window("coord.mid_decide")
            try:
                reply = self.channels[shard_id].request(
                    protocol.encode_decide(gtid, True)
                )
            except CoordinatorKilled:
                raise
            except GemStoneError:
                continue  # dead participant: the entry stays pending
            if reply.type is FrameType.DECIDE_ACK:
                acked += 1
        if acked == len(writers):
            self.log.forget(gtid)

    def settle(self) -> int:
        """Re-deliver DECIDE for every pending logged commit (restart).

        Returns how many entries became fully acknowledged (and were
        forgotten).  Entries whose participants are still unreachable
        remain pending for a later settle.
        """
        settled = 0
        for gtid, writers in sorted(self.log.pending().items()):
            before = self.log.decision(gtid)
            self._fan_out_decide(gtid, list(writers))
            if before and not self.log.decision(gtid):
                settled += 1
        return settled

    def resolve(self, shard_id: int, gtids: list[str]) -> int:
        """Answer a recovered participant's in-doubt *gtids* from the log.

        Each gets a DECIDE: commit if the decision was logged, abort
        presumed otherwise.  Returns how many were answered.
        """
        for gtid in gtids:
            self.channels[shard_id].request(
                protocol.encode_decide(gtid, self.log.decision(gtid))
            )
            self.resolutions += 1
        return len(gtids)

    # -- reporting --------------------------------------------------------------

    def report(self) -> dict:
        """Coordinator counters for observability and the soak digest."""
        report = {
            "alive": self.alive,
            "commits": self.commits,
            "aborts": self.aborts,
            "resolutions": self.resolutions,
        }
        report.update(self.log.report())
        return report


def in_doubt_error(gtid: str) -> TransactionInDoubt:
    """The client-facing verdict when the coordinator dies mid-protocol."""
    return TransactionInDoubt(
        f"transaction {gtid} lost its coordinator between prepare and "
        "decide; its outcome awaits the decision log"
    )
