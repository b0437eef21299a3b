"""Crash-recovery soak: every write index is a crash point, none may tear."""

from repro import GemStone
from repro.faults import (
    FaultPlan,
    FaultSpec,
    FaultyDisk,
    ResilientDisk,
    build_workload,
)
from repro.storage import DiskGeometry, SimulatedDisk
from repro.check import check


class TestCrashSweep:
    def test_exhaustive_sweep_never_tears(self):
        report = check("crash", commits=6, writes_per_commit=2)
        assert report.ok, [f.describe() for f in report.failures]  # nothing torn
        assert report.counts["recoveries"] == report.cases_run
        assert report.cases_run == len(report.census)
        assert len(report.census) > 0

    def test_recovery_time_is_measured(self):
        report = check("crash", stride=5, commits=4, writes_per_commit=2)
        times = [time for _survived, _epoch, time in report.steps.values()]
        assert max(times) > 0
        assert 0 < sum(times) / len(times) <= max(times)
        # strided sweep visits a subset of the write indexes
        assert report.cases_run < len(report.census)

    def test_steps_report_monotone_commit_progress(self):
        report = check("crash", commits=5, writes_per_commit=2)
        survived = [survived for survived, _epoch, _time in report.steps.values()]
        # later crash points can only preserve >= as many commits
        assert survived == sorted(survived)
        assert survived[0] == 0
        assert survived[-1] >= 4
        for survived, epoch, _time in report.steps.values():
            assert epoch == 1 + survived

    def test_crash_points_fall_in_every_way_a_record_is_written(self, monkeypatch):
        # the workload keeps a World of several tracks beside a one-track
        # neighbour: appended tails, sealed-and-spilled tails and whole
        # records must all be in flight at some crash point of a smoke run
        from collections import Counter

        from repro.storage import Boxer

        seen = Counter()
        real = Boxer.pack

        def pack(self, records, first_seq=None):
            packed = real(self, records, first_seq)
            for oid, _ in records:
                if first_seq and oid in first_seq:
                    spilled = len(packed.placements[oid]) > 1
                    seen["spill" if spilled else "append"] += 1
                else:
                    seen["whole"] += 1
            return packed

        monkeypatch.setattr(Boxer, "pack", pack)
        report = check("crash", commits=5, writes_per_commit=2)
        assert report.counts["recoveries"] == len(report.census)
        assert min(seen["append"], seen["spill"], seen["whole"]) > 0


class TestFaultyRunDeterminism:
    def test_seeded_faulty_runs_are_byte_identical(self):
        """Acceptance: the same seed over the same workload yields the
        same fault schedule, byte for byte."""

        def faulty_run(seed):
            disk = SimulatedDisk(DiskGeometry(track_count=1024, track_size=512))
            plan = FaultPlan(
                seed=seed, spec=FaultSpec(transient_rate=0.05, latency_rate=0.1)
            )
            stack = ResilientDisk(FaultyDisk(disk, plan), max_retries=8)
            db = GemStone.create(disk=stack)
            session = db.login()
            for batch in build_workload(commits=4, writes_per_commit=2):
                for statement in batch:
                    session.execute(statement)
                session.commit()
            return plan.schedule_bytes(), plan.schedule_digest()

        first_bytes, first_digest = faulty_run(seed=777)
        second_bytes, second_digest = faulty_run(seed=777)
        assert first_bytes == second_bytes
        assert first_digest == second_digest
        other_bytes, _ = faulty_run(seed=778)
        assert other_bytes != first_bytes
