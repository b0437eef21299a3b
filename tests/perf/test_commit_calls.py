"""A one-binding commit's Python work does not grow with its record.

A World of about 10 fragments and one of about 100 (512-byte tracks)
take the same one-binding commit.  The grown tail is all that is boxed,
and every step after that must cost the same at both sizes: the table
entry re-encodes only itself, its track references move by set
difference, the page is a join of kept entries, the allocator starts at
its floor.  Counted with cProfile, like ``test_request_frames``; only
calls of Python functions are counted, because a builtin's count also
follows the byte length of varints (a track number past 127 is one more
``bytearray.append``), which is not the record's fragment count.
"""

import cProfile
import pstats

from repro import GemStone


def world_of(fragments):
    db = GemStone.create(track_count=4096, track_size=512)
    session = db.login()
    world = db.store.catalog["world"]
    key = 0
    while len(db.store.table.get(world).tracks) < fragments:
        for _ in range(50):
            session.execute(f"World!k{key:05d} := {key}")
            key += 1
        session.commit()
    return db, session


def python_calls_of(commit) -> int:
    profile = cProfile.Profile()
    profile.enable()
    commit()
    profile.disable()
    return sum(
        calls for (path, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if path != "~"
    )


def commit_costs(fragments):
    """Python calls of each of 30 one-binding commits, after 40 warm ones
    (the contention policy's outcome window is full by then)."""
    db, session = world_of(fragments)
    counter = iter(range(10**6))

    def commit():
        session.execute(f"World!k00001 := {next(counter)}")
        session.commit()

    for _ in range(40):
        commit()
    costs = [python_calls_of(commit) for _ in range(30)]
    world = db.store.table.get(db.store.catalog["world"])
    return costs, len(world.tracks)


def test_a_one_binding_commit_costs_the_same_on_10_and_100_fragments():
    small, small_fragments = commit_costs(10)
    large, large_fragments = commit_costs(100)
    assert small_fragments < 15 and large_fragments > 90
    # 30 commits cover a whole tail cycle at either size: a commit that
    # seals a full tail and one that does not
    assert min(small) == min(large)
    assert max(small) == max(large)
