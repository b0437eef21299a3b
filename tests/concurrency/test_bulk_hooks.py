"""The session's bulk hooks against their per-row definitions.

``ObjectStore.objects`` / ``deref_column`` / ``values_at_column`` /
``members_of`` / ``add_members`` are *defined* by the loops in the base
class; ``SessionObjectManager`` answers the same questions a column at a
time.  Each test builds two identical databases, puts a session on each
into the same state, runs the base-class loop on one and the session's
own method on the other, and asks for the same values **and** the same
access records, write log, cache counters and LRU order — or the same
typed error with the same message (oid, segment).  After an error only
the error is compared: the bulk attempt may have counted cache hits
before it handed over to the per-row loop for the verdict.
"""

import random

import pytest

from repro.concurrency import (
    Authorizer,
    Privilege,
    SessionObjectManager,
    TransactionManager,
)
from repro.core import GemObject, Ref
from repro.core.object_manager import ObjectStore
from repro.dr.verify import disk_digest
from repro.errors import (
    ArchiveError,
    AuthorizationError,
    GemStoneError,
    NoSuchObject,
    SessionClosed,
    SessionQuotaExceeded,
)
from repro.govern.quota import QuotaSpec, SessionQuota
from repro.opal import OpalEngine
from repro.storage import ArchiveMedia, DiskGeometry, SimulatedDisk, StableStore

MEMBERS = 90
SEEDS = range(4)
#: the element names a column read asks for ("absent": no member has it)
ELEMENTS = ("salary", "dept", "name", "absent")


class World:
    """One database, built the same way every time, and a session on it."""

    def __init__(self, cache_capacity=None, secret_member=False, dangling=False):
        self.store = StableStore.format(
            SimulatedDisk(DiskGeometry(track_count=4096, track_size=1024)),
            cache_capacity,
        )
        self.tm = TransactionManager(self.store)
        self.auth = Authorizer()
        dba = self.auth.authenticate("DataCurator", "swordfish")
        self.auth.create_user(dba, "ellen", "pw")
        payroll = self.auth.create_segment(dba, "payroll")

        loader = SessionObjectManager(self.store, self.tm, user=dba, authorizer=self.auth)
        bag = loader.instantiate("Bag")
        depts = [loader.instantiate("Object", title=f"dept{i}") for i in range(5)]
        members = []
        for i in range(MEMBERS):
            segment = payroll.segment_id if secret_member and i == 40 else None
            member = loader.instantiate(
                "Object", segment, name=f"emp{i:03d}", salary=1000 + i,
                dept=depts[i % 5],
            )
            members.append(member.oid)
            loader.add_members(bag, [member])
        loader.add_members(bag, [17, "loose"])  # immediates are members too
        self.times = [loader.commit()]
        # a second and third state: raises, a departure, an arrival
        for i in (3, 30, 60):
            loader.bind(members[i], "salary", 5000 + i)
        first_alias = next(iter(loader.object(bag.oid).elements))
        loader.unbind(bag.oid, first_alias)
        self.times.append(loader.commit())
        late = loader.instantiate("Object", name="late", salary=1, dept=depts[0])
        loader.add_members(bag.oid, [late])
        if dangling:
            loader.bind(bag.oid, "ghost", Ref(987654))
        loader.bind(members[30], "salary", 7000)
        self.times.append(loader.commit())
        loader.close()

        self.bag = bag.oid
        self.payroll = payroll.segment_id
        self.members = members[1:] + [late.oid]
        self.store.cache.reset_stats()
        self.session = SessionObjectManager(
            self.store, self.tm,
            user=self.auth.authenticate("ellen", "pw"), authorizer=self.auth,
        )

    def snapshot(self):
        s, cache = self.session, self.store.cache
        return {
            "reads": s.read_pairs(),
            "enum_reads": set(s.enum_reads),
            "write_log": list(s.write_log),
            "creations": [c.obj.oid for c in s.creations],
            "workspace": sorted(s.workspace),
            "aliases": s._alias_counter,
            "cache": (cache.hits, cache.misses, cache.evictions),
            # recency is kept only where an eviction could consult it
            "lru": list(cache._entries) if cache.capacity else sorted(cache._entries),
        }


def plain(world, values):
    """A column as comparable data; objects say whose copy they are."""
    workspace = world.session.workspace
    return [
        ("object", v.oid, workspace.get(v.oid) is v) if isinstance(v, GemObject) else v
        for v in values
    ]


def outcome(world, call):
    try:
        return ("ok", plain(world, call())), world.snapshot()
    except (GemStoneError, TypeError) as error:
        # the session id is the one thing the twins do not share
        message = str(error).replace(f"session {world.session.session_id}", "session")
        return ("error", type(error), message), None


def both(make_world, prepare, call):
    """Run *call* per-row on one twin and bulk on the other; compare."""
    results = []
    for bulk in (False, True):
        world = make_world()
        context = prepare(world)
        results.append(outcome(world, lambda: call(world, context, bulk)))
    per_row, bulk = results
    assert bulk[0] == per_row[0]
    assert bulk[1] == per_row[1]
    return per_row[0]


def hook(world, name, bulk):
    """The session's own method, or the base class's loop bound to it."""
    if bulk:
        return getattr(world.session, name)
    return getattr(ObjectStore, name).__get__(world.session)


# -- session states ----------------------------------------------------------


def clean(world, rng):
    return None


def dirty_members(world, rng):
    for oid in rng.sample(world.members, 7):
        world.session.bind(oid, "salary", rng.randrange(10**6))
        world.session.bind(oid, "name", None)


def dirty_collection(world, rng):
    s = world.session
    bag = s.object(world.bag)
    live = [name for name, _ in bag.items_at(None)]
    s.unbind(world.bag, rng.choice(live))
    s.bind(world.bag, s.new_alias(), Ref(rng.choice(world.members)))
    s.bind(world.bag, s.new_alias(), "added")


def created_here(world, rng):
    s = world.session
    for i in range(3):
        fresh = s.instantiate("Object", name=f"new{i}", salary=i)
        s.bind(world.bag, s.new_alias(), fresh)


def transient_members(world, rng):
    s = world.session
    temp = s.instantiate_transient("Object", name="temp", salary=-1)
    s.bind(world.bag, "scratch", 0)  # a twin of the collection ...
    s.workspace[world.bag].bind(s.new_alias(), Ref(temp.oid), s.write_time())
    # ... that holds a transient without having promoted it


def dial_back(world, rng):
    world.session.time_dial.set(rng.choice(world.times[:2]))


STATES = {
    "clean": clean,
    "dirty_members": dirty_members,
    "dirty_collection": dirty_collection,
    "created_here": created_here,
    "transient_members": transient_members,
    "dial_back": dial_back,
}


def column_calls(world, rng, time):
    """One call per read hook over the collection, as (hook name, args)."""
    bag = world.session.workspace.get(world.bag) or world.store.object(world.bag)
    refs = [v for _, v in bag.items_at(time)]
    rng.shuffle(refs)
    oids = [v.oid for v in refs if isinstance(v, Ref)]
    oids += rng.sample(oids, 5)  # the same object twice in a column
    return {
        "objects": (oids,),
        "deref_column": (refs + [None, 3.5],),
        "members_of": (Ref(world.bag), time),
    }


def read_hook_outcomes(make_world, prepare):
    """Every read hook, bulk against per row, after *prepare*: the
    outcomes, ``("ok", values)`` or ``("error", type, message)``."""
    outcomes = []
    for name in ("objects", "deref_column", "members_of"):
        def call(world, context, bulk):
            rng, time = context
            return hook(world, name, bulk)(*column_calls(world, rng, time)[name])

        outcomes.append(both(make_world, prepare, call))

    for element in ELEMENTS:
        for designators in (False, True):
            def call(world, context, bulk):
                rng, time = context
                s = world.session
                targets = [m for m in s.members_of(world.bag) if isinstance(m, GemObject)]
                if designators:  # Refs and oids among them: resolved per row
                    targets = [
                        t if i % 3 == 0 else Ref(t.oid) if i % 3 == 1 else t.oid
                        for i, t in enumerate(targets)
                    ]
                # what the committed store still holds for a twinned
                # object: a designator too, and the twin must answer
                targets += [
                    world.store.object(oid)
                    for oid in sorted(s.workspace)
                    if oid != world.bag and world.store.contains(oid)
                ]
                return hook(world, "values_at_column", bulk)(targets, element, time)

            outcomes.append(both(make_world, prepare, call))

    for element in ("salary", "name"):
        def call(world, context, bulk):
            rng, time = context
            s = world.session
            read = hook(world, "values_at_column", bulk)
            # the members a warm scan read, perhaps before the state
            # changed; a closed session can draw no others
            held = getattr(world, "warm", None)
            now = held if s.closed else [
                m for m in s.members_of(world.bag) if isinstance(m, GemObject)
            ]
            values = read(held or now, element, time)
            for start in range(0, len(now), 32):  # the executor's batches
                run = now[start:start + 32]
                values += read(run, element, time)
                if start == 32:  # one read again for an element no scan read
                    values += read(run, "dept", time)
            return values + read(now[1::2], element, time)  # a filtered batch

        outcomes.append(both(make_world, prepare, call))
    return outcomes


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("capacity", (None, 64))
@pytest.mark.parametrize("pinned", (False, True))
def test_read_hooks_match_the_per_row_definition(seed, state, capacity, pinned):
    def prepare(world):
        rng = random.Random(seed)
        STATES[state](world, rng)
        time = rng.choice(world.times) if pinned else None
        return rng, time

    outcomes = read_hook_outcomes(lambda: World(capacity), prepare)
    assert {kind for kind, *_ in outcomes} == {"ok"}


# -- the shared member and value columns ----------------------------------------
#
# A session reading a collection "now" takes its members from the stable
# store's member column, built once and shared by every session, and a
# run of those members' values of one element from the value column kept
# beside it.  Each state below first makes both with one warm scan, then
# changes something the columns must notice — or a read must refuse.


def elsewhere(world, change):
    """Another session makes *change* to the bag and commits it."""
    other = SessionObjectManager(world.store, world.tm)
    change(other, other.object(world.bag))
    world.times.append(other.commit())
    other.close()


def shared(world, rng):
    """Every member a Ref and readable, and one scan made."""
    dba = world.auth.authenticate("DataCurator", "swordfish")
    world.auth.grant(dba, world.payroll, "ellen", Privilege.READ)

    def refs_only(other, bag):
        for name, value in bag.items_at(None):
            if not isinstance(value, Ref):
                other.unbind(world.bag, name)

    elsewhere(world, refs_only)
    s = world.session
    world.warm = s.members_of(world.bag)
    assert len(world.warm) == MEMBERS
    # the warm scan builds value columns and their postings; "dept" is
    # left unread so a later partial run of it is the only read of its name
    for element in ("salary", "name", "absent"):
        s.values_at_column(world.warm, element)
        s.posted_truth(world.warm, element, [])


def archived(world, rng, mounted):
    shared(world, rng)
    media = ArchiveMedia()
    world.store.archive_object(rng.choice(world.members), media)
    if mounted:
        world.store.archive_drive.mount(media)


def added_elsewhere(world, rng):
    shared(world, rng)

    def add(other, bag):
        other.bind(world.bag, other.new_alias(), other.instantiate("Object", salary=-1))

    elsewhere(world, add)


def removed_elsewhere(world, rng):
    shared(world, rng)

    def remove(other, bag):
        other.unbind(world.bag, rng.choice([name for name, _ in bag.items_at(None)]))

    elsewhere(world, remove)


def written_elsewhere(world, rng, element):
    shared(world, rng)
    oid = rng.choice(world.members)
    elsewhere(world, lambda other, bag: other.bind(oid, element, -7))


def bound_directly(world, rng):
    """A write straight into a committed member, as a shard worker's."""
    shared(world, rng)
    member = world.store.object(rng.choice(world.members))
    member.bind("salary", -8, world.store.last_tx_time)


def unshared_directly(world, rng):
    shared(world, rng)
    world.store.object(rng.choice(world.members)).unshare_table("salary")


def one_twin(world, rng):
    shared(world, rng)
    world.session.bind(rng.choice(world.members), "salary", -9)


def result_between(world, rng):
    """A select's result, built from the warm scan's members."""
    shared(world, rng)
    s = world.session
    s.add_members(s.instantiate_transient("Bag"), world.warm)


def revoked(world, rng):
    shared(world, rng)
    dba = world.auth.authenticate("DataCurator", "swordfish")
    world.auth.grant(dba, world.payroll, "ellen", Privilege.NONE)


def dangling_elsewhere(world, rng):
    shared(world, rng)
    elsewhere(world, lambda other, bag: other.bind(world.bag, "ghost", Ref(987654)))


def then(*steps):
    def state(world, rng):
        shared(world, rng)
        for step in steps:
            step(world, rng)

    return state


SHARED_STATES = {
    "shared": shared,
    "archived_unmounted": lambda world, rng: archived(world, rng, mounted=False),
    "archived_mounted": lambda world, rng: archived(world, rng, mounted=True),
    "flushed": then(lambda world, rng: world.store.flush_caches()),
    "added_elsewhere": added_elsewhere,
    "removed_elsewhere": removed_elsewhere,
    "member_twin": then(dirty_members),
    "one_twin": one_twin,
    "collection_twin": then(dirty_collection),
    "dial_back": then(dial_back),
    "revoked": revoked,
    "dangling": dangling_elsewhere,
    "written_elsewhere": lambda world, rng: written_elsewhere(world, rng, "salary"),
    "other_element_elsewhere": lambda world, rng: written_elsewhere(world, rng, "rank"),
    "bound_directly": bound_directly,
    "unshared_directly": unshared_directly,
    "result_between": result_between,
    "closed": then(lambda world, rng: world.session.close()),
}
#: the error a read of the whole bag meets in a state
REFUSALS = {
    "archived_unmounted": ArchiveError,
    "revoked": AuthorizationError,
    "dangling": NoSuchObject,
    "closed": SessionClosed,
}


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("state", SHARED_STATES)
@pytest.mark.parametrize("capacity", (None, 64))
@pytest.mark.parametrize("pinned", (False, True))
def test_the_shared_member_column_matches_the_per_row_definition(
    seed, state, capacity, pinned
):
    def prepare(world):
        rng = random.Random(seed)
        SHARED_STATES[state](world, rng)
        # @T: a time from before the warm scan, or the newest commit
        time = rng.choice(world.times) if pinned else None
        return rng, time

    outcomes = read_hook_outcomes(
        lambda: World(capacity, secret_member=True), prepare
    )
    if state not in REFUSALS:
        assert {kind for kind, *_ in outcomes} == {"ok"}
    elif not pinned:
        assert outcomes[2][:2] == ("error", REFUSALS[state])  # members_of


def test_only_an_unbounded_cache_shares_member_columns():
    world = World(64, secret_member=True)
    shared(world, random.Random(0))
    assert world.store._member_columns._columns == {}
    # one column for every session: a second session's scan builds none
    world = World(secret_member=True)
    shared(world, random.Random(0))
    (column,) = world.store._member_columns._columns.values()
    dba = world.auth.authenticate("DataCurator", "swordfish")
    other = SessionObjectManager(world.store, world.tm, user=dba, authorizer=world.auth)
    hits = world.store.cache.hits
    assert other.members_of(world.bag) == column.members
    assert world.store._member_columns._columns == {world.bag: column}
    assert world.store.cache.hits - hits == MEMBERS + 1  # the members and the bag


def test_values_come_from_the_twin_and_creations_stay_out_of_the_read_set():
    world = World()
    s = world.session
    oid = world.members[5]
    s.bind(oid, "salary", -5)
    fresh = s.instantiate("Object", salary=-6)
    stale = world.store.object(oid)
    assert s.values_at_column([stale, fresh], "salary") == [-5, -6]
    assert s.read_pairs() == {(oid, "salary")}
    s.bind(world.bag, s.new_alias(), fresh)
    members = s.members_of(world.bag)
    assert s.workspace[oid] in members and fresh in members
    assert stale not in members


@pytest.mark.parametrize("name", ("objects", "deref_column", "members_of"))
@pytest.mark.parametrize("capacity", (None, 64))
def test_a_member_the_user_may_not_read_refuses_the_column(name, capacity):
    def call(world, rng, bulk):
        return hook(world, name, bulk)(*column_calls(world, rng, None)[name])

    kind, error, message = both(
        lambda: World(capacity, secret_member=True),
        lambda world: random.Random(1), call,
    )
    assert (kind, error) == ("error", AuthorizationError)
    assert "ellen may not read segment 'payroll'" in message


def test_every_object_taken_from_the_store_is_checked_once_per_segment():
    world = World()
    asked = []
    check = world.auth.check_read
    world.auth.check_read = lambda user, segment: (asked.append(segment), check(user, segment))
    world.session.bind(world.members[0], "salary", 0)  # a twin: not asked about
    del asked[:]
    world.session.objects(world.members)
    assert asked == [0]
    # granted READ, the column comes back whole
    world = World(secret_member=True)
    dba = world.auth.authenticate("DataCurator", "swordfish")
    world.auth.grant(dba, 1, "ellen", Privilege.READ)
    assert len(world.session.members_of(world.bag)) == MEMBERS + 2


@pytest.mark.parametrize("name", ("objects", "deref_column", "members_of"))
@pytest.mark.parametrize("secret_first", (False, True))
def test_a_dangling_ref_raises_no_such_object_with_its_oid(name, secret_first):
    def call(world, rng, bulk):
        args = column_calls(world, rng, None)[name]
        if name != "members_of":
            # the dangling one last: an unreadable member before it
            # must be what the caller hears about
            column = [v for v in args[0] if v not in (987654, Ref(987654))]
            args = (column + [987654 if name == "objects" else Ref(987654)],)
        return hook(world, name, bulk)(*args)

    kind, error, message = both(
        lambda: World(secret_member=secret_first, dangling=True),
        lambda world: random.Random(2), call,
    )
    assert kind == "error"
    if secret_first:
        assert error is AuthorizationError
    else:
        assert error is NoSuchObject and "987654" in message


def test_a_closed_session_refuses_as_the_per_row_loop_does():
    for name in ("objects", "deref_column", "members_of"):
        def prepare(world):
            rng = random.Random(3)
            args = column_calls(world, rng, None)[name]
            world.session.close()
            return args

        kind, error, _ = both(
            World, prepare, lambda world, args, bulk: hook(world, name, bulk)(*args)
        )
        assert (kind, error) == ("error", SessionClosed)

    def prepare(world):
        targets = world.session.objects(world.members)
        bag = world.session.instantiate_transient("Bag")
        world.session.close()
        return targets, bag

    # objects in hand still answer (value_at never asked); a write does not
    kind, *_ = both(
        World, prepare,
        lambda world, ctx, bulk: hook(world, "values_at_column", bulk)(ctx[0], "salary"),
    )
    assert kind == "ok"
    kind, error, _ = both(
        World, prepare,
        lambda world, ctx, bulk: hook(world, "add_members", bulk)(ctx[1], [1, 2]) or [],
    )
    assert (kind, error) == ("error", SessionClosed)
    # nothing to add, nothing to fetch: nothing to refuse
    kind, *_ = both(
        World, prepare,
        lambda world, ctx, bulk: hook(world, "add_members", bulk)(ctx[1], []) or [],
    )
    assert kind == "ok"


# -- the write side ----------------------------------------------------------


def elements_of(obj):
    return [(name, list(table.history())) for name, table in obj.elements.items()]


def receivers(world):
    s = world.session
    return {
        "transient": lambda: s.instantiate_transient("Bag"),
        "transient_with_elements": lambda: s.instantiate_transient("Bag", a=1, b=None),
        "created": lambda: s.instantiate("Bag"),
        "persistent": lambda: Ref(world.bag),
        "promoted": lambda: _promoted(world),
    }


def _promoted(world):
    s = world.session
    result = s.instantiate_transient("Bag")
    s.bind(world.bag, "kept", result)
    return result


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "receiver",
    ("transient", "transient_with_elements", "created", "persistent", "promoted"),
)
def test_add_members_matches_the_per_row_definition(seed, receiver):
    def prepare(world):
        rng = random.Random(seed)
        s = world.session
        values = s.objects(rng.sample(world.members, 12))
        values += [7, 2.5, "text", None, True, Ref(world.members[0])]
        values.append(s.instantiate_transient("Object", x=1))
        rng.shuffle(values)
        return receivers(world)[receiver](), values

    def call(world, context, bulk):
        target, values = context
        hook(world, "add_members", bulk)(target, values)
        obj = world.session.object(target.oid)
        return [obj.version, world.session._transients == set(), *elements_of(obj)]

    kind, *_ = both(World, prepare, call)
    assert kind == "ok"


def test_add_members_refuses_what_bind_refuses():
    def unstorable(world, _ctx, bulk):
        bag = world.session.instantiate_transient("Bag")
        hook(world, "add_members", bulk)(bag, [1, (2, 3), 4])

    kind, error, _ = both(World, lambda world: None, unstorable)
    assert (kind, error) == ("error", TypeError)

    def foreign_segment(world, _ctx, bulk):
        bag = world.session.instantiate_transient("Bag", segment_id=1)
        hook(world, "add_members", bulk)(bag, [1, 2])

    kind, error, message = both(World, lambda world: None, foreign_segment)
    assert (kind, error) == ("error", AuthorizationError)
    assert "may not write segment 'payroll'" in message


def test_the_result_segment_is_checked_on_every_call_and_only_once():
    world = World()
    asked = []
    check = world.auth.check_write
    world.auth.check_write = lambda user, segment: (asked.append(segment), check(user, segment))
    bag = world.session.instantiate_transient("Bag")
    world.session.add_members(bag, list(range(50)))
    world.session.add_members(bag, list(range(50)))
    assert asked == [0, 0]
    assert len(bag.elements) == 100 and bag.version == 100


def test_the_workspace_quota_still_covers_the_result_object():
    store = StableStore.format(
        SimulatedDisk(DiskGeometry(track_count=1024, track_size=1024))
    )
    session = SessionObjectManager(
        store, TransactionManager(store), quota=SessionQuota(QuotaSpec(max_workspace_objects=2))
    )
    for _ in range(2):
        session.add_members(session.instantiate_transient("Bag"), [1, 2, 3])
    with pytest.raises(SessionQuotaExceeded):
        session.instantiate_transient("Bag")


# -- a result held as one column -------------------------------------------
#
# ``add_members`` into a fresh transient holds the values as one column
# (a ``ColumnObject``) and builds the aliases and tables only when
# something needs them.  The per-row loop binds each value under its
# alias: the form every reader below must not tell apart from the column.


def held_result(world, bulk):
    """A select-like result of committed members, immediates and nils,
    filled by the session's fast path (*bulk*: held as a column) or
    alias by alias."""
    s = world.session
    # every other member, and the one in the payroll segment
    values = s.objects(world.members[:24:2] + [world.members[39]])
    values[3:3] = [7, None, "text", None, Ref(world.members[1]), 7]
    result = s.instantiate_transient("Bag")
    hook(world, "add_members", bulk)(result, values)
    assert (result.column is not None) == bulk
    return result


def opal(world, source, **bindings):
    engine = getattr(world.session, "opal_runtime", None) or OpalEngine(world.session)
    return engine.execute(source, bindings)


def contents(world, obj):
    """A collection's members (as :func:`plain` data) and its tables."""
    return [plain(world, world.session.members_of(obj)), elements_of(obj)]


def _promote_commit_reopen(world, result):
    s = world.session
    opal(world, "World!kept := r", r=result)
    s.commit()
    reopened = StableStore.open(world.store.disk)
    return [
        disk_digest(world.store.disk),
        elements_of(reopened.object(result.oid)),
        elements_of(world.store.object(result.oid)),
    ]


READERS = {
    "items_now": lambda world, r: list(r.items_at(None)),
    "items_before": lambda world, r: list(r.items_at(r.created_at - 1)),
    "items_at_write": lambda world, r: list(r.items_at(r.created_at)),
    "element_names": lambda world, r: r.element_names(),
    "live_names": lambda world, r: r.live_names(),
    "value_at_alias": lambda world, r: [
        world.session.value_at(r, name)
        for name in ("a3", "a5", "a6", "a99")
    ],
    "members_of": lambda world, r: plain(world, world.session.members_of(r)),
    "members_of_at": lambda world, r: [
        plain(world, world.session.members_of(r, time))
        for time in (r.created_at - 1, r.created_at)
    ],
    "live_items_of": lambda world, r: world.session.live_items_of(r),
    "count": lambda world, r: [
        world.session.live_count_of(r, time)
        for time in (None, r.created_at - 1, r.created_at)
    ],
    "includes": lambda world, r: [
        opal(world, "r includes: 7", r=r),
        opal(world, "r includes: m", r=r, m=world.session.object(world.members[2])),
        opal(world, "r includes: 8", r=r),
    ],
    "add": lambda world, r: [opal(world, "r add: 99. r size", r=r), elements_of(r)],
    "remove": lambda world, r: [opal(world, "r remove: 7. r size", r=r), elements_of(r)],
    "do": lambda world, r: opal(
        world, "| n | n := 0. r do: [:x | n := n + 1]. n", r=r
    ),
    "select": lambda world, r: contents(
        world, opal(world, "r select: [:x | x!salary > 1004]", r=r)
    ),
    "select_size": lambda world, r: opal(
        world, "(r select: [:x | x = 7]) size", r=r
    ),
    "collect_nils": lambda world, r: contents(
        world, opal(world, "r collect: [:x | x = 7 ifTrue: [nil] ifFalse: [x]]", r=r)
    ),
    "as_bag": lambda world, r: contents(world, opal(world, "r asBag", r=r)),
    "as_set": lambda world, r: contents(world, opal(world, "r asSet", r=r)),
    "promoted": _promote_commit_reopen,
}


def _revoke(world):
    dba = world.auth.authenticate("DataCurator", "swordfish")
    world.auth.grant(dba, world.payroll, "ellen", Privilege.NONE)


RESULT_STATES = {
    "open": lambda world: None,
    "dial_back": lambda world: world.session.time_dial.set(world.times[0]),
    "revoked": _revoke,
    "closed": lambda world: world.session.close(),
}


@pytest.mark.parametrize("state", RESULT_STATES)
@pytest.mark.parametrize("reader", READERS)
def test_a_result_held_as_a_column_reads_as_its_aliases_do(state, reader):
    def make_world():
        world = World(secret_member=True)
        dba = world.auth.authenticate("DataCurator", "swordfish")
        world.auth.grant(dba, world.payroll, "ellen", Privilege.READ)
        return world

    def call(world, _context, bulk):
        result = held_result(world, bulk)
        RESULT_STATES[state](world)
        value = READERS[reader](world, result)
        s = world.session
        return [
            value, result.version, s.new_alias() if not s.closed else None,
            elements_of(result),
        ]

    kind, *_ = both(make_world, lambda world: None, call)
    if state in ("open", "dial_back"):
        assert kind == "ok"
