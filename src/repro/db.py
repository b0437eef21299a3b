"""The GemStone database facade: everything assembled.

``GemStone.create()`` formats a simulated disk (optionally replicated),
installs the kernel, the world root, users and segments; ``login`` opens
a session with its own OPAL Compiler + Interpreter; commits run the full
pipeline (validate → Linker → Directory Manager → Boxer → Commit
Manager's safe writes); ``GemStone.open`` recovers a database from disk,
restores directories and recompiles stored OPAL methods.

This is the public entry point a downstream user adopts::

    from repro import GemStone

    db = GemStone.create()
    session = db.login()
    session.execute("World!greeting := 'hello'")
    session.commit()
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .concurrency.authorization import Authorizer, Privilege, User
from .concurrency.sessions import SessionObjectManager
from .concurrency.transactions import TransactionManager
from .core.objects import GemObject
from .core.paths import assign as path_assign
from .core.paths import resolve as path_resolve
from .directories.manager import DirectoryManager
from .errors import AuthorizationError
from .govern.budget import BudgetSpec, QueryBudget
from .govern.quota import QuotaSpec, SessionQuota
from .obs import Observability
from .perf import reset_stats as perf_reset_stats
from .opal.interpreter import OpalEngine
from .opal.kernel import print_string
from .storage.archive import ArchiveMedia
from .storage.disk import DiskGeometry, SimulatedDisk
from .storage.linker import Write
from .storage.replication import ReplicatedDisk
from .storage.stable import StableStore

#: catalog keys for system metadata
_WORLD_KEY = "world"
_SYSTEM_KEY = "system"


class GemSession:
    """A logged-in session: private workspace + its own OPAL engine."""

    def __init__(self, database: "GemStone", user: Optional[User]) -> None:
        self.database = database
        self.budget = (
            QueryBudget(database.budget_spec)
            if database.budget_spec is not None
            else None
        )
        self.quota = (
            SessionQuota(database.quota_spec)
            if database.quota_spec is not None
            else None
        )
        self.session = SessionObjectManager(
            database.store,
            database.transaction_manager,
            user=user,
            authorizer=database.authorizer if user is not None else None,
            quota=self.quota,
        )
        self.engine = OpalEngine(
            self.session,
            directory_manager=database.directory_manager,
            budget=self.budget,
        )
        self.engine.system.database = database  # enable DBA system messages
        self.engine.obs = database.obs
        database.obs.register_session(self)

    # -- language interface ---------------------------------------------------

    def execute(self, source: str, bindings: Optional[dict[str, Any]] = None) -> Any:
        """Compile and run a block of OPAL source in this session."""
        return self.engine.execute(source, bindings)

    def display(self, value: Any) -> str:
        """The OPAL printString of any value."""
        return print_string(self.session, value)

    # -- transactions -------------------------------------------------------------

    def commit(self) -> int:
        """Commit; returns the transaction time (raises on conflict)."""
        return self.session.commit()

    def abort(self) -> None:
        """Discard the workspace; begin a fresh transaction."""
        self.session.abort()

    def close(self) -> None:
        """End the session; the workspace is discarded wholesale."""
        self.database.obs.retire_session(self)
        self.session.close()

    def __enter__(self) -> "GemSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- python-level data interface --------------------------------------------------

    @property
    def world(self) -> GemObject:
        """The persistent root object."""
        return self.engine.world

    @property
    def time_dial(self):
        """This session's time dial."""
        return self.session.time_dial

    def new(self, class_name: str = "Object", **elements: Any) -> GemObject:
        """Create an object (committed with the transaction)."""
        return self.session.instantiate(class_name, **elements)

    def define_class(self, name, superclass="Object", instvars=()):
        """Define a class within this transaction."""
        return self.session.define_class(name, superclass, instvars)

    def resolve(self, path: str, root: Optional[GemObject] = None,
                default: Any = None) -> Any:
        """Evaluate a path expression from the world (or *root*)."""
        return path_resolve(
            self.session, root if root is not None else self.world,
            path, dial=self.session.time_dial, default=default,
        )

    def assign(self, path: str, value: Any,
               root: Optional[GemObject] = None) -> None:
        """Assign through a path expression from the world (or *root*)."""
        path_assign(
            self.session, root if root is not None else self.world,
            path, value, dial=self.session.time_dial,
        )

    def safe_time(self) -> int:
        """SafeTime: the latest state immune to running transactions."""
        return self.session.safe_time()

    def perf_stats(self) -> dict[str, Any]:
        """Unified cache/health report for this session's hot paths."""
        from .perf import stats

        return stats(self)


class GemStone:
    """One database: disk(s), stable store, managers, sessions."""

    def __init__(
        self,
        store: StableStore,
        budget_spec: Optional[BudgetSpec] = None,
        quota_spec: Optional[QuotaSpec] = None,
        tracing: bool = False,
    ) -> None:
        self.store = store
        #: governance applied to every session opened by :meth:`login`;
        #: ``None`` leaves that axis unlimited (embedded/trusted use)
        self.budget_spec = budget_spec
        self.quota_spec = quota_spec
        #: the instance-scoped observability hub (metrics, spans, slow
        #: queries); see docs/observability.md
        self.obs = Observability(tracing=tracing)
        self.transaction_manager = TransactionManager(store)
        self.transaction_manager.obs = self.obs
        self.store.obs = self.obs
        self.directory_manager = DirectoryManager(store)
        self.transaction_manager.add_commit_listener(
            self.directory_manager.on_commit
        )
        self.authorizer = Authorizer()
        #: a database-level engine over the stable store (DBA tooling,
        #: method recompilation at open)
        self.dba_engine = OpalEngine(
            self.store, directory_manager=self.directory_manager
        )
        self.dba_engine.obs = self.obs
        #: the continuous-replication shipper (see :meth:`enable_replication`)
        self.log_shipper = None
        #: the replica's log store, when replication is enabled in-process
        self.replica_log = None
        # the process-global perf counters leaked across instances; a
        # fresh database starts its report from zero
        perf_reset_stats()

    # ------------------------------------------------------------------
    # creation and recovery
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        track_count: int = 4096,
        track_size: int = 4096,
        replicas: int = 1,
        cache_capacity: Optional[int] = None,
        disk=None,
        tracing: bool = False,
    ) -> "GemStone":
        """Format a fresh database on a new (or given) simulated disk."""
        if disk is None:
            geometry = DiskGeometry(track_count=track_count, track_size=track_size)
            if replicas > 1:
                disk = ReplicatedDisk(
                    [SimulatedDisk(geometry) for _ in range(replicas)]
                )
            else:
                disk = SimulatedDisk(geometry)
        def prepare(store: StableStore) -> None:
            # the world root and system dictionary share transaction
            # time 1 with the kernel classes: user commits start at 2
            world = store.instantiate("Object")
            system = store.instantiate("Object")
            store.catalog[_WORLD_KEY] = world.oid
            store.catalog[_SYSTEM_KEY] = system.oid
            store.bind(system, "security", "{}")
            store.bind(system, "directories", "[]")

        store = StableStore.format(disk, cache_capacity, prepare=prepare)
        return cls(store, tracing=tracing)

    @classmethod
    def open(
        cls, disk, cache_capacity: Optional[int] = None, tracing: bool = False
    ) -> "GemStone":
        """Recover a database from disk: roots, directories, methods."""
        store = StableStore.open(disk, cache_capacity)
        database = cls(store, tracing=tracing)
        database.transaction_manager.clock.advance_to(store.last_tx_time)
        database._recompile_stored_methods()
        database._load_system_state()
        return database

    @property
    def disk(self):
        """The underlying simulated disk (or replicated volume)."""
        return self.store.disk

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------

    def login(self, user: str | None = None, password: str | None = None) -> GemSession:
        """Open a session.

        With credentials, the user is authenticated and authorization is
        enforced; without, the session runs in embedded (trusted) mode.
        """
        account = None
        if user is not None:
            account = self.authorizer.authenticate(user, password or "")
        return GemSession(self, account)

    # ------------------------------------------------------------------
    # DBA operations
    # ------------------------------------------------------------------

    def _dba(self, name: str, password: str) -> User:
        account = self.authorizer.authenticate(name, password)
        if not account.is_dba:
            raise AuthorizationError(f"{name} is not a DBA")
        return account

    def create_user(self, dba: tuple[str, str], name: str, password: str,
                    is_dba: bool = False) -> User:
        """DBA: register a user; durable immediately."""
        actor = self._dba(*dba)
        user = self.authorizer.create_user(actor, name, password, is_dba)
        self._persist_system_state()
        return user

    def create_segment(self, dba: tuple[str, str], name: str,
                       default_privilege: Privilege = Privilege.NONE):
        """DBA: create an authorization segment; durable immediately."""
        actor = self._dba(*dba)
        segment = self.authorizer.create_segment(actor, name, default_privilege)
        self._persist_system_state()
        return segment

    def grant(self, dba: tuple[str, str], segment_id: int, user: str,
              privilege: Privilege) -> None:
        """DBA: grant a privilege; durable immediately."""
        actor = self._dba(*dba)
        self.authorizer.grant(actor, segment_id, user, privilege)
        self._persist_system_state()

    def create_directory(self, owner, path: str, name: str = ""):
        """Create (and persist the definition of) a directory."""
        directory = self.directory_manager.create_directory(owner, path, name)
        self._persist_system_state()
        return directory

    def archive_object(self, oid: int, media: ArchiveMedia) -> int:
        """DBA: move an object's record to archival media."""
        key = self.store.archive_object(oid, media)
        self.transaction_manager.publish()
        return key

    def archive_history(self, media: ArchiveMedia) -> list[int]:
        """DBA: move every *historical-only* object to archival media.

        An object is historical-only when no current element of any
        on-disk object (starting from the catalog roots) references it —
        it exists solely in past states.  Section 6: "A database
        administrator can explicitly move objects to other media ...
        while conceptually the entire history of the database exists,
        some objects in it may become temporarily or permanently
        inaccessible."  Mount the volume to read them again.

        Returns the archived oids.
        """
        with self.store.lock:  # no commit may make one reachable meanwhile
            reachable: set[int] = set()
            stack = [oid for oid in self.store.catalog.values()]
            stack.extend(self.store.classes.values())
            while stack:
                oid = stack.pop()
                if oid in reachable:
                    continue
                location = self.store.table.get(oid)
                if location is None or location.archived:
                    continue
                reachable.add(oid)
                stack.extend(self.store.object(oid).referenced_oids())
            archived = []
            for oid in sorted(set(self.store.table.oids()) - reachable):
                if not self.store.table.get(oid).archived:
                    self.store.archive_object(oid, media)
                    archived.append(oid)
            if archived:
                self.transaction_manager.publish()
            return archived

    def compact(self) -> int:
        """DBA: re-box every object into fresh clustered tracks.

        Reclaims tracks fragmented by shadow-paging churn and restores
        parent-first clustering from the world root outward.  Returns
        the number of tracks reclaimed.
        """
        world_first = [
            self.store.catalog[_WORLD_KEY],
            self.store.catalog[_SYSTEM_KEY],
        ] + sorted(self.store.classes.values())
        return self.store.compact(world_first)

    # ------------------------------------------------------------------
    # disaster recovery (repro.dr)
    # ------------------------------------------------------------------

    def enable_replication(
        self,
        plan=None,
        sync: bool = True,
        link_wrapper=None,
        replica_store=None,
        clock=None,
        frame_deadline=None,
    ):
        """Start continuous log shipping to an in-process replica.

        Builds the link pair, a :class:`~repro.dr.store.ReplicaLogStore`
        (or adopts *replica_store*), the receiver pump and the
        :class:`~repro.dr.ship.LogShipper`; ships a bootstrap snapshot
        of the current platter; then hooks
        :attr:`CommitManager.log_sink` so every later commit streams a
        delta record before it is acknowledged (*sync*; ``sync=False``
        buffers for :meth:`~repro.dr.ship.LogShipper.catch_up`).  *plan*
        wraps the primary's link end in
        :class:`~repro.faults.link.FaultyLink`; *link_wrapper* stacks an
        arbitrary wrapper over it (the soak's kill switch).  Returns the
        shipper; the surviving store is :attr:`replica_log`.
        """
        from .dr.ship import LogReceiver, LogShipper
        from .dr.store import ReplicaLogStore
        from .executor.link import make_link

        primary_end, replica_end = make_link()
        link = primary_end
        if plan is not None:
            from .faults.link import FaultyLink

            link = FaultyLink(link, plan)
        if link_wrapper is not None:
            link = link_wrapper(link)
        store = replica_store if replica_store is not None else ReplicaLogStore()
        receiver = LogReceiver(store)
        shipper = LogShipper(
            link,
            pump=lambda: receiver.serve(replica_end),
            sync=sync,
            clock=clock,
            frame_deadline=frame_deadline,
        )
        shipper.bootstrap(self.disk, self.store.commit_manager.current_epoch)
        self.store.commit_manager.log_sink = shipper.on_commit
        self.log_shipper = shipper
        self.replica_log = store
        return shipper

    def checkpoint_replication(self) -> int:
        """Ship a fresh snapshot segment (lets old segments archive)."""
        if self.log_shipper is None:
            return 0
        return self.log_shipper.checkpoint(
            self.disk, self.store.commit_manager.current_epoch
        )

    def replication_report(self) -> dict[str, Any]:
        """Shipping and replica-log counters (empty when not enabled)."""
        report: dict[str, Any] = {"enabled": self.log_shipper is not None}
        if self.log_shipper is not None:
            report.update(self.log_shipper.report())
        if self.replica_log is not None:
            report["replica"] = self.replica_log.report()
        return report

    def storage_report(self) -> dict[str, Any]:
        """Storage occupancy and transaction statistics."""
        report = self.store.storage_report()
        report["transactions"] = self.transaction_manager.stats
        return report

    def perf_stats(self) -> dict[str, Any]:
        """Unified cache/health report across the whole database."""
        from .perf import stats

        return stats(self)

    def observability(self, slow: int = 10, spans: int = 20) -> dict[str, Any]:
        """The full observability snapshot, as one JSON-ready dict.

        Sections: ``transactions`` (commit/abort/retry counts),
        ``caches`` (hit rates, store- and session-level), ``storage``
        (occupancy + disk health), ``governance`` (admission, budgets,
        quotas, SafeTime clamps), ``counters`` (the metrics registry),
        ``slow_queries`` (the *slow* slowest, with captured plans) and
        ``tracing`` (the *spans* most recent spans).  The shape is
        pinned by ``docs/observability_schema.json``; see
        ``docs/observability.md`` for the catalogue.
        """
        return self.obs.snapshot(self, slow=slow, spans=spans)

    # ------------------------------------------------------------------
    # system metadata persistence
    # ------------------------------------------------------------------

    def _system_object(self) -> GemObject:
        return self.store.object(self.store.catalog[_SYSTEM_KEY])

    def _persist_system_state(self) -> None:
        system = self.store.catalog[_SYSTEM_KEY]
        with self.store.lock:  # export what every earlier DBA call left
            self.transaction_manager.publish([
                Write(system, "security", json.dumps(self.authorizer.export_state())),
                Write(
                    system,
                    "directories",
                    json.dumps(self.directory_manager.export_definitions()),
                ),
            ])

    def _load_system_state(self) -> None:
        system = self._system_object()
        security = system.value_at("security")
        if isinstance(security, str):
            state = json.loads(security)
            if "users" in state:  # "{}" is the fresh-database placeholder
                self.authorizer.import_state(state)
        definitions = system.value_at("directories")
        if isinstance(definitions, str):
            self.directory_manager.import_definitions(
                tuple(d) for d in json.loads(definitions)
            )

    def _recompile_stored_methods(self) -> None:
        """Recompile OPAL method sources decoded from class records."""
        for name in list(self.store.classes):
            cls = self.store.class_named(name)  # forces the load
            sources = self.store.pending_method_sources.pop(cls.oid, ())
            for side, _selector, source in sources:
                if side == "class":
                    self.dba_engine.compile_class_method_into(cls, source)
                else:
                    self.dba_engine.compile_method_into(cls, source)
