"""The six workloads: data, op streams and the model replies are checked against.

Everything here is a pure function of ``--seed``: the server process
and the generator each derive the same data set, so the generator knows
the right answer to every request without asking the program.  The op
*mix* (how many of each kind) depends only on the op count; the seed
moves keys, literals and order.

Op counts are fixed, not time-boxed: a commit's cost grows with the
history already written (nothing is ever collected), so both sides of a
later comparison must do identical work.  ``nominal_rate`` sizes the
count from ``--seconds`` for the reference box; the deadline in
``driver.py`` only cuts a run short on a much slower host.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional


#: the initial DBA account every fresh database carries
USER, PASSWORD = "DataCurator", "swordfish"

EMPLOYEE_CLASS = "Object subclass: #Employee instVarNames: #(name salary)"


@dataclass(frozen=True)
class Op:
    """One client operation: OPAL blocks sent in order, then maybe COMMIT."""

    kind: str  # "read" | "range" | "scan" | "probe" | "write"
    sources: tuple[str, ...]
    #: the wire value each block must return
    expects: tuple
    commit: bool = False
    #: (read expression, value) pairs the COMMIT makes durable
    writes: tuple[tuple[str, Any], ...] = ()
    #: UTF-8 bytes of the keys and values this op writes
    user_bytes: int = 0


def _bytes(*parts: Any) -> int:
    return sum(len(str(part).encode("utf-8")) for part in parts)


def _rng(name: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{name}:{seed}:{stream}")


def _exact_mix(rng: random.Random, count: int, shares: dict[str, float]) -> list[str]:
    """*count* kinds in seeded order, with counts that ignore the seed."""
    kinds: list[str] = []
    names = list(shares)
    for name in names[:-1]:
        kinds.extend([name] * int(count * shares[name]))
    kinds.extend([names[-1]] * (count - len(kinds)))
    rng.shuffle(kinds)
    return kinds


# -- data sets ---------------------------------------------------------------


def binding_values(name: str, seed: int, count: int) -> list[int]:
    """Six-digit values for ``World!<prefix>0000..``: fixed width keeps
    the user-byte count identical across seeds."""
    rng = _rng(name, seed, "bindings")
    return [rng.randrange(100_000, 1_000_000) for _ in range(count)]


def employee_rows(name: str, seed: int, count: int) -> list[tuple[str, int]]:
    """(name, salary) rows; salaries stay five digits under +1 updates."""
    rng = _rng(name, seed, "employees")
    return [(f"emp{i:04d}", rng.randrange(10_000, 90_000)) for i in range(count)]


def load_bindings(session, prefix: str, values: list[int]) -> int:
    """Commit ``World!<prefix>NNNN := value`` for each value; user bytes."""
    user_bytes = 0
    for index, value in enumerate(values):
        key = f"{prefix}{index:04d}"
        session.execute(f"World!{key} := {value}")
        user_bytes += _bytes(key, value)
        if index % 100 == 99:
            session.commit()
    session.commit()
    return user_bytes


def load_employees(database, session, rows, world_keys: bool) -> int:
    """Commit Employee objects into ``World!employees``, indexed on salary.

    With *world_keys* each is also reachable as ``World!eNNNN``.
    """
    session.execute(EMPLOYEE_CLASS)
    employees = session.new("Bag")
    user_bytes = 0
    for index, (name, salary) in enumerate(rows):
        employee = session.new("Employee", name=name, salary=salary)
        session.session.bind(employees, session.session.new_alias(), employee)
        user_bytes += _bytes("name", name, "salary", salary)
        if world_keys:
            key = f"e{index:04d}"
            session.session.bind(session.world, key, employee)
            user_bytes += _bytes(key)
    session.assign("employees", employees)
    user_bytes += _bytes("employees")
    session.commit()
    database.create_directory(database.store.object(employees.oid), "salary")
    return user_bytes


# -- select shapes (shared by select_mix and mixed_open) ---------------------


class SalaryModel:
    """Answers select counts from the generated rows."""

    def __init__(self, rows: list[tuple[str, int]]) -> None:
        self.by_salary = sorted((salary, name) for name, salary in rows)
        self.salaries = [salary for salary, _ in self.by_salary]
        self.names = {name for name, _ in rows}

    def count_range(self, lo, hi, not_salaries, not_names) -> int:
        start = bisect.bisect_left(self.salaries, lo)
        stop = bisect.bisect_left(self.salaries, hi)
        return sum(
            1 for salary, name in self.by_salary[start:stop]
            if salary not in not_salaries and name not in not_names
        )

    def count_above(self, hi: int) -> int:
        return len(self.salaries) - bisect.bisect_right(self.salaries, hi)


def range_select(model: SalaryModel, rng: random.Random) -> Op:
    """Eight conjuncts on a two-sided salary range: one index probe on
    the lower bound, seven residual filters."""
    lo = rng.randrange(48_000, 52_000)
    hi = lo + 1_500
    salaries = [rng.randrange(lo, hi) for _ in range(4)]
    names = [f"emp{rng.randrange(4000):04d}" for _ in range(2)]
    conjuncts = [f"(e!salary >= {lo})", f"(e!salary < {hi})"]
    conjuncts += [f"(e!salary ~= {value})" for value in salaries]
    conjuncts += [f"(e!name ~= '{value}')" for value in names]
    source = f"(World!employees select: [:e | {' & '.join(conjuncts)}]) size"
    return Op("range", (source,), (model.count_range(lo, hi, salaries, names),))


def scan_select(model: SalaryModel, rng: random.Random) -> Op:
    """An unindexed name-equality disjunction: a batch scan of every row."""
    names = [f"emp{rng.randrange(4200):04d}" for _ in range(3)]
    disjuncts = " | ".join(f"(e!name = '{name}')" for name in names)
    source = f"(World!employees select: [:e | {disjuncts}]) size"
    return Op("scan", (source,), (len(model.names.intersection(names)),))


def probe_select(model: SalaryModel, rng: random.Random) -> Op:
    """A selective one-sided range: the index does all the work."""
    hi = rng.randrange(88_000, 89_500)
    source = f"(World!employees select: [:e | e!salary > {hi}]) size"
    return Op("probe", (source,), (model.count_above(hi),))


# -- the workloads -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: "frontdoor": a server process listening on TCP;
    #: "cluster": ``ProcCluster`` workers forked from the generator
    topology: str
    loop: str  # "closed" | "open"
    disk: str  # "sim" (SimulatedDisk, in memory) | "file" (FileDisk)
    #: ops per second of ``--seconds`` (sized on the 2-core reference box
    #: so the measured phase fills most of the run)
    nominal_rate: float
    #: load the store through *session*; returns the user bytes written
    load: Callable[..., int]
    #: (seed, count) -> list[Op]
    ops: Callable[[int, int], list[Op]]
    track_count: int = 8192
    track_size: int = 4096
    cache_capacity: Optional[int] = None
    #: open loop only: requests per second, connections, window
    rate: float = 0.0
    connections: int = 1
    window: int = 8
    #: passes an untraced run makes (``--seconds`` is shared between them)
    passes: int = 16

    def op_count(self, seconds: float, scale: float = 1.0) -> int:
        return max(20, int(self.nominal_rate * seconds * scale))


# read_hot -------------------------------------------------------------------

_READ_KEYS = 2000


def _read_hot_load(database, session, seed: int) -> int:
    return load_bindings(session, "k", binding_values("read_hot", seed, _READ_KEYS))


def _read_hot_ops(seed: int, count: int) -> list[Op]:
    values = binding_values("read_hot", seed, _READ_KEYS)
    rng = _rng("read_hot", seed, "ops")
    ops = []
    for _ in range(count):
        index = rng.randrange(_READ_KEYS)
        ops.append(Op("read", (f"World!k{index:04d}",), (values[index],)))
    return ops


# select_mix -----------------------------------------------------------------

_SELECT_ROWS = 4000


def _select_mix_load(database, session, seed: int) -> int:
    rows = employee_rows("select_mix", seed, _SELECT_ROWS)
    return load_employees(database, session, rows, world_keys=False)


def _select_mix_ops(seed: int, count: int) -> list[Op]:
    model = SalaryModel(employee_rows("select_mix", seed, _SELECT_ROWS))
    rng = _rng("select_mix", seed, "ops")
    # one fixed source text recurs in a fifth of all ops: work the
    # translation and plan memos could share
    fixed = range_select(model, _rng("select_mix", seed, "fixed"))
    kinds = _exact_mix(
        rng, count, {"fixed": 0.2, "range": 0.4, "scan": 0.2, "probe": 0.2}
    )
    build = {"range": range_select, "scan": scan_select, "probe": probe_select}
    return [fixed if kind == "fixed" else build[kind](model, rng) for kind in kinds]


# commit_wide ----------------------------------------------------------------

_WIDE_KEYS = 2000


def _commit_wide_load(database, session, seed: int) -> int:
    return load_bindings(session, "k", binding_values("commit_wide", seed, _WIDE_KEYS))


def _binding_write(rng: random.Random, key: str) -> tuple[str, int, int]:
    value = rng.randrange(100_000, 1_000_000)
    return f"World!{key} := {value}", value, _bytes(key, value)


def _commit_wide_ops(seed: int, count: int, keys: int = _WIDE_KEYS) -> list[Op]:
    """One-binding write+COMMIT ops over the first *keys* bindings (the
    commit-size side probe runs the same stream on a smaller World)."""
    rng = _rng("commit_wide", seed, "ops")
    ops = []
    for _ in range(count):
        key = f"k{rng.randrange(keys):04d}"
        source, value, size = _binding_write(rng, key)
        ops.append(Op("write", (source,), (value,), commit=True,
                      writes=((f"World!{key}", value),), user_bytes=size))
    return ops


# oltp_narrow_cold -----------------------------------------------------------

_OLTP_ROWS = 8000


def _oltp_load(database, session, seed: int) -> int:
    rows = employee_rows("oltp_narrow_cold", seed, _OLTP_ROWS)
    return load_employees(database, session, rows, world_keys=True)


def _oltp_ops(seed: int, count: int) -> list[Op]:
    salaries = [s for _, s in employee_rows("oltp_narrow_cold", seed, _OLTP_ROWS)]
    rng = _rng("oltp_narrow_cold", seed, "ops")
    ops = []
    for _ in range(count):
        index = rng.randrange(_OLTP_ROWS)
        salaries[index] += 1
        path = f"World!e{index:04d}!salary"
        ops.append(Op("write", (f"{path} := ({path}) + 1",), (salaries[index],),
                      commit=True, writes=((path, salaries[index]),),
                      user_bytes=_bytes("salary", salaries[index])))
    return ops


# cluster_2pc ----------------------------------------------------------------

_CLUSTER_KEYS = 800
CLUSTER_SHARDS = 2


def _cluster_load(database, session, seed: int) -> int:
    return load_bindings(
        session, "k", binding_values("cluster_2pc", seed, _CLUSTER_KEYS)
    )


def _cluster_ops(seed: int, count: int, shards: int = CLUSTER_SHARDS) -> list[Op]:
    """One write to each of the first *shards* shards, then COMMIT
    (``shards=1``: the single-shard fast path, for the side probe)."""
    from repro.shard.partition import shard_of

    keys = [f"k{i:04d}" for i in range(_CLUSTER_KEYS)]
    by_shard = [
        [key for key in keys if shard_of(key, CLUSTER_SHARDS) == shard]
        for shard in range(shards)
    ]
    rng = _rng("cluster_2pc", seed, "ops")
    ops = []
    for _ in range(count):
        sources, expects, writes, size = [], [], [], 0
        for shard_keys in by_shard:  # one write per shard: 2PC when > 1
            key = rng.choice(shard_keys)
            source, value, nbytes = _binding_write(rng, key)
            sources.append(source)
            expects.append(value)
            writes.append((f"World!{key}", value))
            size += nbytes
        ops.append(Op("write", tuple(sources), tuple(expects), commit=True,
                      writes=tuple(writes), user_bytes=size))
    return ops


# mixed_open -----------------------------------------------------------------

_MIXED_KEYS = 500
_MIXED_ROWS = 500
_MIXED_PRIVATE = 50  # write keys per connection, disjoint between the two


def _mixed_load(database, session, seed: int) -> int:
    size = load_bindings(session, "b", binding_values("mixed_open", seed, _MIXED_KEYS))
    for connection in range(2):
        values = binding_values(f"mixed_open.c{connection}", seed, _MIXED_PRIVATE)
        size += load_bindings(session, f"c{connection}w", values)
    rows = employee_rows("mixed_open", seed, _MIXED_ROWS)
    return size + load_employees(database, session, rows, world_keys=False)


def _mixed_ops(seed: int, count: int) -> list[Op]:
    """Ops for both connections; op *i* goes to connection ``i % 2``.

    The seed draws keys, values and literals.  Which arrival is a read,
    a select or a write — like the arrival times — is the same for every
    seed: with 20 samples beyond it, the 99th percentile is set by which
    commits happen to land close together, and that pattern is part of
    the workload, not of the inputs.
    """
    values = binding_values("mixed_open", seed, _MIXED_KEYS)
    model = SalaryModel(employee_rows("mixed_open", seed, _MIXED_ROWS))
    rng = _rng("mixed_open", seed, "ops")
    kinds = _exact_mix(_rng("mixed_open", 0, "kinds"), count,
                       {"read": 0.8, "probe": 0.1, "write": 0.1})
    ops = []
    for position, kind in enumerate(kinds):
        if kind == "read":
            index = rng.randrange(_MIXED_KEYS)
            ops.append(Op("read", (f"World!b{index:04d}",), (values[index],)))
        elif kind == "probe":
            ops.append(probe_select(model, rng))
        else:
            key = f"c{position % 2}w{rng.randrange(_MIXED_PRIVATE):04d}"
            source, value, size = _binding_write(rng, key)
            ops.append(Op("write", (source,), (value,), commit=True,
                          writes=((f"World!{key}", value),), user_bytes=size))
    return ops


def open_schedule(stream: str, count: int, rate: float) -> list[float]:
    """Poisson arrivals at *rate* per second: offsets from the start.

    The gaps are exponential, then stretched to span exactly
    ``count / rate`` seconds.  One fixed pattern per *stream* ("warm",
    "measured"), whatever the seed (see ``_mixed_ops``).
    """
    rng = _rng("mixed_open", 0, f"arrivals:{stream}")
    due, offsets = 0.0, []
    for _ in range(count):
        due += rng.expovariate(rate)
        offsets.append(due)
    stretch = (count / rate) / due
    return [offset * stretch for offset in offsets]


ALL = {
    workload.name: workload
    for workload in (
        Workload("read_hot", "frontdoor", "closed", "sim", 4600.0,
                 _read_hot_load, _read_hot_ops),
        Workload("select_mix", "frontdoor", "closed", "sim", 170.0,
                 _select_mix_load, _select_mix_ops),
        Workload("commit_wide", "frontdoor", "closed", "file", 160.0,
                 _commit_wide_load, _commit_wide_ops),
        Workload("oltp_narrow_cold", "frontdoor", "closed", "file", 450.0,
                 _oltp_load, _oltp_ops, track_count=16384, cache_capacity=2000,
                 passes=4),
        # 144: 18 s in 16 passes is 162 + 8 ops, the middle of a range of
        # counts (165-174) after which the platters reopen (README, finding e)
        Workload("cluster_2pc", "cluster", "closed", "file", 144.0,
                 _cluster_load, _cluster_ops),
        Workload("mixed_open", "frontdoor", "open", "file", 600.0,
                 _mixed_load, _mixed_ops, rate=600.0, connections=2, window=8),
    )
}

#: the side probes of the traced run (see ``layers.py``)
commit_probe_ops = _commit_wide_ops
one_shard_ops = _cluster_ops
