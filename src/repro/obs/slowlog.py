"""The slow-query log: the N slowest declarative selects, with plans.

Query-plan visibility is the lever every optimizer paper pulls (Odra's
join fusion in PAPERS.md starts from exactly this telemetry); GemStone's
declarative path had none.  For every ``select:``/``reject:`` that runs
declaratively, the evaluator reports:

* the **select-block source**, unparsed from the compiled block's AST;
* the **chosen plan** — the calculus→algebra operator chain, including
  any directory (index) the optimizer picked;
* the **candidate count** charged via ``QueryContext.charge`` — how many
  members the plan actually examined, which is the number that separates
  an index probe from a full scan;
* **cache provenance** — whether the block→calculus translation and the
  plan came from their memos or were built fresh;
* the elapsed wall time and the result size.

The log keeps only the ``capacity`` slowest entries (plus lifetime
totals), so it is safe to leave on in production: recording is a lock,
a comparison and — only for a query slow enough to be kept — one list
insert.  An entry is rendered when it is first read, once; one evicted
unread is never rendered.
"""

from __future__ import annotations

import threading
from bisect import insort
from typing import Any, Callable, Optional, Sequence

from ..opal import nodes
from ..opal.tokens import Slot
from ..stdm.calculus import showing


class SlowQueryLog:
    """A bounded keep-the-slowest log of declarative query executions."""

    def __init__(self, capacity: int = 32, threshold_ms: float = 0.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        #: queries faster than this are only counted, never kept
        self.threshold_ms = threshold_ms
        self._lock = threading.Lock()
        #: [elapsed_ms, sequence, the entry or the callable that renders it]
        self._entries: list[list[Any]] = []
        self._sequence = 0
        self.total_queries = 0

    def record(self, entry: dict[str, Any]) -> None:
        """Consider one finished query for the log.

        *entry* must carry ``elapsed_ms``; everything else (source, plan,
        candidates, provenance) is kept verbatim.
        """
        self.offer(float(entry.get("elapsed_ms", 0.0)), lambda: entry)

    def offer(
        self, elapsed_ms: float, render: Callable[[], dict[str, Any]]
    ) -> None:
        """Count one finished query; keep *render* if it earns a place.

        *render* (unparse the block, describe the plan) runs only when
        :meth:`slowest` first reads the entry, so it must capture by
        value whatever could change before then.
        """
        with self._lock:
            self.total_queries += 1
            if elapsed_ms < self.threshold_ms:
                return
            if (
                len(self._entries) >= self.capacity
                and elapsed_ms <= self._entries[0][0]
            ):
                return  # faster than everything we already keep
            self._sequence += 1
            insort(self._entries, [elapsed_ms, self._sequence, render])
            if len(self._entries) > self.capacity:
                del self._entries[0]

    def slowest(self, n: Optional[int] = None) -> list[dict[str, Any]]:
        """The slowest queries, slowest first, each rendered once."""
        with self._lock:
            picked = self._entries[::-1][:n]
            for kept in picked:
                if callable(kept[2]):
                    kept[2] = kept[2]()
            return [entry for _, _, entry in picked]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.total_queries = 0


# --------------------------------------------------------------------------
# AST → source (compiled blocks keep their AST, not their source text)
# --------------------------------------------------------------------------

def render_block(block: Any, params: Sequence[Any] = ()) -> str:
    """Reconstruct OPAL source for a compiled select block's AST.

    *params* is the literal vector of the execution being rendered: a
    cached block's AST holds a :class:`Slot` where a literal was lifted
    out of the text, the same AST for every text of its shape.
    """
    if not isinstance(block, nodes.BlockNode):
        return repr(block)
    header = "".join(f":{p} " for p in block.params)
    temps = "| " + " ".join(block.temps) + " | " if block.temps else ""
    body = ". ".join(_render(statement, params) for statement in block.body)
    separator = "| " if block.params else ""
    return f"[{header}{separator}{temps}{body}]"


def _render(node: Any, params: Sequence[Any]) -> str:
    if isinstance(node, nodes.Literal):
        value = node.value
        if type(value) is Slot:
            if value.index >= len(params):
                return value.name  # rendered without its execution
            value = params[value.index]
        return _render_literal(value)
    if isinstance(node, nodes.VarRef):
        return node.name
    if isinstance(node, (nodes.PathFetch, nodes.PathAssign)):
        path = _render(node.base, params) + "".join(
            _render_step(step, params) for step in node.steps
        )
        if isinstance(node, nodes.PathFetch):
            return path
        return f"{path} := {_render(node.value, params)}"
    if isinstance(node, nodes.Assign):
        return f"{node.name} := {_render(node.value, params)}"
    if isinstance(node, nodes.MessageSend):
        return _render_send(node, params)
    if isinstance(node, nodes.BlockNode):
        return render_block(node, params)
    if isinstance(node, nodes.Return):
        return f"^{_render(node.value, params)}"
    return repr(node)


def _render_literal(value: Any) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if value is None:
        return "nil"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, tuple):
        return "#(" + " ".join(_render_literal(v) for v in value) + ")"
    return str(value)


def _render_step(step: Any, params: Sequence[Any]) -> str:
    name = step.name if isinstance(step.name, str) else repr(step.name)
    text = f"!{name}"
    if step.time is not None:
        text += f"@{_render(step.time, params)}"
    return text


def _render_send(node: Any, params: Sequence[Any]) -> str:
    receiver = _render(node.receiver, params)
    if isinstance(node.receiver, (nodes.MessageSend, nodes.Assign)):
        receiver = f"({receiver})"
    if not node.args:
        return f"{receiver} {node.selector}"
    if ":" not in node.selector:  # binary
        argument = _render_arg(node.args[0], params)
        return f"{receiver} {node.selector} {argument}"
    parts = node.selector.split(":")[:-1]
    keywords = " ".join(
        f"{keyword}: {_render_arg(arg, params)}"
        for keyword, arg in zip(parts, node.args)
    )
    return f"{receiver} {keywords}"


def _render_arg(node: Any, params: Sequence[Any]) -> str:
    text = _render(node, params)
    # binary messages are left-associative: a send in argument position
    # must keep its parentheses to re-parse with the same structure
    if isinstance(node, (nodes.MessageSend, nodes.Assign)):
        return f"({text})"
    return text


def describe_plan(plan: Any, params: Sequence[Any] = ()) -> list[str]:
    """The operator chain of an algebra plan, outermost first, each
    lifted literal printed as its value in *params*."""
    described: list[str] = []
    node = plan
    with showing(params):
        while node is not None:
            describe = getattr(node, "describe", None)
            described.append(describe() if callable(describe) else repr(node))
            node = getattr(node, "child", None)
    return described
