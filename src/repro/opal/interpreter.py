"""The OPAL Interpreter: an abstract stack machine over the Object Manager.

Section 6: the Executor "maintains a Compiler and Interpreter for each
active user.  The Interpreter is an abstract stack machine that executes
compiledMethods consisting of sequences of bytecodes ... and makes calls
to the Object Manager."

:class:`OpalEngine` binds one store (a session or a standalone memory
manager) to the language: it owns the globals (``System``, ``World``,
class names), creates closures, runs frames, and dispatches sends
through the store's method lookup — so OPAL methods and Python
primitives intermix freely on the same classes.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from ..core.history import MISSING
from ..core.objects import ColumnObject, GemObject
from ..core.values import Char, Ref, Symbol
from ..errors import (
    CompileError,
    DoesNotUnderstand,
    OpalRuntimeError,
    ParseError,
    TransactionConflict,
)
from ..perf.epochs import class_epoch
from .bytecodes import CompiledBlock, CompiledMethod, Op
from .compiler import Compiler
from .declarative import COMPILE_CACHE_MAX
from .lexer import _STRING, Lexer
from .tokens import Slot, TokenType

#: immediate receiver types whose Python type identifies their Gem class
#: exactly — safe as a monomorphic inline-cache key.  ``type()`` keeps
#: bool/int and Symbol/str apart where isinstance would not.
_INLINE_CACHEABLE = frozenset(
    (int, float, str, bool, Symbol, Char, type(None))
)

#: what a skeleton cuts, one group per class: a string, a whole digit run
#: not after ``!`` and, with no block, the name after ``!``; per group,
#: the lifted token it must be and its reader
_CUT = rf"({_STRING})|(?<![\w!])([0-9]+)(?!\w)|"
_SPLIT = {True: re.compile(rf"(?=['0-9]|(?<=!))(?:{_CUT}(?<=!)([A-Za-z_]\w*))").split,
          False: re.compile(rf"(?=['0-9])(?:{_CUT}(?!)())").split}
_CUT_AS = {1: (TokenType.STRING, lambda text: text[1:-1].replace("''", "'")),
           2: (TokenType.INTEGER, int), 3: (TokenType.IDENTIFIER, str)}
_SCAN_ONLY = '"#$@'  # comments, symbols and arrays, characters, time pins


def skeleton(source: str, names: tuple[str, ...] = ()) -> tuple[Optional[list], Any]:
    """*source* split at its cuts, and its key: what is left, each cut's
    class and *names* — or (None, None) where only a scan reads it."""
    if not source.isascii() or any(map(source.__contains__, _SCAN_ONLY)):
        return None, None
    parts = _SPLIT["[" not in source](source)
    return parts, (tuple(parts[0::4]), tuple(map(type, parts[1::4])),
                   tuple(map(type, parts[2::4])), names)


def _refill(lexed: Lexer, parts: list) -> Optional[tuple]:
    """Per literal of *lexed*, (place in *parts*, reader) — a constant if
    the skeleton kept it — or None unless each cut is one lifted token
    (same start, type and value), so all texts of the key scan alike."""
    lifted = lexed.lifted
    slots = {start: slot for slot, (_, _, start) in enumerate(lifted)}
    fill = [(0, lambda _, value=value: value) for _, value, _ in lifted]
    offset = 0
    for place, part in enumerate(parts):
        if place % 4 and part is not None:
            type_, read = _CUT_AS[place % 4]
            slot = slots.get(offset)
            if slot is None or lifted[slot][:2] != (type_, read(part)):
                return None
            fill[slot] = (place, read)
        offset += len(part or "")
    return tuple(fill)


class _NonLocalReturn(Exception):
    """Unwinds block frames to the home method's frame (``^`` in a block)."""

    def __init__(self, home: "Frame", value: Any) -> None:
        super().__init__("non-local return escaped its home context")
        self.home = home
        self.value = value


class Frame:
    """One activation: a method's or block's slots, stack and pc."""

    __slots__ = (
        "code", "literals", "slots", "slot_names", "stack", "pc",
        "receiver", "lexical_parent", "home", "is_block", "method", "ics",
    )

    def __init__(
        self,
        code,
        literals,
        slot_names: tuple[str, ...],
        receiver: Any,
        lexical_parent: Optional["Frame"],
        home: Optional["Frame"],
        is_block: bool,
    ) -> None:
        self.code = code
        self.literals = literals
        self.slot_names = slot_names
        self.slots: list[Any] = [None] * len(slot_names)
        self.stack: list[Any] = []
        self.pc = 0
        self.receiver = receiver
        self.lexical_parent = lexical_parent
        self.home = home if home is not None else self
        self.is_block = is_block
        #: the CompiledMethod this frame (or its home) is executing
        self.method: Optional[CompiledMethod] = None
        #: per-call-site inline caches, shared by every activation of the
        #: same compiled code (lives on the compiled object)
        self.ics: Optional[list] = None

    def up(self, level: int) -> "Frame":
        """The frame *level* lexical scopes out."""
        frame: Frame = self
        for _ in range(level):
            if frame.lexical_parent is None:
                raise OpalRuntimeError("lexical scope chain broken")
            frame = frame.lexical_parent
        return frame


class BlockClosure:
    """A block with its defining context captured (OPAL's BlockContext)."""

    __slots__ = ("engine", "compiled", "home_frame", "receiver")

    def __init__(self, engine: "OpalEngine", compiled: CompiledBlock,
                 home_frame: Frame, receiver: Any) -> None:
        self.engine = engine
        self.compiled = compiled
        self.home_frame = home_frame
        self.receiver = receiver

    @property
    def num_args(self) -> int:
        """Number of block parameters."""
        return len(self.compiled.params)

    @property
    def literals(self) -> list[Any]:
        """The literals lifted out of the text that made this closure:
        the first slots of its doit's frame (see ``tokens.Slot``)."""
        return self.home_frame.home.slots

    def call(self, *args: Any) -> Any:
        """Evaluate the block with *args*."""
        return self.engine.call_block(self, args)

    def __repr__(self) -> str:
        return f"<BlockClosure/{self.num_args}>"


class SystemObject:
    """The ``System`` global: transaction control and database commands.

    Section 6: "we have added classes and primitive methods to OPAL to
    provide transaction control, storage hints and requests for
    replication of data" — those system commands dispatch here, outside
    the class hierarchy, because System belongs to the engine, not to
    any one store state.
    """

    def __init__(self, engine: "OpalEngine") -> None:
        self.engine = engine
        #: the GemStone database facade, set when a GemSession owns the
        #: engine; enables DBA commands from OPAL
        self.database = None

    def __repr__(self) -> str:
        return "<System>"

    def send(self, selector: str, args: tuple) -> Any:
        store = self.engine.store
        if selector == "commitTransaction":
            if hasattr(store, "commit"):
                try:
                    store.commit()
                    return True
                except TransactionConflict:
                    return False
            if hasattr(store, "tick"):
                store.tick()
                return True
            return False
        if selector == "abortTransaction":
            if hasattr(store, "abort"):
                store.abort()
            return True
        if selector == "time":
            return store.current_time()
        if selector == "safeTime":
            if hasattr(store, "safe_time"):
                return store.safe_time()
            return store.current_time()
        if selector == "timeDial":
            dial = getattr(store, "time_dial", None)
            return dial.time if dial is not None else None
        if selector == "timeDial:":
            dial = getattr(store, "time_dial", None)
            if dial is None:
                raise OpalRuntimeError("this store has no time dial")
            dial.set(args[0])
            return args[0]
        if selector == "dialSafeTime":
            dial = getattr(store, "time_dial", None)
            if dial is None:
                raise OpalRuntimeError("this store has no time dial")
            return dial.set_safe()
        if selector == "index:on:":
            dm = self.engine.directory_manager
            if dm is None:
                raise OpalRuntimeError("no Directory Manager attached")
            owner = args[0]
            hint = f"{owner.oid} on {args[1]}"  # the translated hint
            return dm.apply_hint(hint)
        if selector == "objectCount":
            if hasattr(store, "object_count"):
                return store.object_count()
            if hasattr(store, "table"):
                return len(store.table)
            if hasattr(store, "store") and hasattr(store.store, "table"):
                return len(store.store.table)
            return 0
        if selector == "user":
            user = getattr(store, "user", None)
            return user.name if user is not None else None
        if selector == "replicas":
            # the paper lists "requests for replication of data" among
            # the OPAL system additions; replication here is volume-wide
            if self.database is None:
                return 1
            return len(getattr(self.database.disk, "replicas", (None,)))
        if selector in self._DBA_SELECTORS:
            return self._dba_command(selector, args)
        raise DoesNotUnderstand("System", selector)

    _DBA_SELECTORS = frozenset(
        {
            "createUser:password:",
            "createSegment:",
            "grantOn:to:privilege:",
            "compact",
            "storageReport",
        }
    )

    def _dba_command(self, selector: str, args: tuple) -> Any:
        """DBA operations as system messages (sections 4.3, 6).

        These require a full database behind the session (not a bare
        memory store) and an authenticated DBA user.
        """
        database = self.database
        if database is None:
            raise OpalRuntimeError("no database attached to this session")
        store = self.engine.store
        user = getattr(store, "user", None)
        if selector == "storageReport":
            report = database.storage_report()
            return tuple(sorted(
                (key, value) for key, value in report.items()
                if isinstance(value, (int, float, str))
            ))
        if selector == "compact":
            self._require_dba(user)
            return database.compact()
        self._require_dba(user)
        if selector == "createUser:password:":
            made = database.authorizer.create_user(user, str(args[0]), str(args[1]))
            database._persist_system_state()
            return made.name
        if selector == "createSegment:":
            segment = database.authorizer.create_segment(user, str(args[0]))
            database._persist_system_state()
            return segment.segment_id
        if selector == "grantOn:to:privilege:":
            from ..concurrency.authorization import Privilege

            privilege = Privilege[str(args[2]).upper()]
            database.authorizer.grant(user, args[0], str(args[1]), privilege)
            database._persist_system_state()
            return True
        raise DoesNotUnderstand("System", selector)

    @staticmethod
    def _require_dba(user) -> None:
        if user is None or not user.is_dba:
            raise OpalRuntimeError("DBA privileges required")


class OpalEngine:
    """The language runtime bound to one store."""

    def __init__(self, store, directory_manager=None,
                 globals_: Optional[dict[str, Any]] = None,
                 budget=None) -> None:
        self.store = store
        self.directory_manager = directory_manager
        self.globals: dict[str, Any] = dict(globals_ or {})
        self.system = SystemObject(self)
        self._world: Optional[GemObject] = None
        #: optional :class:`~repro.govern.budget.QueryBudget`: fuel the
        #: dispatch loop, sends and allocations spend, reset per execute
        self.budget = budget
        #: optional :class:`~repro.obs.Observability` (wired by GemStone):
        #: spans for execute, slow-query log for the declarative path
        self.obs = None
        store.opal_runtime = self
        from .kernel import install_kernel

        install_kernel(store)

    # -- globals ---------------------------------------------------------------

    @property
    def world(self) -> GemObject:
        """The persistent root object (``World`` in OPAL source)."""
        if self._world is None:
            catalog = getattr(self.store, "catalog", None)
            store_catalog = catalog if catalog is not None else getattr(
                getattr(self.store, "store", None), "catalog", None
            )
            if store_catalog is not None and "world" in store_catalog:
                self._world = self.store.object(store_catalog["world"])
            else:
                self._world = self.store.instantiate("Object")
                if store_catalog is not None:
                    store_catalog["world"] = self._world.oid
        return self._world

    def global_lookup(self, name: str) -> Any:
        if name == "System":
            return self.system
        if name == "World":
            return self.world
        if name in self.globals:
            return self.globals[name]
        if self.store.has_class(name):
            return self.store.class_named(name)
        raise OpalRuntimeError(f"undefined global {name!r}")

    # -- compilation -------------------------------------------------------------

    def compiler_for(self, gem_class=None) -> Compiler:
        instvars = (
            gem_class.all_instvar_names(self.store) if gem_class is not None else ()
        )
        return Compiler(instvars)

    def compile_method_into(self, gem_class, source: str) -> CompiledMethod:
        """Compile *source* and install it as an instance method."""
        method = self.compiler_for(gem_class).compile_method_source(
            source, gem_class.name
        )
        gem_class.define_method(method)
        return method

    def compile_class_method_into(self, gem_class, source: str) -> CompiledMethod:
        """Compile *source* and install it as a class-side method."""
        method = self.compiler_for(gem_class).compile_method_source(
            source, gem_class.name
        )
        gem_class.define_class_method(method)
        return method

    # -- execution ------------------------------------------------------------------

    def execute(self, source: str, bindings: Optional[dict[str, Any]] = None) -> Any:
        """Compile and run a block of OPAL source; return its value.

        This is the paper's unit of host communication: "communication
        with GemStone is done in blocks of OPAL source code" (section 6).
        ``bindings`` pre-fill workspace variables by name.
        """
        bindings = bindings or {}
        if self.budget is not None:
            self.budget.start_query()  # fresh fuel for each block
        obs = self.obs
        if obs is not None and obs.tracer.enabled:
            # guarded: with tracing off this branch costs one attribute
            # load and no span allocation
            with obs.tracer.span("opal.execute", chars=len(source)):
                return self._execute(source, bindings)
        return self._execute(source, bindings)

    def _compiled(
        self, source: str, names: tuple[str, ...]
    ) -> tuple[CompiledMethod, list[Any]]:
        """An ad-hoc block compiled once per *shape*, and its literals.

        A :func:`skeleton` hit reads the literals out of the cut parts.
        Otherwise the text is scanned once; the scan's shape — the
        tokens, without the literals no stage before ``execute`` reads
        (see :mod:`.lexer`) — and the binding names are the key, and the
        skeleton is memoized as :func:`_refill` admits it.  A miss
        compiles the tokens with a :class:`Slot` in each lifted place,
        so the method reads those from its frame's first slots; a hit
        hands back the same :class:`CompiledMethod`, and with it its
        inline caches, translation and plan memos — each already keyed
        on (store token, class epoch, directory epoch), so reuse needs
        no invalidation of its own.  A compile error propagates before
        anything is stored.
        """
        perf = getattr(self.store, "perf", None)
        if perf is None or not perf.enabled:
            return Compiler().compile_source(source, names), []
        entries, skeletons = perf.compile_entries, perf.compile_skeletons
        parts, cut = skeleton(source, names)
        if parts is not None:
            key, fill = skeletons.get(cut) or (None, ())
            method = entries.get(key)
            if method is not None:
                perf.compile_hits += 1
                entries.move_to_end(key)
                skeletons.move_to_end(cut)
                return method, [read(parts[place]) for place, read in fill]
        lexed = Lexer(source)
        literals = lexed.literals
        key = (lexed.shape, names)
        method = entries.get(key)
        if method is not None:
            perf.compile_hits += 1
            entries.move_to_end(key)
        else:
            perf.compile_misses += 1
            hidden = tuple(Slot(index).name for index in range(len(literals)))
            try:
                method = Compiler().compile_source(
                    lexed.tokens(lifted=True), hidden + names
                )
            except (ParseError, CompileError):
                # raise it about the text as written: a message may quote
                # a token, and a lifted one would print as its slot
                return Compiler().compile_source(lexed.tokens(), names), []
            entries[key] = method
            if len(entries) > COMPILE_CACHE_MAX:
                entries.popitem(last=False)  # least recently used
        if parts is not None and cut not in skeletons:
            fill = _refill(lexed, parts)
            skeletons[cut] = None if fill is None else (key, fill)
            if len(skeletons) > COMPILE_CACHE_MAX:
                skeletons.popitem(last=False)
        return method, literals

    def _execute(self, source: str, bindings: dict[str, Any]) -> Any:
        method, literals = self._compiled(source, tuple(bindings))
        frame = Frame(
            method.code, method.literals, method.slot_names,
            receiver=None, lexical_parent=None, home=None, is_block=False,
        )
        frame.ics = self._inline_caches(method)
        filled = [*literals, *bindings.values()]
        frame.slots[: len(filled)] = filled
        return self._run_method_frame(frame)

    def invoke_method(self, method: CompiledMethod, receiver: Any, args: tuple) -> Any:
        """Run a compiled method (dispatched through the Object Manager)."""
        if len(args) != len(method.params):
            raise OpalRuntimeError(
                f"#{method.selector} expects {len(method.params)} args, "
                f"got {len(args)}"
            )
        frame = Frame(
            method.code, method.literals, method.slot_names,
            receiver=receiver, lexical_parent=None, home=None, is_block=False,
        )
        frame.method = method
        frame.ics = self._inline_caches(method)
        frame.slots[: len(args)] = list(args)
        return self._run_method_frame(frame)

    @staticmethod
    def _inline_caches(compiled) -> list:
        """The compiled object's per-call-site cache list (Deutsch &
        Schiffman): one slot per bytecode, shared by all activations."""
        ics = getattr(compiled, "ics", None)
        if ics is None:
            ics = [None] * len(compiled.code)
            compiled.ics = ics
        return ics

    def _run_method_frame(self, frame: Frame) -> Any:
        try:
            return self.run_frame(frame)
        except _NonLocalReturn as unwound:
            if unwound.home is frame:
                return unwound.value
            raise

    def call_block(self, closure: BlockClosure, args: tuple) -> Any:
        """Evaluate a closure in its captured lexical context."""
        compiled = closure.compiled
        if len(args) != len(compiled.params):
            raise OpalRuntimeError(
                f"block expects {len(compiled.params)} args, got {len(args)}"
            )
        frame = Frame(
            compiled.code, compiled.literals, compiled.slot_names,
            receiver=closure.receiver,
            lexical_parent=closure.home_frame,
            home=closure.home_frame.home,
            is_block=True,
        )
        frame.method = closure.home_frame.home.method
        frame.ics = self._inline_caches(compiled)
        frame.slots[: len(args)] = list(args)
        return self.run_frame(frame)

    # -- sends ------------------------------------------------------------------------

    def send(self, receiver: Any, selector: str, *args: Any) -> Any:
        """Full OPAL dispatch, including engine-level receivers."""
        budget = self.budget
        if budget is None:
            return self._dispatch(receiver, selector, args)
        budget.enter_send()
        try:
            return self._dispatch(receiver, selector, args)
        finally:
            budget.exit_send()

    def _dispatch(self, receiver: Any, selector: str, args: tuple) -> Any:
        if isinstance(receiver, SystemObject):
            return receiver.send(selector, args)
        if isinstance(receiver, BlockClosure):
            return self._block_send(receiver, selector, args)
        if isinstance(receiver, tuple):
            return self._tuple_send(receiver, selector, args)
        method = self.store.lookup_method(receiver, selector)
        if method is None:
            class_name = self.store.class_of(receiver).name
            raise DoesNotUnderstand(class_name, selector)
        return method.invoke(self.store, receiver, args)

    def _super_send(self, defining_class_name: str, receiver: Any,
                    selector: str, args: tuple) -> Any:
        defining = self.store.class_named(defining_class_name)
        parent = defining.superclass(self.store)
        if parent is None:
            raise DoesNotUnderstand("Object(super)", selector)
        if isinstance(receiver, type(defining)) and receiver is defining:
            method = parent.lookup_class_side(self.store, selector)
            if method is None:
                method = parent.lookup(self.store, selector)
        else:
            method = parent.lookup(self.store, selector)
        if method is None:
            raise DoesNotUnderstand(f"{parent.name}(super)", selector)
        return method.invoke(self.store, receiver, args)

    def _block_send(self, closure: BlockClosure, selector: str, args: tuple) -> Any:
        if selector in ("value", "value:", "value:value:", "value:value:value:",
                        "value:value:value:value:"):
            return closure.call(*args)
        if selector == "numArgs":
            return closure.num_args
        if selector == "whileTrue:":
            body = args[0]
            while self._as_boolean(closure.call(), "whileTrue: condition"):
                self.send(body, "value")
            return None
        if selector == "whileFalse:":
            body = args[0]
            while not self._as_boolean(closure.call(), "whileFalse: condition"):
                self.send(body, "value")
            return None
        if selector == "whileTrue":
            while self._as_boolean(closure.call(), "whileTrue condition"):
                pass
            return None
        raise DoesNotUnderstand("BlockContext", selector)

    def _tuple_send(self, receiver: tuple, selector: str, args: tuple) -> Any:
        """Literal arrays (#(1 2 3)) behave as read-only arrays."""
        if selector == "size":
            return len(receiver)
        if selector == "at:":
            index = args[0]
            if not 1 <= index <= len(receiver):
                raise OpalRuntimeError(f"array index {index} out of 1..{len(receiver)}")
            return receiver[index - 1]
        if selector == "isEmpty":
            return len(receiver) == 0
        if selector == "notEmpty":
            return len(receiver) != 0
        if selector == "includes:":
            return args[0] in receiver
        if selector == "do:":
            for element in receiver:
                self.send(args[0], "value:", element)
            return receiver
        if selector == "collect:":
            return tuple(self.send(args[0], "value:", e) for e in receiver)
        if selector == "select:":
            return tuple(
                e for e in receiver
                if self._as_boolean(self.send(args[0], "value:", e), "select:")
            )
        if selector == "inject:into:":
            accumulator = args[0]
            for element in receiver:
                accumulator = self.send(args[1], "value:value:", accumulator, element)
            return accumulator
        if selector == ",":
            other = args[0]
            if isinstance(other, tuple):
                return receiver + other
            raise OpalRuntimeError("can only concatenate literal arrays")
        if selector == "asOrderedTuple":
            return receiver
        if selector == "printString":
            return "#(" + " ".join(str(e) for e in receiver) + ")"
        raise DoesNotUnderstand("LiteralArray", selector)

    @staticmethod
    def _as_boolean(value: Any, what: str) -> bool:
        if value is True or value is False:
            return value
        raise OpalRuntimeError(f"{what} must answer a Boolean, got {value!r}")

    # -- the dispatch loop -----------------------------------------------------------------

    def run_frame(self, frame: Frame) -> Any:
        """Execute one frame to completion; returns its value."""
        store = self.store
        code = frame.code
        stack = frame.stack
        budget = self.budget
        perf = getattr(store, "perf", None)
        ics = frame.ics if (perf is not None and perf.enabled) else None
        while True:
            if budget is not None:
                budget.charge_steps()  # fuel: one unit per bytecode
            instruction = code[frame.pc]
            frame.pc += 1
            op = instruction.op

            if op is Op.PUSH_CONST:
                stack.append(frame.literals[instruction.operand])
            elif op is Op.PUSH_SELF:
                stack.append(frame.receiver)
            elif op is Op.PUSH_TEMP:
                level, slot = instruction.operand
                stack.append(frame.up(level).slots[slot])
            elif op is Op.STORE_TEMP:
                level, slot = instruction.operand
                frame.up(level).slots[slot] = stack[-1]
            elif op is Op.PUSH_INSTVAR:
                value = store.value_at(frame.receiver, instruction.operand)
                stack.append(None if value is MISSING else store.deref(value))
            elif op is Op.STORE_INSTVAR:
                store.bind(frame.receiver, instruction.operand, stack[-1])
            elif op is Op.PUSH_GLOBAL:
                stack.append(self.global_lookup(instruction.operand))
            elif op is Op.PUSH_BLOCK:
                compiled = frame.literals[instruction.operand]
                stack.append(BlockClosure(self, compiled, frame, frame.receiver))
            elif op is Op.SEND:
                selector, argc = instruction.operand
                args = tuple(stack[len(stack) - argc:]) if argc else ()
                del stack[len(stack) - argc:]
                receiver = stack.pop()
                method = None
                if ics is not None:
                    rtype = type(receiver)
                    if rtype is GemObject or rtype is ColumnObject:
                        class_key = receiver.class_oid
                    elif rtype in _INLINE_CACHEABLE:
                        class_key = rtype
                    else:
                        class_key = None  # engine-level / exotic receiver
                    if class_key is not None:
                        site = frame.pc - 1
                        entry = ics[site]
                        epoch = class_epoch.value
                        if (
                            entry is not None
                            and entry[0] == class_key
                            and entry[1] == epoch
                        ):
                            perf.inline_hits += 1
                            method = entry[2]
                        else:
                            perf.inline_misses += 1
                            method = store.lookup_method(receiver, selector)
                            if method is not None:
                                ics[site] = (class_key, epoch, method)
                            # DNU: fall through to full dispatch, which
                            # raises with the receiver's class name
                if method is None:
                    stack.append(self.send(receiver, selector, *args))
                elif budget is None:
                    stack.append(method.invoke(store, receiver, args))
                else:
                    budget.enter_send()
                    try:
                        stack.append(method.invoke(store, receiver, args))
                    finally:
                        budget.exit_send()
            elif op is Op.SUPER_SEND:
                selector, argc = instruction.operand
                args = tuple(stack[len(stack) - argc:]) if argc else ()
                del stack[len(stack) - argc:]
                receiver = stack.pop()
                defining = self._defining_class_name(frame)
                stack.append(
                    self._super_send(defining, receiver, selector, args)
                )
            elif op is Op.PATH_FETCH:
                stack.append(self._path_fetch(frame, instruction.operand))
            elif op is Op.PATH_ASSIGN:
                value = stack.pop()
                self._path_assign(frame, instruction.operand, value)
                stack.append(value)
            elif op is Op.JUMP:
                frame.pc = instruction.operand
            elif op is Op.JUMP_IF_FALSE:
                target, kind, what = instruction.operand
                value = stack.pop()
                if value is False:
                    frame.pc = target
                elif value is not True:
                    self._branch_error(kind, what, value)
            elif op is Op.JUMP_IF_TRUE:
                target, kind, what = instruction.operand
                value = stack.pop()
                if value is True:
                    frame.pc = target
                elif value is not False:
                    self._branch_error(kind, what, value)
            elif op is Op.POP:
                stack.pop()
            elif op is Op.DUP:
                stack.append(stack[-1])
            elif op is Op.RETURN_TOP:
                return stack.pop()
            elif op is Op.NONLOCAL_RETURN:
                raise _NonLocalReturn(frame.home, stack.pop())
            elif op is Op.BLOCK_END:
                return stack.pop()
            else:  # pragma: no cover - exhaustive
                raise OpalRuntimeError(f"unknown opcode {op}")

    def _branch_error(self, kind: str, what: str, value: Any) -> None:
        """Inlined control flow keeps the un-inlined error behavior."""
        if kind == "dnu":
            # e.g. `3 ifTrue: [...]`: Integer does not understand #ifTrue:
            raise DoesNotUnderstand(self.store.class_of(value).name, what)
        raise OpalRuntimeError(f"{what} must answer a Boolean, got {value!r}")

    def _defining_class_name(self, frame: Frame) -> str:
        method = frame.home.method
        if method is None or not method.class_name:
            raise OpalRuntimeError("super send outside a method context")
        return method.class_name

    # -- paths --------------------------------------------------------------------------------

    def _pop_path_times(self, frame: Frame, descriptor) -> list[Optional[Any]]:
        pinned = sum(1 for _, has_time in descriptor if has_time)
        times = frame.stack[len(frame.stack) - pinned:] if pinned else []
        del frame.stack[len(frame.stack) - pinned:]
        iterator = iter(times)
        return [next(iterator) if has_time else None for _, has_time in descriptor]

    def _path_fetch(self, frame: Frame, descriptor) -> Any:
        times = self._pop_path_times(frame, descriptor)
        current = frame.stack.pop()
        for index, ((name, _), time) in enumerate(zip(descriptor, times)):
            if type(name) is Slot:
                name = frame.slots[name.index]  # lifted out of the text
            if not isinstance(current, (GemObject, Ref)):
                raise OpalRuntimeError(
                    f"path component !{name}: receiver is not an object"
                )
            value = self.store.value_at(current, name, time)
            last = index == len(descriptor) - 1
            if value is MISSING:
                if last:
                    return None  # unbound optional element reads as nil
                raise OpalRuntimeError(f"no value at path component !{name}")
            if value is None and not last:
                raise OpalRuntimeError(f"nil at path component !{name}")
            current = self.store.deref(value)
        return current

    def _path_assign(self, frame: Frame, descriptor, value: Any) -> None:
        times = self._pop_path_times(frame, descriptor)
        current = frame.stack.pop()
        last_name, last_has_time = descriptor[-1]
        if last_has_time:
            raise OpalRuntimeError("cannot assign into the past")
        if type(last_name) is Slot:
            last_name = frame.slots[last_name.index]
        for (name, _), time in zip(descriptor[:-1], times[:-1]):
            if type(name) is Slot:
                name = frame.slots[name.index]
            if not isinstance(current, (GemObject, Ref)):
                raise OpalRuntimeError(
                    f"path component !{name}: receiver is not an object"
                )
            fetched = self.store.value_at(current, name, time)
            if fetched is MISSING or fetched is None:
                raise OpalRuntimeError(f"no value at path component !{name}")
            current = self.store.deref(fetched)
        if not isinstance(current, (GemObject, Ref)):
            raise OpalRuntimeError("path assignment target is not an object")
        self.store.bind(current, last_name, value)
