"""The OPAL compiler: AST to bytecodes.

"The Compiler requires some modifications from the ST80 compiler.  Most
are small changes in syntax or for slightly different bytecodes, but a
large addition is needed to translate calculus expressions into
procedural form" (section 6).  The calculus translation lives in
:mod:`repro.opal.declarative`; this module does the classic part:
resolving names against the lexical scope chain, instance variables and
globals, and emitting stack-machine code.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import CompileError
from .bytecodes import CompiledBlock, CompiledMethod, Instruction, Op
from .nodes import (
    Assign,
    BlockNode,
    Cascade,
    Literal,
    MessageSend,
    MethodNode,
    Node,
    PathAssign,
    PathFetch,
    Return,
    Sequence,
    VarRef,
)
from .parser import parse_expression_code, parse_method
from .tokens import Slot, Token


class _Scope:
    """One lexical frame's slot names, linked to its parent scope."""

    def __init__(self, names: tuple[str, ...], parent: Optional["_Scope"]) -> None:
        self.slots = {name: index for index, name in enumerate(names)}
        if len(self.slots) != len(names):
            raise CompileError(f"duplicate variable name in {names}")
        self.parent = parent

    def resolve(self, name: str) -> Optional[tuple[int, int]]:
        """(level, slot) for a temp/param, or None if not lexical."""
        level = 0
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.slots:
                return (level, scope.slots[name])
            scope = scope.parent
            level += 1
        return None


class Compiler:
    """Compiles parsed methods and code blocks.

    ``instvar_names`` (from the target class) decide which bare
    identifiers compile to instance-variable access; everything else
    unresolved becomes a global reference looked up at run time.

    Like the ST80 compiler, control-flow messages whose arguments are
    simple literal blocks (``ifTrue:``, ``and:``, ``whileTrue:`` …) are
    inlined as conditional jumps instead of closure sends; semantics are
    identical, including the errors non-Boolean values raise.  Pass
    ``inline_control_flow=False`` to compile everything as real sends.
    """

    def __init__(
        self,
        instvar_names: tuple[str, ...] = (),
        inline_control_flow: bool = True,
    ) -> None:
        self.instvar_names = set(instvar_names)
        self.inline_control_flow = inline_control_flow

    # -- entry points ------------------------------------------------------------

    def compile_method(self, node: MethodNode, class_name: str = "") -> CompiledMethod:
        """Compile a parsed method for installation in a class."""
        unit = _Unit(self, _Scope(node.params + node.body.temps, None))
        unit.compile_body(node.body.statements, is_method_body=True)
        return CompiledMethod(
            selector=node.selector,
            params=node.params,
            temps=node.body.temps,
            code=unit.code,
            literals=unit.literals,
            source=node.source,
            class_name=class_name,
        )

    def compile_code(self, node: Sequence, extra_names: tuple[str, ...] = ()) -> CompiledMethod:
        """Compile an executable code block (a "doit") as a 0-arg method.

        ``extra_names`` become pre-filled temps (the Executor binds them
        to session workspace variables).
        """
        temps = extra_names + node.temps
        unit = _Unit(self, _Scope(temps, None))
        unit.compile_body(node.statements, is_method_body=True, is_doit=True)
        return CompiledMethod(
            selector="doIt",
            params=(),
            temps=temps,
            code=unit.code,
            literals=unit.literals,
            source=None,
        )

    def compile_method_source(self, source: str, class_name: str = "") -> CompiledMethod:
        """Parse and compile method source text."""
        return self.compile_method(parse_method(source), class_name)

    def compile_source(
        self, source: "str | list[Token]", extra_names: tuple[str, ...] = ()
    ) -> CompiledMethod:
        """Parse and compile a code block, from its text or its tokens.

        Tokens may hold a :class:`Slot` for a value; *extra_names* then
        starts with the slots' names, in order (see :class:`Slot`).
        """
        return self.compile_code(parse_expression_code(source), extra_names)


class _Unit:
    """Code emission for one frame (a method body or one block)."""

    def __init__(
        self, compiler: Compiler, scope: _Scope, is_block_unit: bool = False
    ) -> None:
        self.compiler = compiler
        self.scope = scope
        self.is_block_unit = is_block_unit
        self.code: list[Instruction] = []
        self.literals: list[Any] = []

    # -- emission helpers --------------------------------------------------------

    def emit(self, op: Op, operand: Any = None) -> None:
        self.code.append(Instruction(op, operand))

    def emit_jump_placeholder(self, op: Op) -> int:
        """Emit a jump with an unknown target; returns its index."""
        self.code.append(Instruction(op, None))
        return len(self.code) - 1

    def patch_jump(self, index: int, extra: tuple = (),
                   target: int | None = None) -> None:
        """Fix a placeholder: target defaults to the next instruction.

        Conditional jumps carry ``(target, error_kind, error_what)``;
        plain JUMP carries the bare target.
        """
        target = len(self.code) if target is None else target
        op = self.code[index].op
        operand: Any = target if op is Op.JUMP else (target,) + tuple(extra)
        self.code[index] = Instruction(op, operand)

    def literal_index(self, value: Any) -> int:
        self.literals.append(value)
        return len(self.literals) - 1

    # -- bodies --------------------------------------------------------------------

    def compile_body(
        self,
        statements: tuple[Node, ...],
        is_method_body: bool,
        is_doit: bool = False,
    ) -> None:
        """Statements discard intermediate values; the tail returns.

        Methods without ``^`` answer self (Smalltalk-80); executable code
        blocks ("doits") answer their last statement's value; blocks end
        with BLOCK_END yielding the last value.
        """
        if not statements:
            if is_method_body and not is_doit:
                self.emit(Op.PUSH_SELF)
                self.emit(Op.RETURN_TOP)
            else:
                index = self.literal_index(None)
                self.emit(Op.PUSH_CONST, index)
                self.emit(Op.RETURN_TOP if is_method_body else Op.BLOCK_END)
            return
        for index, statement in enumerate(statements):
            last = index == len(statements) - 1
            if isinstance(statement, Return):
                self.expression(statement.value)
                self.emit(
                    Op.RETURN_TOP if is_method_body else Op.NONLOCAL_RETURN
                )
                return
            self.expression(statement)
            if not last:
                self.emit(Op.POP)
        if is_method_body and not is_doit:
            # a method without ^ answers self (Smalltalk-80 semantics)
            self.emit(Op.POP)
            self.emit(Op.PUSH_SELF)
            self.emit(Op.RETURN_TOP)
        elif is_doit:
            self.emit(Op.RETURN_TOP)
        else:
            self.emit(Op.BLOCK_END)

    # -- expressions ------------------------------------------------------------------

    def expression(self, node: Node) -> None:
        if isinstance(node, Literal):
            if type(node.value) is Slot:
                self.variable_read(node.value.name)  # a lifted literal
            else:
                self.emit(Op.PUSH_CONST, self.literal_index(node.value))
        elif isinstance(node, VarRef):
            self.variable_read(node.name)
        elif isinstance(node, Assign):
            self.expression(node.value)
            self.variable_write(node.name)
        elif isinstance(node, MessageSend):
            self.message_send(node)
        elif isinstance(node, Cascade):
            self.cascade(node)
        elif isinstance(node, PathFetch):
            self.path_fetch(node)
        elif isinstance(node, PathAssign):
            self.path_assign(node)
        elif isinstance(node, BlockNode):
            self.block(node)
        elif isinstance(node, Return):
            raise CompileError("^ return is only legal as a statement")
        else:
            raise CompileError(f"cannot compile node {node!r}")

    def variable_read(self, name: str) -> None:
        if name == "self" or name == "super":
            self.emit(Op.PUSH_SELF)
            return
        if name == "thisContext":
            raise CompileError("thisContext is not supported in OPAL")
        location = self.scope.resolve(name)
        if location is not None:
            self.emit(Op.PUSH_TEMP, location)
            return
        if name in self.compiler.instvar_names:
            self.emit(Op.PUSH_INSTVAR, name)
            return
        self.emit(Op.PUSH_GLOBAL, name)

    def variable_write(self, name: str) -> None:
        location = self.scope.resolve(name)
        if location is not None:
            self.emit(Op.STORE_TEMP, location)
            return
        if name in self.compiler.instvar_names:
            self.emit(Op.STORE_INSTVAR, name)
            return
        raise CompileError(f"cannot assign to undeclared variable {name!r}")

    def message_send(self, node: MessageSend) -> None:
        if (
            self.compiler.inline_control_flow
            and not node.to_super
            and self._try_inline(node)
        ):
            return
        self.expression(node.receiver)
        for argument in node.args:
            self.expression(argument)
        op = Op.SUPER_SEND if node.to_super else Op.SEND
        self.emit(op, (node.selector, len(node.args)))

    # -- control-flow inlining --------------------------------------------------

    @staticmethod
    def _inlinable_block(node: Node) -> bool:
        return isinstance(node, BlockNode) and not node.params and not node.temps

    def _inline_body(self, block: BlockNode) -> None:
        """Emit a block's body in the current frame, leaving its value.

        ``^`` inside the body returns from the frame exactly as it would
        have through a closure (RETURN_TOP in a method frame, a
        non-local return when this unit is itself a block's).
        """
        statements = block.body
        if not statements:
            self.emit(Op.PUSH_CONST, self.literal_index(None))
            return
        for index, statement in enumerate(statements):
            if isinstance(statement, Return):
                self.expression(statement.value)
                self.emit(
                    Op.NONLOCAL_RETURN if self.is_block_unit else Op.RETURN_TOP
                )
                if index == len(statements) - 1:
                    # the jump that follows needs *a* stack value even
                    # though this path never falls through
                    self.emit(Op.PUSH_CONST, self.literal_index(None))
                return
            self.expression(statement)
            if index != len(statements) - 1:
                self.emit(Op.POP)

    def _try_inline(self, node: MessageSend) -> bool:
        selector = node.selector
        args = node.args
        if selector in ("ifTrue:", "ifFalse:") and len(args) == 1 and (
            self._inlinable_block(args[0])
        ):
            self._inline_conditional(
                node.receiver, selector,
                then_block=args[0] if selector == "ifTrue:" else None,
                else_block=args[0] if selector == "ifFalse:" else None,
            )
            return True
        if selector == "ifTrue:ifFalse:" and len(args) == 2 and all(
            self._inlinable_block(a) for a in args
        ):
            self._inline_conditional(node.receiver, selector, args[0], args[1])
            return True
        if selector == "ifFalse:ifTrue:" and len(args) == 2 and all(
            self._inlinable_block(a) for a in args
        ):
            self._inline_conditional(node.receiver, selector, args[1], args[0])
            return True
        if selector in ("and:", "or:") and len(args) == 1 and (
            self._inlinable_block(args[0])
        ):
            self._inline_short_circuit(node.receiver, selector, args[0])
            return True
        if selector in ("whileTrue:", "whileFalse:") and len(args) == 1 and (
            self._inlinable_block(node.receiver)
            and self._inlinable_block(args[0])
        ):
            self._inline_while(node.receiver, selector, args[0])
            return True
        if selector == "whileTrue" and not args and self._inlinable_block(
            node.receiver
        ):
            self._inline_while(node.receiver, "whileTrue:", None)
            return True
        return False

    def _inline_conditional(self, receiver: Node, selector: str,
                            then_block, else_block) -> None:
        self.expression(receiver)
        skip = self.emit_jump_placeholder(Op.JUMP_IF_FALSE)
        if then_block is not None:
            self._inline_body(then_block)
        else:
            self.emit(Op.PUSH_CONST, self.literal_index(None))
        to_end = self.emit_jump_placeholder(Op.JUMP)
        self.patch_jump(skip, extra=("dnu", selector))
        if else_block is not None:
            self._inline_body(else_block)
        else:
            self.emit(Op.PUSH_CONST, self.literal_index(None))
        self.patch_jump(to_end)

    def _inline_short_circuit(self, receiver: Node, selector: str,
                              block: BlockNode) -> None:
        self.expression(receiver)
        if selector == "and:":
            into = self.emit_jump_placeholder(Op.JUMP_IF_TRUE)
            self.emit(Op.PUSH_CONST, self.literal_index(False))
        else:
            into = self.emit_jump_placeholder(Op.JUMP_IF_FALSE)
            self.emit(Op.PUSH_CONST, self.literal_index(True))
        to_end = self.emit_jump_placeholder(Op.JUMP)
        self.patch_jump(into, extra=("dnu", selector))
        self._inline_body(block)
        self.patch_jump(to_end)

    def _inline_while(self, condition: BlockNode, selector: str,
                      body) -> None:
        top = len(self.code)
        self._inline_body(condition)
        out = self.emit_jump_placeholder(
            Op.JUMP_IF_FALSE if selector == "whileTrue:" else Op.JUMP_IF_TRUE
        )
        if body is not None:
            self._inline_body(body)
            self.emit(Op.POP)
        self.emit(Op.JUMP, top)
        self.patch_jump(
            out, extra=("loop", f"{selector.rstrip(':')} condition")
        )
        self.emit(Op.PUSH_CONST, self.literal_index(None))

    def cascade(self, node: Cascade) -> None:
        """Evaluate the receiver once; send every message to it.

        All but the last send DUP the receiver and POP their value; the
        last send consumes the receiver and its value is the cascade's.
        """
        first = node.first
        messages = [(first.selector, first.args)] + list(node.rest)
        self.expression(first.receiver)
        for selector, args in messages[:-1]:
            self.emit(Op.DUP)
            for argument in args:
                self.expression(argument)
            self.emit(Op.SEND, (selector, len(args)))
            self.emit(Op.POP)
        selector, args = messages[-1]
        for argument in args:
            self.expression(argument)
        self.emit(Op.SEND, (selector, len(args)))

    def path_fetch(self, node: PathFetch) -> None:
        self.expression(node.base)
        self.emit(Op.PATH_FETCH, self._path_descriptor(node.steps))

    def path_assign(self, node: PathAssign) -> None:
        self.expression(node.base)
        descriptor = self._path_descriptor(node.steps)
        self.expression(node.value)
        self.emit(Op.PATH_ASSIGN, descriptor)

    def _path_descriptor(self, steps) -> tuple:
        """Push the steps' time pins; answer ``((name, has_time), ...)``.

        A lifted name stays a :class:`Slot` in the descriptor — the
        interpreter reads it from the frame, at no extra bytecode.
        """
        descriptor = []
        for step in steps:
            if step.time is not None:
                self.expression(step.time)
            if type(step.name) is Slot and self.scope.parent is not None:
                raise CompileError("a path name is lifted only outside blocks")
            descriptor.append((step.name, step.time is not None))
        return tuple(descriptor)

    def block(self, node: BlockNode) -> None:
        inner = _Unit(
            self.compiler, _Scope(node.params + node.temps, self.scope),
            is_block_unit=True,
        )
        inner.compile_body(node.body, is_method_body=False)
        compiled = CompiledBlock(
            params=node.params,
            temps=node.temps,
            code=inner.code,
            literals=inner.literals,
            ast=node,
        )
        self.emit(Op.PUSH_BLOCK, self.literal_index(compiled))
