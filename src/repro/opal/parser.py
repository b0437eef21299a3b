"""The OPAL parser: tokens to AST.

Standard Smalltalk-80 precedence — unary binds tighter than binary,
binary tighter than keyword; parentheses override — extended with path
steps, which bind at unary level:

    x foo!name@7!city bar   ≡   ((x foo)!name@7!city) bar

``@`` inside a path pins that component's time; its operand is a primary
expression (use parentheses for arithmetic: ``!balance@(t - 1)``).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ParseError
from .lexer import Lexer
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
    PathStepNode,
    Return,
    Sequence,
)
from .tokens import Token, TokenType
from ..core.values import Char, Symbol

_RESERVED = {"self", "super", "true", "false", "nil", "thisContext"}


def parse_expression_code(source: "str | list[Token]") -> Sequence:
    """Parse a code block (a "doit"): optional temps then statements."""
    return Parser(source).parse_code()


def parse_method(source: str) -> MethodNode:
    """Parse a method definition: message pattern, temps, statements."""
    return Parser(source).parse_method()


class Parser:
    """Recursive-descent parser over the token stream.

    *source* is OPAL text, or its tokens when the caller has already
    lexed it (a text is scanned once per ``execute``).
    """

    def __init__(self, source: "str | list[Token]") -> None:
        if isinstance(source, str):
            self.source, self._tokens = source, Lexer(source).tokens()
        else:
            self.source, self._tokens = "", source
        self._index = 0

    # -- token plumbing ---------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.END:
            self._index += 1
        return token

    def _expect(self, token_type: TokenType) -> Token:
        if self.current.type is not token_type:
            raise ParseError(
                f"expected {token_type.name}, found {self.current!r}"
            )
        return self._advance()

    def _at(self, token_type: TokenType) -> bool:
        return self.current.type is token_type

    # -- entry points ------------------------------------------------------------

    def parse_code(self) -> Sequence:
        """temporaries? statements END

        Executable code blocks (unlike methods) tolerate additional
        ``| x y |`` declarations between statements — hosts send
        accumulated workspace code as one block (section 6).
        """
        temps = self._temporaries()
        statements: list[Node] = []
        while not self._at(TokenType.END):
            if self._at(TokenType.PIPE):
                temps.extend(self._temporaries())
                continue
            chunk = self._statements(TokenType.END, stop_at_pipe=True)
            statements.extend(chunk)
            if not chunk:
                break
        self._expect(TokenType.END)
        return Sequence(tuple(temps), tuple(statements))

    def parse_method(self) -> MethodNode:
        """message-pattern temporaries? statements END"""
        selector, params = self._message_pattern()
        temps = self._temporaries()
        statements = self._statements(TokenType.END)
        self._expect(TokenType.END)
        return MethodNode(
            selector, tuple(params), Sequence(tuple(temps), tuple(statements)),
            source=self.source,
        )

    def _message_pattern(self) -> tuple[str, list[str]]:
        token = self.current
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value, []
        if token.type is TokenType.BINARY:
            self._advance()
            param = self._expect(TokenType.IDENTIFIER).value
            return token.value, [param]
        if token.type is TokenType.KEYWORD:
            selector = ""
            params = []
            while self._at(TokenType.KEYWORD):
                selector += self._advance().value
                params.append(self._expect(TokenType.IDENTIFIER).value)
            return selector, params
        raise ParseError(f"malformed method pattern at {token!r}")

    # -- statements ----------------------------------------------------------------

    def _temporaries(self) -> list[str]:
        if not self._at(TokenType.PIPE):
            return []
        self._advance()
        temps = []
        while self._at(TokenType.IDENTIFIER):
            temps.append(self._advance().value)
        self._expect(TokenType.PIPE)
        return temps

    def _statements(
        self, closer: TokenType, stop_at_pipe: bool = False
    ) -> list[Node]:
        statements: list[Node] = []
        while not self._at(closer):
            if stop_at_pipe and self._at(TokenType.PIPE):
                break
            if self._at(TokenType.CARET):
                self._advance()
                statements.append(Return(self._expression()))
                if self._at(TokenType.PERIOD):
                    self._advance()
                break
            statements.append(self._expression())
            if self._at(TokenType.PERIOD):
                self._advance()
            else:
                break
        return statements

    # -- expressions -----------------------------------------------------------------

    def _expression(self) -> Node:
        # assignment?  identifier (path-steps)? ':=' ...
        if self._at(TokenType.IDENTIFIER):
            saved = self._index
            name = self._advance().value
            if self._at(TokenType.ASSIGN):
                self._advance()
                if name in _RESERVED:
                    raise ParseError(f"cannot assign to {name!r}")
                return Assign(name, self._expression())
            if self._at(TokenType.BANG):
                steps = self._path_steps()
                if self._at(TokenType.ASSIGN):
                    self._advance()
                    return PathAssign(VarRefFor(name), tuple(steps),
                                      self._expression())
            self._index = saved  # not an assignment: reparse as expression
        return self._cascade()

    def _cascade(self) -> Node:
        expr = self._keyword_expression()
        if not self._at(TokenType.SEMICOLON):
            return expr
        if not isinstance(expr, MessageSend):
            raise ParseError("cascade requires a message send before ';'")
        rest: list[tuple[str, tuple[Node, ...]]] = []
        while self._at(TokenType.SEMICOLON):
            self._advance()
            rest.append(self._cascade_message())
        return Cascade(expr, tuple(rest))

    def _cascade_message(self) -> tuple[str, tuple[Node, ...]]:
        token = self.current
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value, ()
        if token.type is TokenType.BINARY:
            self._advance()
            return token.value, (self._unary_expression(),)
        if token.type is TokenType.KEYWORD:
            selector = ""
            args: list[Node] = []
            while self._at(TokenType.KEYWORD):
                selector += self._advance().value
                args.append(self._binary_expression())
            return selector, tuple(args)
        raise ParseError(f"malformed cascade message at {token!r}")

    def _keyword_expression(self) -> Node:
        receiver = self._binary_expression()
        if not self._at(TokenType.KEYWORD):
            return receiver
        selector = ""
        args: list[Node] = []
        while self._at(TokenType.KEYWORD):
            selector += self._advance().value
            args.append(self._binary_expression())
        to_super = _is_super(receiver)
        return MessageSend(receiver, selector, tuple(args), to_super)

    def _binary_expression(self) -> Node:
        left = self._unary_expression()
        # `|` is a binary selector in expression position (the lexer emits
        # PIPE because it is also the temps/block-parameter separator)
        while self._at(TokenType.BINARY) or self._at(TokenType.PIPE):
            selector = self._advance().value
            right = self._unary_expression()
            left = MessageSend(left, selector, (right,), _is_super(left))
        return left

    def _unary_expression(self) -> Node:
        node = self._primary()
        while True:
            if self._at(TokenType.IDENTIFIER) and not (
                self._peek().type is TokenType.ASSIGN
            ):
                selector = self._advance().value
                node = MessageSend(node, selector, (), _is_super(node))
            elif self._at(TokenType.BANG):
                steps = self._path_steps()
                node = PathFetch(node, tuple(steps))
            else:
                return node

    def _path_steps(self) -> list[PathStepNode]:
        steps: list[PathStepNode] = []
        while self._at(TokenType.BANG):
            self._advance()
            token = self.current
            if token.type in (TokenType.IDENTIFIER, TokenType.STRING,
                              TokenType.INTEGER):
                self._advance()
                name = token.value
            else:
                raise ParseError(f"bad path component at {token!r}")
            time: Optional[Node] = None
            if self._at(TokenType.AT):
                self._advance()
                time = self._primary()
            steps.append(PathStepNode(name, time))
        return steps

    def _primary(self) -> Node:
        token = self.current
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return VarRefFor(token.value)
        if token.type is TokenType.INTEGER or token.type is TokenType.FLOAT:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.CHARACTER:
            self._advance()
            return Literal(Char(token.value))
        if token.type is TokenType.SYMBOL:
            self._advance()
            return Literal(Symbol(token.value))
        if token.type is TokenType.ARRAY_START:
            self._advance()
            return Literal(tuple(self._array_elements()))
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self._expression()
            self._expect(TokenType.RPAREN)
            return inner
        if token.type is TokenType.LBRACKET:
            return self._block()
        raise ParseError(f"unexpected {token!r}")

    def _array_elements(self) -> list:
        elements: list = []
        while not self._at(TokenType.RPAREN):
            token = self.current
            if token.type in (TokenType.INTEGER, TokenType.FLOAT,
                              TokenType.STRING):
                self._advance()
                elements.append(token.value)
            elif token.type is TokenType.CHARACTER:
                self._advance()
                elements.append(Char(token.value))
            elif token.type is TokenType.SYMBOL:
                self._advance()
                elements.append(Symbol(token.value))
            elif token.type is TokenType.IDENTIFIER and token.value in (
                "true", "false", "nil",
            ):
                self._advance()
                elements.append({"true": True, "false": False, "nil": None}[
                    token.value
                ])
            elif token.type is TokenType.IDENTIFIER:
                # bare identifiers in literal arrays are symbols (ST80)
                self._advance()
                elements.append(Symbol(token.value))
            elif token.type is TokenType.KEYWORD:
                self._advance()
                elements.append(Symbol(token.value))
            elif token.type is TokenType.ARRAY_START or (
                token.type is TokenType.LPAREN
            ):
                # nested literal arrays may omit the leading # (ST80)
                self._advance()
                elements.append(tuple(self._array_elements()))
            elif token.type is TokenType.BINARY:
                self._advance()
                elements.append(Symbol(token.value))
            else:
                raise ParseError(f"bad literal array element {token!r}")
        self._expect(TokenType.RPAREN)
        return elements

    def _block(self) -> BlockNode:
        self._expect(TokenType.LBRACKET)
        params: list[str] = []
        while self._at(TokenType.COLON):
            self._advance()
            params.append(self._expect(TokenType.IDENTIFIER).value)
        if params:
            if self._at(TokenType.PIPE):
                self._advance()
            elif not self._at(TokenType.RBRACKET):
                raise ParseError("expected '|' after block parameters")
        temps = self._temporaries() if self._at(TokenType.PIPE) else []
        statements = self._statements(TokenType.RBRACKET)
        self._expect(TokenType.RBRACKET)
        return BlockNode(tuple(params), tuple(temps), tuple(statements))


def VarRefFor(name: str):
    """Build a VarRef or literal for the pseudo-variables."""
    from .nodes import VarRef

    constants = {"true": True, "false": False, "nil": None}
    if name in constants:
        return Literal(constants[name])
    return VarRef(name)


def _is_super(node: Node) -> bool:
    from .nodes import VarRef

    return isinstance(node, VarRef) and node.name == "super"
