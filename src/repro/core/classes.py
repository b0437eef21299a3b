"""Classes, methods and the bootstrap hierarchy.

Section 4.1: "a class is a group of structurally similar objects that
respond to the same set of messages.  The class definition contains the
procedures (methods) that its objects use to respond to messages.  Classes
are organized in a (strict) hierarchy."

Classes are themselves objects (section 4.2 notes ST80 "treats system
components as full-fledged objects"), so :class:`GemClass` derives from
:class:`~repro.core.objects.GemObject`: a class has an oid, lives in the
store, and can be referenced from elements like any entity.

Methods come in two flavors: :class:`PrimitiveMethod` wraps a Python
callable (the reproduction's analogue of ST80 primitives), and the OPAL
compiler produces ``CompiledMethod`` objects (:mod:`repro.opal.compiler`)
that satisfy the same ``invoke`` protocol via the Interpreter.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from ..errors import ClassProtocolError
from ..perf.epochs import class_epoch
from .objects import GemObject
from .values import Symbol


class Method:
    """Abstract method: responds to a selector on behalf of a receiver."""

    selector: str

    def invoke(self, manager: Any, receiver: Any, args: tuple) -> Any:
        """Execute the method; subclasses must override."""
        raise NotImplementedError


class PrimitiveMethod(Method):
    """A method implemented directly in Python.

    The wrapped callable receives ``(manager, receiver, *args)`` and
    returns the method's value.  Kernel classes are seeded with these
    before any OPAL source is compiled.
    """

    __slots__ = ("selector", "function")

    def __init__(self, selector: str, function: Callable[..., Any]) -> None:
        self.selector = selector
        self.function = function

    def invoke(self, manager: Any, receiver: Any, args: tuple) -> Any:
        return self.function(manager, receiver, *args)

    def __repr__(self) -> str:
        return f"<primitive #{self.selector}>"


class GemClass(GemObject):
    """A class object: name, superclass, instance variables, method dictionaries.

    Instance-variable names declared here are advisory structure: instances
    may omit them (optional variables cost no storage) and may gain extra
    element names later (section 4.3's wish list, granted by GSDM).
    """

    __slots__ = (
        "name",
        "superclass_oid",
        "instvar_names",
        "methods",
        "class_methods",
    )

    def __init__(
        self,
        oid: int,
        class_oid: int,
        name: str,
        superclass_oid: Optional[int],
        instvar_names: tuple[str, ...] = (),
        segment_id: int = 0,
        created_at: int = 0,
    ) -> None:
        super().__init__(oid, class_oid, segment_id, created_at)
        self.name = name
        self.superclass_oid = superclass_oid
        self.instvar_names = tuple(instvar_names)
        #: selector -> Method, for instances of this class
        self.methods: dict[str, Method] = {}
        #: selector -> Method, for the class object itself
        self.class_methods: dict[str, Method] = {}

    def __repr__(self) -> str:
        return f"<GemClass {self.name} oid={self.oid}>"

    # -- method dictionary ---------------------------------------------------

    def define_method(self, method: Method) -> Method:
        """Install *method* in this class's instance-method dictionary.

        (Re)definition bumps the class-hierarchy version stamp, so every
        method-lookup, inline and translation cache drops any resolution
        made against the old dictionary.
        """
        self.methods[method.selector] = method
        class_epoch.bump()
        return method

    def define_primitive(self, selector: str, function: Callable[..., Any]) -> Method:
        """Shorthand: install a :class:`PrimitiveMethod`."""
        return self.define_method(PrimitiveMethod(selector, function))

    def define_class_method(self, method: Method) -> Method:
        """Install *method* in this class's class-method dictionary."""
        self.class_methods[method.selector] = method
        class_epoch.bump()
        return method

    def define_class_primitive(
        self, selector: str, function: Callable[..., Any]
    ) -> Method:
        """Shorthand: install a class-side :class:`PrimitiveMethod`."""
        return self.define_class_method(PrimitiveMethod(selector, function))

    def remove_method(self, selector: str) -> None:
        """Remove an instance method; inherited methods become visible again."""
        if self.methods.pop(selector, None) is not None:
            class_epoch.bump()

    # -- hierarchy -----------------------------------------------------------

    def superclass(self, manager: Any) -> Optional["GemClass"]:
        """The superclass object, or None for the root class."""
        if self.superclass_oid is None:
            return None
        return manager.object(self.superclass_oid)

    def superclass_chain(self, manager: Any) -> Iterator["GemClass"]:
        """Iterate this class and its ancestors, most specific first."""
        cls: Optional[GemClass] = self
        while cls is not None:
            yield cls
            cls = cls.superclass(manager)

    def lookup(self, manager: Any, selector: str) -> Optional[Method]:
        """Find the method for *selector*, walking up the hierarchy."""
        for cls in self.superclass_chain(manager):
            method = cls.methods.get(selector)
            if method is not None:
                return method
        return None

    def lookup_class_side(self, manager: Any, selector: str) -> Optional[Method]:
        """Find a class-side method for *selector* up the hierarchy."""
        for cls in self.superclass_chain(manager):
            method = cls.class_methods.get(selector)
            if method is not None:
                return method
        return None

    def is_subclass_of(self, manager: Any, other: "GemClass") -> bool:
        """True if this class equals *other* or inherits from it."""
        return any(cls.oid == other.oid for cls in self.superclass_chain(manager))

    def all_instvar_names(self, manager: Any) -> tuple[str, ...]:
        """Inherited instance-variable names followed by this class's own."""
        chain = list(self.superclass_chain(manager))
        names: list[str] = []
        for cls in reversed(chain):
            for name in cls.instvar_names:
                if name not in names:
                    names.append(name)
        return tuple(names)

    def selectors(self, manager: Any) -> set[str]:
        """Every selector instances respond to, including inherited ones."""
        found: set[str] = set()
        for cls in self.superclass_chain(manager):
            found.update(cls.methods)
        return found

    def add_instvar(self, name: str) -> None:
        """Extend the structure: existing instances gain the (optional)
        variable at no storage cost — design goal C, "modification of
        database schemes without database restructuring"."""
        if name in self.instvar_names:
            raise ClassProtocolError(
                f"{self.name} already has instance variable {name!r}"
            )
        self.instvar_names = self.instvar_names + (name,)
        # structure affects what a select-block translation may assume
        # (trivial-getter recognition), so version it like behaviour
        class_epoch.bump()

    def copy_shell(self) -> "GemClass":
        """A table-borrowing twin (see the superclass) that stays a class.

        Method dictionaries and the structural definition are shared
        with the original: sessions twin class objects for element
        writes, and behaviour changes are deliberately image-wide.
        """
        twin = GemClass(
            oid=self.oid,
            class_oid=self.class_oid,
            name=self.name,
            superclass_oid=self.superclass_oid,
            instvar_names=self.instvar_names,
            segment_id=self.segment_id,
            created_at=self.created_at,
        )
        twin._borrow_elements(self)
        twin.methods = self.methods
        twin.class_methods = self.class_methods
        return twin


#: (class name, superclass name) pairs the Object Manager creates at
#: bootstrap.  The OPAL kernel (:mod:`repro.opal.kernel`) adds methods to
#: these same class objects, so language and store share one hierarchy.
BOOTSTRAP_HIERARCHY: tuple[tuple[str, Optional[str]], ...] = (
    ("Object", None),
    ("Class", "Object"),
    ("UndefinedObject", "Object"),
    ("Boolean", "Object"),
    ("Magnitude", "Object"),
    ("Character", "Magnitude"),
    ("Number", "Magnitude"),
    ("Integer", "Number"),
    ("Float", "Number"),
    ("String", "Magnitude"),
    ("Symbol", "String"),
    ("Collection", "Object"),
    ("Bag", "Collection"),
    ("Set", "Bag"),
    ("Array", "Collection"),
    ("Dictionary", "Collection"),
    ("Association", "Object"),
    ("BlockContext", "Object"),
    ("System", "Object"),
    ("View", "Object"),
)


def immediate_class_name(value: Any) -> str:
    """The bootstrap class name for an immediate value."""
    if value is None:
        return "UndefinedObject"
    if isinstance(value, bool):
        return "Boolean"
    if isinstance(value, Symbol):
        return "Symbol"
    if isinstance(value, int):
        return "Integer"
    if isinstance(value, float):
        return "Float"
    if isinstance(value, str):
        return "String"
    from .values import Char

    if isinstance(value, Char):
        return "Character"
    raise ClassProtocolError(f"{value!r} is not an immediate value")
