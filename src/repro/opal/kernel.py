"""The OPAL kernel: primitive methods on the bootstrap classes.

Section 6: the GemStone system structure "is similar to that of ST80,
minus display and file system classes, but with additions for set
calculus, path syntax, time, concurrency, authorization, recovery,
replication and directories."

This module seeds the bootstrap class hierarchy with primitives —
numbers, strings, booleans, blocks, and the collection protocol over
GSDM objects.  Collections are ordinary objects whose elements are
alias→member bindings, so ``remove:`` binds the member's alias to nil:
deletion is replaced by history (section 2E), and a time-dialed session
still sees the member in past states.

``install_kernel`` is idempotent per store (classes are shared through
the stable store, so it runs once per database plus once per fresh
memory manager).
"""

from __future__ import annotations

from typing import Any

from ..core.classes import GemClass
from ..core.history import MISSING
from ..core.objects import GemObject
from ..core.values import Char, Ref, Symbol
from ..errors import OpalRuntimeError


def _engine(om):
    engine = getattr(om, "opal_runtime", None)
    if engine is None:
        raise OpalRuntimeError("no OPAL engine attached to this store")
    return engine


def _check_number(value: Any, what: str = "argument") -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OpalRuntimeError(f"{what} must be a number, got {value!r}")
    return value


def _call(om, block, *args):
    selector = "value" if not args else "value:" * len(args)
    return _engine(om).send(block, selector, *args)


def print_string(om, value: Any, depth: int = 0) -> str:
    """Smalltalk-style display of any value."""
    if value is None:
        return "nil"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, Symbol):
        return f"#{str.__str__(value)}"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, Char):
        return f"${value.char}"
    if isinstance(value, tuple):
        inner = " ".join(print_string(om, v, depth + 1) for v in value)
        return f"#({inner})"
    if isinstance(value, Ref):
        value = om.deref(value)
    if isinstance(value, GemClass):
        return value.name
    if isinstance(value, GemObject):
        cls = om.class_of(value)
        if depth >= 2:
            return _article(cls.name)
        live = list(value.items_at(None))
        if not live or len(live) > 8:
            return _article(cls.name)
        body = ", ".join(
            f"{name}: {print_string(om, om.deref(v), depth + 1)}"
            for name, v in live
        )
        return f"{_article(cls.name)}({body})"
    return repr(value)


def _article(name: str) -> str:
    return ("an " if name[:1] in "AEIOU" else "a ") + name


# --------------------------------------------------------------------------
# collection helpers (GSDM objects as collections)
# --------------------------------------------------------------------------

def members(om, collection: GemObject) -> list:
    """Live, dereferenced members of a collection object."""
    return om.members_of(collection)


def collection_add(om, collection: GemObject, value: Any) -> Any:
    """Bind *value* under a fresh alias."""
    om.bind(collection, om.new_alias(), value)
    return value


def collection_remove(om, collection: GemObject, value: Any) -> Any:
    """Record departure: bind the member's alias to nil (history kept)."""
    from ..stdm.calculus import value_equal

    for name, element in om.live_items_of(collection):
        if value_equal(om.deref(element), value) or value_equal(element, value):
            om.unbind(collection, name)
            return value
    raise OpalRuntimeError("value not found in collection")


def collection_includes(om, collection: GemObject, value: Any) -> bool:
    from ..stdm.calculus import value_equal

    return any(
        value_equal(om.deref(element), value) or value_equal(element, value)
        for _, element in om.live_items_of(collection)
    )


def _new_like(om, collection: GemObject) -> GemObject:
    """A fresh (transient) collection of the receiver's class."""
    return om.instantiate_transient(om.class_of(collection))


# --------------------------------------------------------------------------
# installation
# --------------------------------------------------------------------------

def install_kernel(om) -> None:
    """Seed primitive methods onto the bootstrap classes (idempotent)."""
    object_class = om.class_named("Object")
    if "yourself" in object_class.methods:
        return
    _install_object(om, object_class)
    _install_class_side(om, object_class, om.class_named("Class"))
    _install_boolean(om)
    _install_nil(om)
    _install_magnitude(om)
    _install_numbers(om)
    _install_strings(om)
    _install_characters(om)
    _install_collections(om)
    _install_arrays(om)
    _install_dictionaries(om)
    _install_associations(om)


def _install_object(om, object_class: GemClass) -> None:
    from ..stdm.calculus import value_equal

    d = object_class.define_primitive
    d("yourself", lambda om, r: r)
    d("class", lambda om, r: om.class_of(r))
    d("isNil", lambda om, r: r is None)
    d("notNil", lambda om, r: r is not None)
    d("==", lambda om, r, o: value_equal(r, o))
    d("~~", lambda om, r, o: not value_equal(r, o))
    d("=", lambda om, r, o: value_equal(r, o))
    d("~=", lambda om, r, o: not om.send(r, "=", o))
    d("printString", lambda om, r: print_string(om, r))
    d("isKindOf:", lambda om, r, c: om.class_of(r).is_subclass_of(om, c))
    d("isMemberOf:", lambda om, r, c: om.class_of(r) is c)
    d("respondsTo:", lambda om, r, s: om.responds_to(r, str(s)))
    d("error:", _prim_error)
    d("->", lambda om, r, o: _make_association(om, r, o))
    d("ifNil:", lambda om, r, b: r)  # non-nil receiver: answer self
    d("ifNotNil:", lambda om, r, b: _call(om, b, r))
    d("ifNil:ifNotNil:", lambda om, r, nb, b: _call(om, b, r))
    d("ifNotNil:ifNil:", lambda om, r, b, nb: _call(om, b, r))
    d("perform:", lambda om, r, s: _engine(om).send(r, str(s)))
    d("perform:with:", lambda om, r, s, a: _engine(om).send(r, str(s), a))
    d(
        "perform:with:with:",
        lambda om, r, s, a, b: _engine(om).send(r, str(s), a, b),
    )
    d("copy", _prim_copy)
    # GSDM element access: every object is a labeled set
    d("at:", _prim_element_at)
    d("at:put:", _prim_element_at_put)
    d("at:ifAbsent:", _prim_element_at_if_absent)
    d("removeKey:", _prim_remove_key)
    d("elementNames", _prim_element_names)
    d("historyOf:", _prim_history_of)
    d("instVarAt:", _prim_element_at)


def _prim_error(om, receiver, message):
    raise OpalRuntimeError(f"error: {message}")


def _prim_copy(om, receiver):
    """Shallow copy: a new identity with the current element values.

    Immediates copy to themselves (value identity); structured objects
    get a fresh oid whose elements share components with the original —
    structurally equivalent, not identical (section 4.2).
    """
    value = om.deref(receiver) if isinstance(receiver, Ref) else receiver
    if not isinstance(value, GemObject):
        return receiver
    twin = om.instantiate_transient(om.class_of(value))
    for name, element in om.live_items_of(value):
        om.bind(twin, name, element)
    return twin


def _make_association(om, key, value):
    return om.instantiate_transient("Association", key=key, value=value)


def _require_object(om, receiver, selector: str) -> GemObject:
    value = om.deref(receiver) if isinstance(receiver, Ref) else receiver
    if not isinstance(value, GemObject):
        raise OpalRuntimeError(f"#{selector} needs a structured object receiver")
    return value


def _prim_element_at(om, receiver, name):
    obj = _require_object(om, receiver, "at:")
    value = om.value_at(obj, name)
    if value is MISSING:
        raise OpalRuntimeError(f"no element named {name!r}")
    return om.deref(value)


def _prim_element_at_if_absent(om, receiver, name, absent_block):
    obj = _require_object(om, receiver, "at:ifAbsent:")
    value = om.value_at(obj, name)
    if value is MISSING:
        return _call(om, absent_block)
    return om.deref(value)


def _prim_element_at_put(om, receiver, name, value):
    obj = _require_object(om, receiver, "at:put:")
    om.bind(obj, name, value)
    return value


def _prim_remove_key(om, receiver, name):
    obj = _require_object(om, receiver, "removeKey:")
    if om.value_at(obj, name) is MISSING:
        raise OpalRuntimeError(f"no element named {name!r}")
    om.unbind(obj, name)
    return name


def _prim_element_names(om, receiver):
    obj = _require_object(om, receiver, "elementNames")
    return tuple(om.live_names_of(obj))


def _prim_history_of(om, receiver, name):
    obj = _require_object(om, receiver, "historyOf:")
    om.note_read(obj.oid, name)
    table = obj.elements.get(name)
    if table is None:
        return ()
    return tuple((time, om.deref(value)) for time, value in table.history())


def _install_class_side(om, object_class: GemClass, class_class: GemClass) -> None:
    d = object_class.define_class_primitive
    d("new", lambda om, cls: om.instantiate(cls))
    d("name", lambda om, cls: cls.name)
    d("comment:", lambda om, cls, text: om.bind(cls, "comment", text))
    d("superclass", lambda om, cls: cls.superclass(om))
    d("subclass:instVarNames:", _prim_subclass)
    d(
        "subclass:instVarNames:constraints:isInvariant:",
        lambda om, cls, name, ivs, _c, _i: _prim_subclass(om, cls, name, ivs),
    )
    d("compile:", _prim_compile)
    d("classCompile:", _prim_class_compile)
    d("selectors", lambda om, cls: tuple(sorted(cls.selectors(om))))
    d("instVarNames", lambda om, cls: tuple(cls.all_instvar_names(om)))
    d("addInstVarName:", _prim_add_instvar)
    d("allInstances", _prim_all_instances)


def _prim_subclass(om, superclass, name, instvar_names):
    names = tuple(str(n) for n in instvar_names)
    cls = om.define_class(str(name), superclass, names)
    return cls


def _prim_add_instvar(om, cls, name):
    """Schema modification without restructuring (design goal C).

    Existing instances gain the new optional variable at zero storage
    cost; the change is image-wide (like method compilation) and the
    class record is re-persisted with the committing transaction.
    """
    text = str(name)
    targets = [cls]
    base_store = getattr(om, "store", None)
    if base_store is not None and base_store.contains(cls.oid):
        canonical = base_store.object(cls.oid)
        if canonical is not cls:
            targets.append(canonical)
    for target in targets:
        target.add_instvar(text)
    # touching an element puts the class in the write set, so the new
    # structural definition is encoded and persisted at commit
    om.bind(cls, "schemaVersion", len(targets[-1].instvar_names))
    return cls


def _prim_all_instances(om, cls):
    """DBA scan: every instance (subclasses included), as a literal array.

    Covers committed objects and, in a session, its uncommitted
    creations; archived objects are skipped (they are off-line).
    """
    found: dict[int, Any] = {}
    base = getattr(om, "store", om)
    if hasattr(base, "instances_of"):
        for obj in base.instances_of(cls):
            found[obj.oid] = om.object(obj.oid)  # session view, if any
    workspace = getattr(om, "workspace", None)
    if workspace is not None:
        for obj in workspace.values():
            if obj.oid not in found and om.class_of(obj).is_subclass_of(om, cls):
                found[obj.oid] = obj
    return tuple(found[oid] for oid in sorted(found))


def _prim_compile(om, cls, source):
    return _engine(om).compile_method_into(cls, source)


def _prim_class_compile(om, cls, source):
    return _engine(om).compile_class_method_into(cls, source)


def _install_boolean(om) -> None:
    d = om.class_named("Boolean").define_primitive

    def check(value):
        if value is not True and value is not False:
            raise OpalRuntimeError("Boolean primitive on a non-boolean")
        return value

    d("not", lambda om, r: not check(r))
    d("&", lambda om, r, o: check(r) and check(o))
    d("|", lambda om, r, o: check(r) or check(o))
    d("xor:", lambda om, r, o: check(r) != check(o))
    d("and:", lambda om, r, b: _call(om, b) if check(r) else False)
    d("or:", lambda om, r, b: True if check(r) else _call(om, b))
    d("ifTrue:", lambda om, r, b: _call(om, b) if check(r) else None)
    d("ifFalse:", lambda om, r, b: None if check(r) else _call(om, b))
    d(
        "ifTrue:ifFalse:",
        lambda om, r, t, f: _call(om, t) if check(r) else _call(om, f),
    )
    d(
        "ifFalse:ifTrue:",
        lambda om, r, f, t: _call(om, t) if check(r) else _call(om, f),
    )


def _install_nil(om) -> None:
    d = om.class_named("UndefinedObject").define_primitive
    d("isNil", lambda om, r: True)
    d("notNil", lambda om, r: False)
    d("ifNil:", lambda om, r, b: _call(om, b))
    d("ifNotNil:", lambda om, r, b: None)
    d("ifNil:ifNotNil:", lambda om, r, nb, b: _call(om, nb))
    d("ifNotNil:ifNil:", lambda om, r, b, nb: _call(om, nb))
    d("printString", lambda om, r: "nil")


def _install_magnitude(om) -> None:
    d = om.class_named("Magnitude").define_primitive
    d("min:", lambda om, r, o: r if om.send(r, "<", o) else o)
    d("max:", lambda om, r, o: o if om.send(r, "<", o) else r)
    d(
        "between:and:",
        lambda om, r, lo, hi: (not om.send(r, "<", lo)) and (
            not om.send(hi, "<", r)
        ),
    )


def _install_numbers(om) -> None:
    d = om.class_named("Number").define_primitive
    num = _check_number
    d("+", lambda om, r, o: num(r) + num(o))
    d("-", lambda om, r, o: num(r) - num(o))
    d("*", lambda om, r, o: num(r) * num(o))
    d("/", _prim_divide)
    d("//", lambda om, r, o: num(r) // _nonzero(num(o)))
    d("\\\\", lambda om, r, o: num(r) % _nonzero(num(o)))
    d("rem:", lambda om, r, o: _smalltalk_rem(num(r), _nonzero(num(o))))
    d("<", lambda om, r, o: num(r) < num(o))
    d("<=", lambda om, r, o: num(r) <= num(o))
    d(">", lambda om, r, o: num(r) > num(o))
    d(">=", lambda om, r, o: num(r) >= num(o))
    d("=", lambda om, r, o: isinstance(o, (int, float))
      and not isinstance(o, bool) and r == o)
    d("abs", lambda om, r: abs(num(r)))
    d("negated", lambda om, r: -num(r))
    d("squared", lambda om, r: num(r) ** 2)
    d("sqrt", lambda om, r: num(r) ** 0.5)
    d("isZero", lambda om, r: num(r) == 0)
    d("asFloat", lambda om, r: float(num(r)))
    d("asInteger", lambda om, r: int(num(r)))
    d("truncated", lambda om, r: int(num(r)))
    d("rounded", lambda om, r: round(num(r)))
    d("even", lambda om, r: int(num(r)) % 2 == 0)
    d("odd", lambda om, r: int(num(r)) % 2 == 1)
    d("to:do:", _prim_to_do)
    d("to:by:do:", _prim_to_by_do)
    d("timesRepeat:", _prim_times_repeat)
    d("max:", lambda om, r, o: max(num(r), num(o)))
    d("min:", lambda om, r, o: min(num(r), num(o)))
    d("gcd:", lambda om, r, o: _gcd(int(num(r)), int(num(o))))


def _nonzero(value):
    if value == 0:
        raise OpalRuntimeError("division by zero")
    return value


def _prim_divide(om, receiver, divisor):
    _check_number(receiver)
    _nonzero(_check_number(divisor))
    if isinstance(receiver, int) and isinstance(divisor, int) and (
        receiver % divisor == 0
    ):
        return receiver // divisor
    return receiver / divisor


def _smalltalk_rem(a, b):
    result = abs(a) % abs(b)
    return -result if a < 0 else result


def _gcd(a, b):
    import math

    return math.gcd(a, b)


def _prim_to_do(om, start, stop, block):
    _check_number(start)
    _check_number(stop)
    index = start
    while index <= stop:
        _call(om, block, index)
        index += 1
    return start


def _prim_to_by_do(om, start, stop, step, block):
    _check_number(step)
    if step == 0:
        raise OpalRuntimeError("to:by:do: with zero step")
    index = start
    if step > 0:
        while index <= stop:
            _call(om, block, index)
            index += step
    else:
        while index >= stop:
            _call(om, block, index)
            index += step
    return start


def _prim_times_repeat(om, count, block):
    for _ in range(int(count)):
        _call(om, block)
    return count


def _install_strings(om) -> None:
    d = om.class_named("String").define_primitive

    def text(value):
        if not isinstance(value, str):
            raise OpalRuntimeError(f"expected a string, got {value!r}")
        return value

    d("size", lambda om, r: len(text(r)))
    d("isEmpty", lambda om, r: len(text(r)) == 0)
    d("notEmpty", lambda om, r: len(text(r)) != 0)
    d(",", lambda om, r, o: text(r) + text(o))
    d("at:", lambda om, r, i: Char(text(r)[_string_index(r, i)]))
    d("<", lambda om, r, o: text(r) < text(o))
    d("<=", lambda om, r, o: text(r) <= text(o))
    d(">", lambda om, r, o: text(r) > text(o))
    d(">=", lambda om, r, o: text(r) >= text(o))
    d("=", lambda om, r, o: isinstance(o, str) and str(r) == str(o))
    d("asSymbol", lambda om, r: Symbol(str(r)))
    d("asString", lambda om, r: str(r))
    d("asUppercase", lambda om, r: text(r).upper())
    d("asLowercase", lambda om, r: text(r).lower())
    d("includesString:", lambda om, r, o: text(o) in text(r))
    d("startsWith:", lambda om, r, o: text(r).startswith(text(o)))
    d("indexOf:", lambda om, r, c: _string_index_of(text(r), c))
    d("copyFrom:to:", lambda om, r, a, b: text(r)[a - 1 : b])
    d("reversed", lambda om, r: text(r)[::-1])
    d("asNumber", _prim_as_number)

    om.class_named("Symbol").define_primitive(
        "printString", lambda om, r: f"#{str.__str__(r)}"
    )
    om.class_named("Symbol").define_primitive("asString", lambda om, r: str(r))


def _string_index(value: str, index) -> int:
    if not 1 <= index <= len(value):
        raise OpalRuntimeError(f"string index {index} out of 1..{len(value)}")
    return index - 1


def _string_index_of(value: str, char) -> int:
    wanted = char.char if isinstance(char, Char) else str(char)
    position = value.find(wanted)
    return position + 1


def _prim_as_number(om, receiver):
    try:
        return int(receiver)
    except ValueError:
        try:
            return float(receiver)
        except ValueError as error:
            raise OpalRuntimeError(f"{receiver!r} is not a number") from error


def _install_characters(om) -> None:
    d = om.class_named("Character").define_primitive
    d("asInteger", lambda om, r: r.codepoint)
    d("value", lambda om, r: r.codepoint)
    d("asString", lambda om, r: r.char)
    d("<", lambda om, r, o: r < o)
    d("=", lambda om, r, o: isinstance(o, Char) and r == o)
    d("isVowel", lambda om, r: r.char.lower() in "aeiou")


def _install_collections(om) -> None:
    collection = om.class_named("Collection")
    d = collection.define_primitive
    d("add:", lambda om, r, v: collection_add(om, _require_object(om, r, "add:"), v))
    d("remove:", lambda om, r, v: collection_remove(
        om, _require_object(om, r, "remove:"), v))
    d("includes:", lambda om, r, v: collection_includes(
        om, _require_object(om, r, "includes:"), v))
    d("size", lambda om, r: om.live_count_of(_require_object(om, r, "size")))
    d("isEmpty", lambda om, r: om.live_count_of(_require_object(om, r, "isEmpty")) == 0)
    d("notEmpty", lambda om, r: om.live_count_of(_require_object(om, r, "notEmpty")) != 0)
    d("do:", _prim_do)
    d("collect:", _prim_collect)
    d("select:", _prim_select)
    d("reject:", _prim_reject)
    d("detect:", _prim_detect)
    d("detect:ifNone:", _prim_detect_if_none)
    d("inject:into:", _prim_inject)
    d("anySatisfy:", _prim_any)
    d("allSatisfy:", _prim_all)
    d("addAll:", _prim_add_all)
    d("asBag", lambda om, r: _copy_into(om, r, "Bag"))
    d("asSet", _prim_as_set)
    d("members", lambda om, r: tuple(members(om, _require_object(om, r, "members"))))
    d("occurrencesOf:", _prim_occurrences)
    d("sum", _prim_sum)
    d("average", _prim_average)
    d("maxValue", lambda om, r: _prim_extreme(om, r, max))
    d("minValue", lambda om, r: _prim_extreme(om, r, min))
    d("asSortedArray", _prim_sorted_default)
    d("asSortedArray:", _prim_sorted_by)
    d("count:", _prim_count)

    set_class = om.class_named("Set")
    set_class.define_primitive("add:", _prim_set_add)


def _prim_do(om, receiver, block):
    for member in members(om, _require_object(om, receiver, "do:")):
        _call(om, block, member)
    return receiver


def _prim_collect(om, receiver, block):
    result = om.instantiate_transient("Bag")
    obj = _require_object(om, receiver, "collect:")
    om.add_members(result, [_call(om, block, m) for m in members(om, obj)])
    return result


def _prim_select(om, receiver, block):
    """select: — declarative when the block translates to calculus.

    Section 5.4: "our realization of set calculus is particularly
    powerful, as it can include procedural parts, and can be included in
    procedural methods."  The declarative recognizer hands translatable
    blocks to the algebra/optimizer; anything else runs procedurally.
    """
    from .declarative import try_declarative_filter

    obj = _require_object(om, receiver, "select:")
    chosen = try_declarative_filter(om, obj, block, negate=False)
    if chosen is None:
        chosen = [
            m for m in members(om, obj)
            if _truthy(_call(om, block, m))
        ]
    result = _new_like(om, obj)
    om.add_members(result, chosen)
    return result


def _prim_reject(om, receiver, block):
    from .declarative import try_declarative_filter

    obj = _require_object(om, receiver, "reject:")
    chosen = try_declarative_filter(om, obj, block, negate=True)
    if chosen is None:
        chosen = [
            m for m in members(om, obj)
            if not _truthy(_call(om, block, m))
        ]
    result = _new_like(om, obj)
    om.add_members(result, chosen)
    return result


def _truthy(value):
    if value is not True and value is not False:
        raise OpalRuntimeError("select:/reject: block must answer a Boolean")
    return value


def _prim_detect(om, receiver, block):
    for member in members(om, _require_object(om, receiver, "detect:")):
        if _truthy(_call(om, block, member)):
            return member
    raise OpalRuntimeError("detect: found no matching member")


def _prim_detect_if_none(om, receiver, block, none_block):
    for member in members(om, _require_object(om, receiver, "detect:")):
        if _truthy(_call(om, block, member)):
            return member
    return _call(om, none_block)


def _prim_inject(om, receiver, initial, block):
    accumulator = initial
    for member in members(om, _require_object(om, receiver, "inject:into:")):
        accumulator = _call(om, block, accumulator, member)
    return accumulator


def _prim_any(om, receiver, block):
    return any(
        _truthy(_call(om, block, m))
        for m in members(om, _require_object(om, receiver, "anySatisfy:"))
    )


def _prim_all(om, receiver, block):
    return all(
        _truthy(_call(om, block, m))
        for m in members(om, _require_object(om, receiver, "allSatisfy:"))
    )


def _prim_add_all(om, receiver, other):
    obj = _require_object(om, receiver, "addAll:")
    if isinstance(other, tuple):
        source = other
    else:
        source = members(om, _require_object(om, other, "addAll:"))
    for member in source:
        om.send(obj, "add:", member)
    return other


def _copy_into(om, receiver, class_name):
    result = om.instantiate_transient(class_name)
    om.add_members(result, members(om, _require_object(om, receiver, "copy")))
    return result


def _prim_as_set(om, receiver):
    result = om.instantiate_transient("Set")
    for member in members(om, _require_object(om, receiver, "asSet")):
        om.send(result, "add:", member)
    return result


def _prim_occurrences(om, receiver, value):
    from ..stdm.calculus import value_equal

    return sum(
        1
        for m in members(om, _require_object(om, receiver, "occurrencesOf:"))
        if value_equal(m, value)
    )


def _numeric_members(om, receiver, what):
    values = []
    for member in members(om, _require_object(om, receiver, what)):
        values.append(_check_number(member, f"{what} member"))
    return values


def _prim_sum(om, receiver):
    return sum(_numeric_members(om, receiver, "sum"))


def _prim_average(om, receiver):
    values = _numeric_members(om, receiver, "average")
    if not values:
        raise OpalRuntimeError("average of an empty collection")
    return sum(values) / len(values)


def _prim_extreme(om, receiver, chooser):
    values = _numeric_members(om, receiver, "maxValue/minValue")
    if not values:
        raise OpalRuntimeError("extreme of an empty collection")
    return chooser(values)


def _prim_sorted_default(om, receiver):
    """Members as a literal array, ascending by the natural `<`."""
    values = list(members(om, _require_object(om, receiver, "asSortedArray")))
    engine = _engine(om)
    import functools

    def compare(a, b):
        if engine.send(a, "<", b) is True:
            return -1
        if engine.send(b, "<", a) is True:
            return 1
        return 0

    return tuple(sorted(values, key=functools.cmp_to_key(compare)))


def _prim_sorted_by(om, receiver, sort_block):
    """Members sorted by a two-argument sort block (a <= b ordering)."""
    values = list(members(om, _require_object(om, receiver, "asSortedArray:")))
    engine = _engine(om)
    import functools

    def compare(a, b):
        ordered = engine.send(sort_block, "value:value:", a, b)
        if ordered is True:
            return -1
        reverse = engine.send(sort_block, "value:value:", b, a)
        return 1 if reverse is True else 0

    return tuple(sorted(values, key=functools.cmp_to_key(compare)))


def _prim_count(om, receiver, block):
    return sum(
        1
        for member in members(om, _require_object(om, receiver, "count:"))
        if _truthy(_call(om, block, member))
    )


def _prim_set_add(om, receiver, value):
    obj = _require_object(om, receiver, "add:")
    if collection_includes(om, obj, value):
        return value
    return collection_add(om, obj, value)


def _install_arrays(om) -> None:
    array = om.class_named("Array")
    array.define_class_primitive("new:", _prim_array_new)
    d = array.define_primitive
    d("size", _prim_array_size)
    d("at:", _prim_array_at)
    d("at:put:", _prim_array_at_put)
    d("do:", _prim_array_do)
    d("first", lambda om, r: _prim_array_at(om, r, 1))
    d("last", lambda om, r: _prim_array_at(om, r, _prim_array_size(om, r)))
    d("isEmpty", lambda om, r: _prim_array_size(om, r) == 0)
    d("grow:", _prim_array_grow)


def _prim_array_new(om, cls, size):
    if size < 0:
        raise OpalRuntimeError("array size must be non-negative")
    return om.instantiate(cls, **{"size": size})


def _array_size(om, receiver) -> int:
    obj = _require_object(om, receiver, "size")
    size = om.value_at(obj, "size")
    if size is MISSING:
        raise OpalRuntimeError("not an Array (no size element)")
    return size


def _prim_array_size(om, receiver):
    return _array_size(om, receiver)


def _prim_array_at(om, receiver, index):
    size = _array_size(om, receiver)
    if not 1 <= index <= size:
        raise OpalRuntimeError(f"array index {index} out of 1..{size}")
    value = om.value_at(_require_object(om, receiver, "at:"), index)
    return None if value is MISSING else om.deref(value)


def _prim_array_at_put(om, receiver, index, value):
    size = _array_size(om, receiver)
    if not 1 <= index <= size:
        raise OpalRuntimeError(f"array index {index} out of 1..{size}")
    om.bind(_require_object(om, receiver, "at:put:"), index, value)
    return value


def _prim_array_do(om, receiver, block):
    size = _array_size(om, receiver)
    obj = _require_object(om, receiver, "do:")
    for index in range(1, size + 1):
        value = om.value_at(obj, index)
        _call(om, block, None if value is MISSING else om.deref(value))
    return receiver


def _prim_array_grow(om, receiver, new_size):
    """ST80 arrays 'grow' to accommodate more values (section 4.1)."""
    size = _array_size(om, receiver)
    if new_size < size:
        raise OpalRuntimeError("grow: cannot shrink an array")
    om.bind(_require_object(om, receiver, "grow:"), "size", new_size)
    return receiver


def _install_dictionaries(om) -> None:
    d = om.class_named("Dictionary").define_primitive
    d("keys", lambda om, r: tuple(
        om.live_names_of(_require_object(om, r, "keys"))))
    d("includesKey:", lambda om, r, k: om.value_at(
        _require_object(om, r, "includesKey:"), k) not in (MISSING, None))
    d("keysAndValuesDo:", _prim_keys_values_do)
    d("values", lambda om, r: tuple(
        om.deref(v) for _, v in om.live_items_of(
            _require_object(om, r, "values"))))
    d("size", lambda om, r: om.live_count_of(_require_object(om, r, "size")))


def _prim_keys_values_do(om, receiver, block):
    for name, value in om.live_items_of(_require_object(om, receiver, "do:")):
        _call(om, block, name, om.deref(value))
    return receiver


def _install_associations(om) -> None:
    d = om.class_named("Association").define_primitive
    d("key", lambda om, r: _prim_element_at(om, r, "key"))
    d("value", lambda om, r: _prim_element_at(om, r, "value"))
