"""Unit tests for immediate values (repro.core.values)."""

import pytest

from repro.core import Char, Ref, Symbol, is_immediate, is_value
from repro.core.values import check_element_name, check_value


class TestSymbol:
    def test_interning(self):
        assert Symbol("abc") is Symbol("abc")

    def test_equal_to_plain_string(self):
        assert Symbol("abc") == "abc"

    def test_repr_has_hash_prefix(self):
        assert repr(Symbol("abc")) == "#abc"

    def test_generated_symbols_stay_out_of_the_table(self):
        before = len(Symbol._interned)
        made = [Symbol.generated(f"generated{i}") for i in range(500)]
        assert len(Symbol._interned) == before
        assert all(type(s) is Symbol for s in made)
        assert made[7] == "generated7" == Symbol("generated7")
        assert hash(made[7]) == hash("generated7")
        assert {made[7]: 1}["generated7"] == 1 and repr(made[7]) == "#generated7"
        assert Symbol("generated7") is Symbol("generated7") is not made[7]


class TestChar:
    def test_roundtrip(self):
        assert Char("a").char == "a"

    def test_equality_and_hash(self):
        assert Char("a") == Char("a")
        assert hash(Char("a")) == hash(Char("a"))
        assert Char("a") != Char("b")

    def test_ordering(self):
        assert Char("a") < Char("b")

    def test_single_character_required(self):
        with pytest.raises(ValueError):
            Char("ab")

    def test_repr(self):
        assert repr(Char("x")) == "$x"


class TestRef:
    def test_equality_by_oid(self):
        assert Ref(3) == Ref(3)
        assert Ref(3) != Ref(4)

    def test_hashable(self):
        assert len({Ref(1), Ref(1), Ref(2)}) == 2

    def test_not_equal_to_int(self):
        assert Ref(3) != 3


class TestPredicates:
    @pytest.mark.parametrize("v", [1, 1.5, "x", Symbol("x"), Char("x"), True, None])
    def test_immediates(self, v):
        assert is_immediate(v)
        assert is_value(v)

    def test_ref_is_value_not_immediate(self):
        assert not is_immediate(Ref(1))
        assert is_value(Ref(1))

    def test_arbitrary_python_objects_rejected(self):
        assert not is_value(object())
        with pytest.raises(TypeError):
            check_value(object())

    def test_check_value_passes_through(self):
        assert check_value(3) == 3

    @pytest.mark.parametrize("name", ["x", Symbol("x"), 3, Char("x")])
    def test_valid_element_names(self, name):
        assert check_element_name(name) == name

    @pytest.mark.parametrize("name", [True, 1.5, None, object()])
    def test_invalid_element_names(self, name):
        with pytest.raises(TypeError):
            check_element_name(name)
