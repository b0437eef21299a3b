"""Unit tests: OPAL printString machinery and the disassembler."""

import pytest

from repro.core import Char, MemoryObjectManager, Ref, Symbol
from repro.opal import OpalEngine, disassemble
from repro.opal.kernel import print_string


@pytest.fixture
def om():
    om = MemoryObjectManager()
    OpalEngine(om)
    return om


class TestPrintString:
    @pytest.mark.parametrize(
        "value, text",
        [
            (None, "nil"),
            (True, "true"),
            (False, "false"),
            (42, "42"),
            (3.5, "3.5"),
            ("hi", "'hi'"),
            ("it's", "'it''s'"),
            (Symbol("sel"), "#sel"),
            (Char("x"), "$x"),
            ((1, "a"), "#(1 'a')"),
        ],
    )
    def test_immediates(self, om, value, text):
        assert print_string(om, value) == text

    def test_class_prints_its_name(self, om):
        assert print_string(om, om.class_named("Integer")) == "Integer"

    def test_small_object_shows_elements(self, om):
        obj = om.instantiate("Object", name="Ellen")
        assert print_string(om, obj) == "an Object(name: 'Ellen')"

    def test_big_object_elides(self, om):
        obj = om.instantiate("Object")
        for index in range(12):
            om.bind(obj, f"e{index}", index)
        assert print_string(om, obj) == "an Object"

    def test_depth_capped(self, om):
        a = om.instantiate("Object")
        b = om.instantiate("Object", inner=a)
        c = om.instantiate("Object", inner=b)
        om.bind(a, "inner", c)  # a cycle!
        text = print_string(om, c)
        assert "an Object" in text  # terminates despite the cycle

    def test_vowel_article(self, om):
        om.define_class("Employee", "Object")
        assert print_string(om, om.instantiate("Employee")) == "an Employee"
        om.define_class("Gate", "Object")
        assert print_string(om, om.instantiate("Gate")) == "a Gate"

    def test_refs_dereferenced(self, om):
        obj = om.instantiate("Object", name="x")
        assert print_string(om, Ref(obj.oid)) == "an Object(name: 'x')"


class TestDisassembler:
    def test_listing_shows_literals(self):
        from repro.opal import Compiler

        method = Compiler().compile_source("3 + 4")
        listing = disassemble(method.code, method.literals)
        assert "PUSH_CONST" in listing
        assert "; 3" in listing
        assert "SEND" in listing
