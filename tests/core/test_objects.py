"""Unit tests for GemObject (repro.core.objects)."""

import pytest

from repro.core import MISSING, GemObject, Ref
from repro.errors import ElementNotFound


def make(oid=100, class_oid=1):
    return GemObject(oid=oid, class_oid=class_oid)


class TestBinding:
    def test_bind_and_read(self):
        obj = make()
        obj.bind("name", "Ellen", time=1)
        assert obj.value("name") == "Ellen"

    def test_unbound_element_is_missing(self):
        obj = make()
        assert obj.value_at("salary") is MISSING

    def test_value_raises_when_missing(self):
        obj = make()
        with pytest.raises(ElementNotFound):
            obj.value("salary")

    def test_optional_elements_cost_nothing(self):
        """Instances omit optional variables without any placeholder."""
        obj = make()
        obj.bind("name", "Ellen", time=1)
        assert len(obj.elements) == 1

    def test_new_elements_addable_to_existing_instances(self):
        obj = make()
        obj.bind("name", "Ellen", time=1)
        obj.bind("phones", Ref(42), time=5)
        assert obj.value("phones") == Ref(42)
        assert obj.value_at("phones", 4) is MISSING

    def test_integer_element_names(self):
        """Arrays are sets with numbers as element names (section 5.2)."""
        obj = make()
        obj.bind(1, "Anders", time=1)
        obj.bind(2, "Roberts", time=1)
        assert obj.value(1) == "Anders"
        assert obj.value(2) == "Roberts"

    def test_element_name_type_checked(self):
        obj = make()
        with pytest.raises(TypeError):
            obj.bind(object(), "x", time=1)
        with pytest.raises(TypeError):
            obj.bind(True, "x", time=1)

    def test_element_value_type_checked(self):
        obj = make()
        with pytest.raises(TypeError):
            obj.bind("x", object(), time=1)

    def test_unbind_records_nil(self):
        obj = make()
        obj.bind("car", Ref(7), time=3)
        obj.unbind("car", time=9)
        assert obj.value("car") is None
        assert obj.value_at("car", 8) == Ref(7)


class TestLiveness:
    def test_is_live_false_for_nil_binding(self):
        obj = make()
        obj.bind("x", None, time=1)
        assert obj.has_element("x")
        assert not obj.is_live("x")

    def test_live_names_excludes_departed(self):
        obj = make()
        obj.bind("a", 1, time=1)
        obj.bind("b", 2, time=1)
        obj.unbind("a", time=5)
        assert obj.live_names() == ["b"]
        assert obj.live_names(4) == ["a", "b"]

    def test_items_at_time(self):
        obj = make()
        obj.bind("a", 1, time=1)
        obj.bind("a", 10, time=5)
        assert dict(obj.items_at(3)) == {"a": 1}
        assert dict(obj.items_at()) == {"a": 10}


class TestIdentityAndEquivalence:
    def test_identity_is_the_oid(self):
        a = make(oid=1)
        b = make(oid=2)
        a.bind("x", 1, time=1)
        b.bind("x", 1, time=1)
        # structurally equivalent, but distinct entities
        assert a.equivalent_to(b)
        assert a.oid != b.oid

    def test_equivalence_respects_time(self):
        a = make(oid=1)
        b = make(oid=2)
        a.bind("x", 1, time=1)
        b.bind("x", 1, time=1)
        a.bind("x", 2, time=5)
        assert not a.equivalent_to(b)
        assert a.equivalent_to(b, time=3)

    def test_ref_property(self):
        obj = make(oid=77)
        assert obj.ref == Ref(77)


class TestReferences:
    def test_referenced_oids_current_state(self):
        obj = make()
        obj.bind("dept", Ref(5), time=1)
        obj.bind("dept", Ref(9), time=4)
        assert obj.referenced_oids() == {9}
        assert obj.referenced_oids(2) == {5}

    def test_all_referenced_oids_spans_history(self):
        obj = make()
        obj.bind("dept", Ref(5), time=1)
        obj.bind("dept", Ref(9), time=4)
        assert obj.all_referenced_oids() == {5, 9}

    def test_history_of(self):
        obj = make()
        obj.bind("salary", 10, time=1)
        obj.bind("salary", 20, time=3)
        assert list(obj.history_of("salary")) == [(1, 10), (3, 20)]
        with pytest.raises(ElementNotFound):
            obj.history_of("nope")


class TestMaintenance:
    def test_last_modified(self):
        obj = make()
        obj.created_at = 2
        assert obj.last_modified() == 2
        obj.bind("a", 1, time=4)
        obj.bind("b", 1, time=9)
        assert obj.last_modified() == 9

    def test_copy_shell_is_deep(self):
        obj = make()
        obj.bind("a", 1, time=1)
        clone = obj.copy_shell()
        clone.bind("a", 2, time=5)
        assert obj.value("a") == 1
        assert clone.value("a") == 2
        assert clone.oid == obj.oid

    def test_copy_shell_borrows_tables_until_it_writes_them(self):
        obj = make()
        obj.bind("a", 1, time=1)
        obj.bind("b", 1, time=1)
        clone = obj.copy_shell()
        assert clone.elements["a"] is obj.elements["a"]
        clone.bind("a", 2, time=5)
        clone.bind("c", 3, time=5)
        assert clone.elements["a"] is not obj.elements["a"]
        assert clone.elements["b"] is obj.elements["b"]
        assert not obj.has_element("c")
        own = clone.elements["a"]
        clone.bind("a", 3, time=6)
        assert clone.elements["a"] is own  # copied once, not per write

    def test_unshare_table_keeps_the_clone_reading_the_old_state(self):
        obj = make()
        obj.bind("a", 1, time=1)
        clone = obj.copy_shell()
        obj.unshare_table("a")
        obj.bind("a", 2, time=5)
        obj.unshare_table("never bound")  # nothing to copy: a no-op
        obj.bind("d", 4, time=5)
        assert clone.value("a") == 1
        assert not clone.has_element("d")
        assert list(obj.history_of("a")) == [(1, 1), (5, 2)]
