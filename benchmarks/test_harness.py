"""Unit tests: the results tables and timing helpers every experiment prints with."""

import pytest

from harness import Table, ratio, stopwatch


class TestHarnessTable:
    def test_render_aligns_columns(self):
        table = Table("T", ["name", "value"])
        table.add("x", 1)
        table.add("longer-name", 123456)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "longer-name" in text
        assert "123,456" in text

    def test_row_arity_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError, match="row has 1 values for 2 columns"):
            table.add(1)

    def test_notes_rendered(self):
        table = Table("T", ["a"])
        table.add(1)
        table.note("footnote")
        assert "* footnote" in table.render()

    def test_float_formatting(self):
        table = Table("T", ["v"])
        table.add(0.00012)
        table.add(12.345)
        table.add(1234.5)
        text = table.render()
        assert "0.0001" in text
        assert "12.35" in text
        assert "1,234" in text or "1,235" in text

    def test_stopwatch_and_ratio(self):
        timing = stopwatch(lambda: sum(range(100)), repeat=2)
        assert timing.result == 4950
        assert timing.seconds >= 0
        assert ratio(2.0, 1.0) == "2.0x"
        assert ratio(1.0, 0.0) == "∞"
