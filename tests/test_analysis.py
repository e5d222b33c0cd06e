"""Table rendering."""

from repro.analysis import format_table


class TestTables:
    def test_renders_aligned(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.0], ["beta", 12345.6]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1]
        assert "12,346" in text

    def test_float_formatting(self):
        text = format_table(["v"], [[0.123456], [42.0], [0]])
        assert "0.123" in text
