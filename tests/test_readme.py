"""The README's code runs as written and says what it computes."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_quick_tour_runs_and_its_comment_holds():
    code = quick_tour()
    assert "# 13 facets, 4 vertices per color" in code
    names: dict = {}
    exec(compile(code, str(README), "exec"), names)
    complex_ = names["complex_"]
    assert complex_.facet_count == 13
    colors = [color for color, _ in complex_.vertices]
    assert [colors.count(c) for c in range(3)] == [4, 4, 4]
