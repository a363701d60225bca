"""The README's code runs as written and says what it computes."""

import shlex
from pathlib import Path

from epikit.cli import main

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


def command_lines() -> list[str]:
    """The ``epikit`` lines of the command-line block, continuations
    joined."""
    text = README.read_text()
    section = text[text.index("## Command line"):]
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start:section.index("```", start)]
    return block.replace("\\\n", " ").splitlines()


def test_command_line_block_exit_codes(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # two lines write files
    codes = []
    for line in command_lines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "epikit"
        codes.append(main(argv[1:]))
        assert capsys.readouterr().err == "", line
    # the two unsolvable checks exit 2
    assert codes == [0, 0, 0, 0, 0, 2, 0, 2, 0]
    assert (tmp_path / "cert.json").exists()
    assert (tmp_path / "ring.dot").exists()
