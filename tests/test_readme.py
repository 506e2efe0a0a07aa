import ast
import json
import re
from fractions import Fraction
from pathlib import Path

from betachow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_tour() -> str:
    """The README's library-tour code block."""
    section = README.read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_tour_runs_and_shows_its_values():
    # each expression whose trailing comment is a Python value must equal it;
    # comments in prose ("certified-nef with its certificate") are not values
    code = _library_tour()
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        try:
            want = eval(comment, {"Fraction": Fraction})
        except (SyntaxError, NameError):
            continue
        assert value == want, f"README line {stmt.end_lineno}: {value!r} != {comment}"
        checked.append(comment)
    assert checked == ["Fraction(12, 1)", "Fraction(10, 9)", "[(-1, 1), (1, -1), (1, 1)]"]


def test_readme_names_the_keys_of_the_degeneracy_report(tmp_path, capsys):
    paragraph = README.read_text().split("`--degeneracy d`", 1)[1].split("\n\n", 1)[0]
    sentence = paragraph.split("with the keys", 1)[1].split(";", 1)[0]
    named = re.findall(r"`([a-z_]+)`", sentence)
    forms = tmp_path / "g.txt"
    forms.write_text("1\n")
    assert main(["search", "cor12", "--forms", str(forms), "--box", "3", "--degeneracy", "2",
                 "--out", str(tmp_path / "s.txt")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(named) == sorted(report)
