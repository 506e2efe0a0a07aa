import ast
from fractions import Fraction
from pathlib import Path

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
