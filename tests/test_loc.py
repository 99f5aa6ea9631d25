import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

# 11 lines: docstrings on lines 1, 7 and 8; code on lines 6, 9 and 11;
# a comment-only line 3 and blank lines 2, 4, 5 and 10
MODULE = '''"""Module docstring."""

# a comment-only line


def f(x):
    """Two-line
    docstring."""
    y = x + 1  # a comment after code

    return y
'''


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_splits_lines_into_docstring_and_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE, encoding="utf-8")
    assert load_loc().counts(path) == (11, 3, 3)


def test_main_total_row_sums_the_columns(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = [\n    2,\n]\n", encoding="utf-8")
    load_loc().main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: tuple(map(int, line.split()[1:])) for line in lines[1:]}
    assert rows == {"a.py": (11, 3, 3), "b.py": (5, 0, 4), "total": (16, 3, 7)}
    assert rows["total"] == tuple(map(sum, zip(rows["a.py"], rows["b.py"])))
