"""Line counts of each module of a package: its `wc -l` lines, its
docstring lines and its code-only lines, those neither blank, nor
comment-only, nor part of a docstring. Docstrings are found with ast
(the first statement of the module, a class or a function, when it is a
string) and code with tokenize; standard library only.

    python3 tools/loc.py [package_dir]      # default: src/equilines
"""

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings in tree span."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def counts(path):
    """(wc -l lines, docstring lines, code-only lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(docs), len(code - docs)


def main(argv):
    package = Path(argv[0] if argv else Path(__file__).parent.parent / "src" / "equilines")
    rows = [(path.name, *counts(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    print(f"{'module':<16} {'wc -l':>6} {'docstring':>10} {'code':>6}")
    for name, lines, docs, code in rows:
        print(f"{name:<16} {lines:>6} {docs:>10} {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
