"""Count the lines of each src/demflow module as code, docstring, comment or
blank, and print the totals.

A docstring line is any line of a module, class or function docstring, the
blank lines inside it included (found with ast). Outside docstrings, a code
line holds at least one token other than a comment (found with tokenize), a
comment line holds only a comment, and a blank line holds nothing. Every
line is counted once, so the four counts add up to the file's length.

Run from anywhere: python tools/src_lines.py [package directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> dict:
    """The number of lines of each kind in one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    comment -= doc | code
    n = len(source.splitlines())
    return {"code": len(code), "docstring": len(doc), "comment": len(comment),
            "blank": n - len(code) - len(doc) - len(comment)}


def main() -> None:
    root = (Path(sys.argv[1]) if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent / "src" / "demflow")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS))
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in KINDS)
          + f"   ({sum(total.values())} lines)")


if __name__ == "__main__":
    main()
