#!/usr/bin/env python3
"""Count the code lines of the plcontrol package: per module and in total,
the lines that hold a token other than a comment, and that are not part of a
module, class or function docstring.  Beside each module's lines it prints
its `tokenize` token count, and flags a module at or over 8 192 tokens:
CPython 3.11's parser grows its token array in steps of powers of two, so a
module past that step costs about 0.4 MB more heap to compile, which a run
that imports from source shows in its peak RSS.

    python3 scripts/count_code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


TOKEN_STEP = 8192


def token_count(source: str) -> int:
    """The tokens `tokenize` reads off the source's bytes, its ENCODING,
    comments and blank lines included."""
    return sum(1 for _ in tokenize.tokenize(io.BytesIO(source.encode()).readline))


def main() -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "plcontrol"
    total = 0
    print(f"{'module':<20} {'lines':>6} {'tokens':>7}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        n, tokens = code_lines(source), token_count(source)
        total += n
        flag = f"  at or over {TOKEN_STEP}" if tokens >= TOKEN_STEP else ""
        print(f"{path.name:<20} {n:>6} {tokens:>7}{flag}")
    print(f"{'total':<20} {total:>6}")


if __name__ == "__main__":
    main()
