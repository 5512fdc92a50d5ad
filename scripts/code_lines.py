"""Count the code lines of every module of ``src/maglogic``.

A code line holds at least one token other than a comment or a
docstring (the string that opens a module, class or function body):
blank lines, comment lines and docstring lines do not count, and a
statement spread over several lines counts each of them. Run from
anywhere:

    python3 scripts/code_lines.py [--root CHECKOUT]

It prints one line per module, ``<count> <path>`` with the path relative
to ``src/maglogic``, then ``<total> total``. Only the standard library is
used, so it reads any checkout without importing it.
"""

import argparse
import ast
import io
import os
import tokenize

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree) -> set:
    """(line, column) where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = _docstring_starts(ast.parse(source, path))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT and not (
                tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=HERE,
                        help="checkout whose src/maglogic to count "
                             "(default: the one holding this script)")
    package = os.path.join(os.path.abspath(parser.parse_args().root), "src", "maglogic")
    total = 0
    for directory, _, files in sorted(os.walk(package)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(directory, name)
            count = code_lines(path)
            total += count
            print(f"{count} {os.path.relpath(path, package)}")
    print(f"{total} total")


if __name__ == "__main__":
    main()
