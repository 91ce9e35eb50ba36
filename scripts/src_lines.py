"""Line counts of the package source, per module and in sum.

Prints, for every module of src/ramanecho and for their sum, its total
lines split four ways:
- code: lines that hold a token outside docstrings and comments;
- docstring: non-blank lines of module, class and function docstrings;
- comment: lines that hold only a comment;
- blank: lines that hold only white space, inside a docstring too.

Usage: python3 scripts/src_lines.py [PACKAGE_DIR]
"""

import argparse
import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src", "ramanecho")
KINDS = ("total", "code", "docstring", "comment", "blank")
# tokens that lay out a line but are no code of it
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.COMMENT}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The line counts of one module's source, by kind."""
    text = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text, 1):
        if not line.strip():
            kind = "blank"
        elif number in docs:
            kind = "docstring"
        elif number in code:
            kind = "code"
        else:
            kind = "comment" if number in comments else "blank"
        counts[kind] += 1
    counts["total"] = len(text)
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("package", nargs="?", default=PACKAGE)
    args = parser.parse_args()
    names = sorted(name for name in os.listdir(args.package)
                   if name.endswith(".py"))
    if not names:
        print(f"no modules in {args.package}", file=sys.stderr)
        return 1
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS))
    for name in names:
        with open(os.path.join(args.package, name), encoding="utf-8") as fh:
            counts = count(fh.read())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS))
    print(f"{'sum':<16}" + "".join(f"{total[k]:>10}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
