"""Line counts of the graphdiv sources: `wc -l`, then code, docstring,
comment and blank lines by one tokenize rule.

A line is code when it holds any token other than a comment, a
NL/NEWLINE/INDENT/DEDENT or a statement-level string (a docstring); else
blank when it holds only whitespace, also inside a docstring; else a
docstring line when a statement-level string covers it; else a comment line.
The four classes partition the lines.

    python tools/count_lines.py [FILE ...]    # default: src/graphdiv/*.py
"""

import io
import pathlib
import sys
import tokenize

SOURCES = pathlib.Path(__file__).resolve().parent.parent / "src" / "graphdiv"
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def classify(source):
    """One of "code", "docstring", "comment" or "blank" per line of source."""
    code, docstring, comment = set(), set(), set()
    tokens = []
    for t in tokenize.generate_tokens(io.StringIO(source).readline):
        if t.type == tokenize.COMMENT:
            comment.add(t.start[0])
        else:
            tokens.append(t)
    for k, t in enumerate(tokens):
        if t.type in LAYOUT:
            continue
        lines = set(range(t.start[0], t.end[0] + 1))
        # a string alone on its logical line: the one before ends a statement
        # (or opens the file), the one after ends this one
        alone = (t.type == tokenize.STRING
                 and (k == 0 or tokens[k - 1].type in LAYOUT)
                 and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        (docstring if alone else code).update(lines)
    return ["code" if i in code else "blank" if not text.strip()
            else "docstring" if i in docstring else "comment" if i in comment else "blank"
            for i, text in enumerate(source.splitlines(), 1)]


def main(argv):
    paths = [pathlib.Path(p) for p in argv] or sorted(SOURCES.glob("*.py"))
    counts = {"code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for path in paths:
        for kind in classify(path.read_text()):
            counts[kind] += 1
    print(f"{sum(counts.values())} lines (wc -l) in {len(paths)} files")
    for kind, count in counts.items():
        print(f"{count:6d} {kind}")


if __name__ == "__main__":
    main(sys.argv[1:])
