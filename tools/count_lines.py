"""Count the code lines of Python sources.

A code line is a line that holds a token other than a comment or a
docstring.  A docstring is a string literal standing alone as a
statement; blank lines, comment lines and docstring lines do not count.
A token that spans lines, such as a multi-line string inside an
expression, counts every line it spans.

Run from the repository root:  python3 tools/count_lines.py [PATH ...]
A path is a file or a directory searched for *.py files; the default is
src/mdca.  Prints the count of each file and the total.
"""

import io
import os
import sys
import tokenize

LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING)


def code_lines(text):
    """The number of code lines of one Python source text."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type != tokenize.COMMENT]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if tok.type == tokenize.STRING:
            before = tokens[i - 1].type if i else tokenize.NEWLINE
            after = tokens[i + 1].type
            if (before in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                           tokenize.DEDENT)
                    and after in (tokenize.NEWLINE, tokenize.ENDMARKER)):
                continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def sources(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src/mdca"]
    total = 0
    for path in sources(paths):
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        print("%6d  %s" % (n, path))
        total += n
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
