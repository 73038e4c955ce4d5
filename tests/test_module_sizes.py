"""No module of the package passes 1,800 tokens.

A process without a bytecode cache (``PYTHONDONTWRITEBYTECODE=1``, as the
benchmark runs) compiles every module from source on import, and the
parser's scratch for the largest module stays as part of the process's
memory high-water mark.  That scratch (the tracemalloc peak of
``compile()``) runs at roughly 0.4 to 0.5 MB per 1,000 tokens: about
1.1 MB for a module of 2,500 tokens, 0.7 MB at 1,800.  The bound is the
largest module whose functions the benchmark's tracer pins by module name
(``bimoment``, 1,784 tokens when it was set), which cannot be split
without moving a pinned name.  A module that grows past it is split along
a seam it already has.

Tokens are counted by :mod:`tokenize`, leaving out comments, line ends,
indentation and the end marker, so a comment or a blank line costs none.
"""

import io
import tokenize
from pathlib import Path

import pytest

import cauchybop

PACKAGE = Path(cauchybop.__file__).resolve().parent
MAX_TOKENS = 1800
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def token_count(source: str) -> int:
    return sum(tok.type not in UNCOUNTED for tok in
               tokenize.generate_tokens(io.StringIO(source).readline))


def test_token_count_skips_comments_and_blank_lines():
    assert token_count("x = 1\n") == 3
    assert token_count("# a comment\n\nx = 1  # another\n\n") == 3


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_within_the_token_bound(path):
    assert token_count(path.read_text()) <= MAX_TOKENS
