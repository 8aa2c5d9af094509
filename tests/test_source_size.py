"""Every module of the package stays below 8192 parser tokens.  Without
bytecode files (PYTHONDONTWRITEBYTECODE=1) every run compiles the package,
and the parser's token array doubles past 8192 tokens: compiling a module
of 8299 tokens peaked about 0.5 MiB above one of 7507, which moves the
peak memory of every benchmark run.  Tokens are counted as the parser sees
them: every token but comments, blank-line breaks and the encoding, so
comments and docstrings' length cost nothing."""

import io
import tokenize
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "gfft").glob("*.py"))
TOKEN_STEP = 8192
FREE = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(source: bytes) -> int:
    """The tokens of source but its comments, blank-line breaks and encoding."""
    return sum(tok.type not in FREE for tok in tokenize.tokenize(io.BytesIO(source).readline))


def test_counter_skips_comments_and_blank_lines():
    # x = 1 is NAME, OP, NUMBER, NEWLINE; the file ends with ENDMARKER
    assert parser_tokens(b"x = 1\n") == 5
    assert parser_tokens(b"# a comment\n\nx = 1  # another\n\n") == 5
    assert parser_tokens(b'"""A docstring of any length."""\n') == 3


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_stays_below_the_token_step(path):
    assert parser_tokens(path.read_bytes()) < TOKEN_STEP
