"""Text tokenization shared by the matcher and the pattern language.

A letter is what ``str.isalpha`` accepts, a digit what ``str.isdecimal``
accepts and a space what ``str.isspace`` accepts.  Maximal runs of
letters become ``word`` tokens, maximal runs of digits (with at most one
interior dot flanked by digits) become ``number`` tokens, and every
other non-space character is a single ``punct`` token.  So ``12.5`` is
one token while ``example.com`` is three, and a numeric character that
is neither a letter nor a digit, such as ``²``, is ``punct``.
``ascii_norms`` gives an ASCII text's token norms from one ASCII-class scan.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import NamedTuple

WORD = "word"
NUMBER = "number"
PUNCT = "punct"

# re's [^\W\d_] also takes numerics that are not letters, such as ², so a
# run it finds is one word only when str.isalpha holds for it
_WORD, _NUMBER = r"[^\W\d_]+", r"\d+(?:\.\d+)?"
_SCANNER = re.compile(rf"({_WORD})|({_NUMBER})|\S")
# the same grammar on lower-cased ASCII text, without groups, so that findall yields whole tokens
_ASCII_TOKEN = re.compile(r"[a-z]+|[0-9]+(?:\.[0-9]+)?|\S")
_CLASS = {1: WORD, 2: NUMBER, None: PUNCT}  # by Match.lastindex
_new = tuple.__new__


class Token(NamedTuple):
    surface: str
    norm: str
    cls: str
    start: int
    end: int  # character span, end exclusive


def _split_run(run: str, start: int):
    """Yield (surface, class, start) for a scanner letter run that is not
    all letters: each run of letters is a word, any other character a punct."""
    for alpha, chars in groupby(run, str.isalpha):
        part = "".join(chars)
        for surface in [part] if alpha else part:
            yield surface, WORD if alpha else PUNCT, start
            start += len(surface)


def take_token(text: str, i: int) -> tuple[str, str, int]:
    """(surface, class, next index) of the token at non-space position ``i``."""
    found = _SCANNER.match(text, i)
    surface = found[0]
    if found.lastindex == 1 and not surface.isalpha():
        surface, cls, _start = next(_split_run(surface, i))
        return surface, cls, i + len(surface)
    return surface, _CLASS[found.lastindex], found.end()


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into word, number and punctuation tokens."""
    out: list[Token] = []
    for found in _SCANNER.finditer(text):
        surface = found[0]
        kind = found.lastindex
        if kind == 1 and not surface.isalpha():
            for part, cls, start in _split_run(surface, found.start()):
                out.append(_new(Token, (part, part.lower(), cls, start, start + len(part))))
        else:
            start, end = found.span()
            out.append(_new(Token, (surface, surface.lower(), _CLASS[kind], start, end)))
    return out


def ascii_norms(text: str) -> list[str]:
    """``[t.norm for t in tokenize(text)]`` for an ASCII ``text``, from one
    scan: an ASCII letter run is all letters, so no run is split, and
    lower-casing maps ASCII letters to letters one for one."""
    return _ASCII_TOKEN.findall(text.lower())
