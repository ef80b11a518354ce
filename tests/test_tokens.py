"""Tokenizer: the compiled scanner against a per-character reference, and
``Token`` as a value."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenamine.tokens import Token, ascii_norms, take_token, tokenize


def reference_take(text, i):
    """The per-character rule: a run of ``isalpha`` characters is a word,
    a run of ``isdecimal`` characters with at most one interior dot
    flanked by them is a number, anything else one punct character."""
    ch = text[i]
    if ch.isalpha():
        j = i + 1
        while j < len(text) and text[j].isalpha():
            j += 1
        return text[i:j], "word", j
    if ch.isdecimal():
        j = i + 1
        dotted = False
        while j < len(text):
            c = text[j]
            if c.isdecimal():
                j += 1
            elif c == "." and not dotted and j + 1 < len(text) and text[j + 1].isdecimal():
                dotted = True
                j += 2
            else:
                break
        return text[i:j], "number", j
    return ch, "punct", i + 1


def reference_tokenize(text):
    out = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        surface, cls, j = reference_take(text, i)
        out.append((surface, surface.lower(), cls, i, j))
        i = j
    return out


def _same(text):
    # a Token equals the plain tuple of its fields
    assert tokenize(text) == reference_tokenize(text), ascii(text)


def test_every_code_point_tokenizes_as_the_reference():
    chunk = 1 << 12
    for lo in range(0, sys.maxunicode + 1, chunk):
        _same("".join(map(chr, range(lo, lo + chunk))))


def test_numeric_characters_between_letters_and_digits():
    # alphanumeric for ``str`` and for re's \w, but neither letters nor digits
    numeric_only = [
        c
        for c in map(chr, range(sys.maxunicode + 1))
        if c.isalnum() and not c.isalpha() and not c.isdecimal()
    ]
    assert len(numeric_only) > 1000
    for c in numeric_only:
        _same("a" + c + "b1" + c + "2")
    assert [(t.norm, t.cls) for t in tokenize("a²b1²2")] == [
        ("a", "word"),
        ("²", "punct"),
        ("b", "word"),
        ("1", "number"),
        ("²", "punct"),
        ("2", "number"),
    ]


def test_classes_follow_this_pythons_unicode_tables():
    """Letters, digits and other numerics from outside ASCII under the
    running Python's Unicode tables; ``\\x1c``, a space to ``str.isspace``,
    separates tokens for ``tokenize`` and ``ascii_norms`` alike."""
    got = [(t.norm, t.cls) for t in tokenize("Caf\u00e9 x\u00b2 costs \u0663.\u0665 \u20ac, 1.2.3")]
    want = [
        ("caf\u00e9", "word"), ("x", "word"), ("\u00b2", "punct"), ("costs", "word"),
        ("\u0663.\u0665", "number"), ("\u20ac", "punct"), (",", "punct"),
        ("1.2", "number"), (".", "punct"), ("3", "number"),
    ]
    assert got == want, ascii(got)
    text = "Light TURNED Red\x1cat 12.5, 1.2.3"
    norms = [t.norm for t in tokenize(text)]
    assert ascii_norms(text) == norms == ["light", "turned", "red", "at", "12.5", ",", "1.2", ".", "3"], ascii(norms)


_ASCII = "".join(map(chr, range(128)))  # every ASCII code point, \x1c to \x1f (spaces to str.isspace) included


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.text(alphabet=_ASCII, max_size=5) | st.sampled_from(["12.5", "1.2.3", "7.", ".5", "aB", "Z9z"]),
                max_size=10))
def test_ascii_norms_equal_tokenize_over_every_ascii_code_point(pieces):
    """The ASCII-class scan gives the norms ``tokenize`` gives, with its
    Unicode classes, on any ASCII text."""
    text = "".join(pieces)
    assert ascii_norms(text) == [t.norm for t in tokenize(text)], ascii(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="é²½Ⅻ٣三_$€. a1", max_size=30))
def test_take_token_at_every_position(text):
    _same(text)
    for i, ch in enumerate(text):
        if not ch.isspace():
            assert take_token(text, i) == reference_take(text, i), (ascii(text), i)


def test_token_is_an_immutable_value():
    token = Token("a", "a", "word", 0, 1)
    with pytest.raises(AttributeError):
        token.norm = "b"
    twin = Token("a", "a", "word", 0, 1)
    assert token == twin and hash(token) == hash(twin)
    assert token != Token("a", "a", "word", 0, 2)
    assert repr(token) == "Token(surface='a', norm='a', cls='word', start=0, end=1)"
    assert tokenize("a") == [token]
    assert repr(tokenize("a")[0]) == repr(token)
