"""Injective formula numbering built from iterated Cantor pairing.

The scheme, fixed once and for all:

    pair(a, b)   = (a+b)(a+b+1)/2 + a          (Cantor pairing)
    str(s)       = pair(len(bytes), int-value of the utf-8 bytes, big endian)
    list([])     = 0
    list(x:rest) = pair(x, list(rest)) + 1

    node         = pair(tag, payload)

    tag  0 Var      payload str(name)
    tag  1 App      payload pair(str(name), list(arg codes))
    tag  2 Rel      payload pair(str(name), list(arg codes))
    tag  3 Eq       payload pair(left code, right code)
    tag  4 true     payload 0
    tag  5 false    payload 0
    tag  6 not      payload body code
    tag  7 and      payload pair(left, right)
    tag  8 or       payload pair(left, right)
    tag  9 ->       payload pair(left, right)
    tag 10 forall   payload pair(str(var), body code)
    tag 11 exists   payload pair(str(var), body code)

Names are single tokens of the interchange grammar (syntax.is_name_token):
encoding refuses any other name with LanguageError and decoding raises
NotACode for one, so every decoded formula prints as text that reads back.

Decoded size is capped: a string code whose byte length exceeds its own bit
length raises NotACode before any bytes are allocated, so a short crafted
code cannot ask for a gigabyte.  Encoding refuses the names that would give
such a code with LanguageError; they are the names of n >= 6 bytes whose
big-endian value is below about 2^(n/2), NUL but for at most their last
n/16 bytes (six NULs are refused, "\x00x" is not).
Encoding is injective by construction; decode is total on the range and
raises NotACode elsewhere.
"""

from __future__ import annotations

from math import isqrt

from .errors import WorkbenchError
from .syntax import (And, App, Eq, Exists, FALSE, ForAll, Formula, Implies,
                     LanguageError, Not, Or, Rel, Term, TRUE, Var, Verum, Falsum,
                     is_name_token)


class NotACode(WorkbenchError):
    pass


def pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + a


def unpair(c: int) -> tuple[int, int]:
    if c < 0:
        raise NotACode("negative code")
    w = (isqrt(8 * c + 1) - 1) // 2
    a = c - w * (w + 1) // 2
    return a, w - a


def _encode_str(s: str) -> int:
    if not is_name_token(s):
        raise LanguageError(f"name {s!r} is not one token of the grammar")
    data = s.encode("utf-8")
    code = pair(len(data), int.from_bytes(data, "big"))
    if len(data) > code.bit_length():
        raise LanguageError(f"name {s!r} has more bytes than its code has bits")
    return code


def _decode_str(code: int) -> str:
    n, value = unpair(code)
    if n > code.bit_length():
        raise NotACode(f"string length {n} exceeds the {code.bit_length()} bits of its code")
    try:
        name = value.to_bytes(n, "big").decode("utf-8")
    except (OverflowError, UnicodeDecodeError) as exc:
        raise NotACode(f"bad string payload {code}") from exc
    if not is_name_token(name):
        raise NotACode(f"name {name!r} is not one token of the grammar")
    return name


def _encode_list(codes) -> int:
    acc = 0
    for c in reversed(list(codes)):
        acc = pair(c, acc) + 1
    return acc


def _decode_list(code: int) -> list[int]:
    items = []
    while code != 0:
        head, code = unpair(code - 1)
        items.append(head)
    return items


def _encode_term(t: Term) -> int:
    if isinstance(t, Var):
        return pair(0, _encode_str(t.name))
    return pair(1, pair(_encode_str(t.name), _encode_list(_encode_term(a) for a in t.args)))


def _decode_term(code: int) -> Term:
    tag, payload = unpair(code)
    if tag == 0:
        return Var(_decode_str(payload))
    if tag == 1:
        name_code, args_code = unpair(payload)
        return App(_decode_str(name_code), tuple(_decode_term(c) for c in _decode_list(args_code)))
    raise NotACode(f"bad term tag {tag}")


_BIN_TAGS = {7: And, 8: Or, 9: Implies}


def godel_encode(phi: Formula) -> int:
    if isinstance(phi, Rel):
        payload = pair(_encode_str(phi.name), _encode_list(_encode_term(a) for a in phi.args))
        return pair(2, payload)
    if isinstance(phi, Eq):
        return pair(3, pair(_encode_term(phi.left), _encode_term(phi.right)))
    if isinstance(phi, Verum):
        return pair(4, 0)
    if isinstance(phi, Falsum):
        return pair(5, 0)
    if isinstance(phi, Not):
        return pair(6, godel_encode(phi.body))
    if isinstance(phi, And):
        return pair(7, pair(godel_encode(phi.left), godel_encode(phi.right)))
    if isinstance(phi, Or):
        return pair(8, pair(godel_encode(phi.left), godel_encode(phi.right)))
    if isinstance(phi, Implies):
        return pair(9, pair(godel_encode(phi.left), godel_encode(phi.right)))
    if isinstance(phi, ForAll):
        return pair(10, pair(_encode_str(phi.var), godel_encode(phi.body)))
    if isinstance(phi, Exists):
        return pair(11, pair(_encode_str(phi.var), godel_encode(phi.body)))
    raise TypeError(f"not a formula: {phi!r}")


def godel_decode(code: int) -> Formula:
    tag, payload = unpair(code)
    if tag == 2:
        name_code, args_code = unpair(payload)
        return Rel(_decode_str(name_code), tuple(_decode_term(c) for c in _decode_list(args_code)))
    if tag == 3:
        lc, rc = unpair(payload)
        return Eq(_decode_term(lc), _decode_term(rc))
    if tag == 4:
        if payload != 0:
            raise NotACode("nonzero payload on true")
        return TRUE
    if tag == 5:
        if payload != 0:
            raise NotACode("nonzero payload on false")
        return FALSE
    if tag == 6:
        return Not(godel_decode(payload))
    if tag in _BIN_TAGS:
        lc, rc = unpair(payload)
        return _BIN_TAGS[tag](godel_decode(lc), godel_decode(rc))
    if tag in (10, 11):
        var_code, body_code = unpair(payload)
        var = _decode_str(var_code)
        cls = ForAll if tag == 10 else Exists
        return cls(var, godel_decode(body_code))
    raise NotACode(f"bad formula tag {tag}")
