"""Injective formula numbering built from iterated Cantor pairing.

The scheme, fixed once and for all:

    pair(a, b)   = (a+b)(a+b+1)/2 + a          (Cantor pairing)
    str(s)       = pair(len(bytes), int-value of the utf-8 bytes, big endian)
    list([])     = 0
    list(x:rest) = pair(x, list(rest)) + 1

    node         = pair(tag, payload)

A node's tag is its row in _TABLE (Var 0, App 1, Rel 2, Eq 3, true 4,
false 5, not 6, and 7, or 8, -> 9, forall 10, exists 11), which gives the
kinds of its fields in order: a name is coded by str, an argument list by
list of its term codes. The payload is 0 with no field, the field's code
with one, pair(first, second) with two.

Names are single tokens of the interchange grammar (syntax.is_name_token):
encoding refuses any other name with LanguageError and decoding raises
NotACode for one, so every decoded formula prints as text that reads back.

Decoded size is capped: a string code whose byte length exceeds its own bit
length raises NotACode before any bytes are allocated, so a short crafted
code cannot ask for a gigabyte.  Encoding refuses the names that would give
such a code with LanguageError; they are the names of n >= 6 bytes whose
big-endian value is below about 2^(n/2), NUL but for at most their last
n/16 bytes (six NULs are refused, "\x00x" is not).

Encoded size is capped too.  Every pairing about squares the code, so a
formula a few dozen levels deep, or an equation on the numeral 8 (each S
costs three pairings), has a code of billions of bits.  Encoding checks each
pairing's result before it enters the next multiplication, and raises
CodeTooLarge once a code has more than MAX_CODE_BITS = 2^21 bits (256 KiB).
The largest code the test suite encodes has 1,214,182 bits; the equation
(= numeral(4) x) has 606,964.  So encoding multiplies numbers of at most
2^21 bits, and refuses a formula at most about 21 pairings above its leaves.
No sub-code is larger than the code that holds it, so no code of more than
MAX_CODE_BITS bits is in encode's range, and godel_decode raises NotACode for
one before its first root.  Encoding is injective by construction; decode is
total on the range and raises NotACode elsewhere.

Unpairing needs isqrt(8c + 1).  For c of up to _ISQRT_BITS = 2,048 bits,
`unpair` takes it from math.isqrt; above that, from `_sqrtrem`, Zimmermann's
divide-and-conquer square root with remainder (Karatsuba Square Root, INRIA
RR-3805, 1999; Brent and Zimmermann, Modern Computer Arithmetic, 2010,
section 1.5.2), about twice as fast as math.isqrt from 20k to 600k bits.
Its remainder gives the first component without the square the closed form
pays.  The root's one division per level, 2n by n bits, is Burnikel and
Ziegler's recursive division (`_div2n1n`; Fast Recursive Division,
MPI-I-98-1-022, 1998), which costs a few multiplications where CPython
3.11's divmod is quadratic.  At or below a quotient of _DIV_BITS = 3,000
bits it is divmod.  Roots and divisions are exact, so the numbering is
unchanged.

Both directions recurse once per level. Decoding goes at most log2 of the
code's bit length deep, since a code at least doubles its bits per level.
Encoding reaches the leaves before its first pairing, so a formula nested
deeper than the recursion limit ends in RecursionError, not CodeTooLarge.
"""

from __future__ import annotations

from decimal import Decimal
from math import isqrt

from .errors import WorkbenchError
from .syntax import (And, App, Eq, Exists, ForAll, Formula, Implies, LanguageError,
                     Not, Or, Rel, Var, Verum, Falsum, is_name_token)


MAX_CODE_BITS = 1 << 21
_ISQRT_BITS = 2048
_DIV_BITS = 3000


class NotACode(WorkbenchError):
    pass


class CodeTooLarge(WorkbenchError):
    """The formula's code would have more than MAX_CODE_BITS bits."""


def _bounded(code: int) -> int:
    if code.bit_length() > MAX_CODE_BITS:
        raise CodeTooLarge(f"the formula's code would exceed {MAX_CODE_BITS} bits")
    return code


def pair(a: int, b: int) -> int:
    s = a + b
    # s * s, not s * (s + 1): CPython squares a number faster than it
    # multiplies two different ones
    return (s * s + s >> 1) + a


def _sqrtrem(n: int) -> tuple[int, int]:
    """(s, n - s*s) with s = isqrt(n), for n >= 0.

    Write n = h*4^l + a1*2^l + a0 with a1, a0 < 2^l.  From the root s1 and
    remainder r1 of h, the quotient q of r1*2^l + a1 by 2*s1 gives
    s = s1*2^l + q with n = s^2 + r exactly, and s is the root or one above
    it as long as s1 >= 2^(l-1) (so q <= 2^l).  Taking l = (bits + 1) // 4
    leaves h at least 2l - 1 bits, which guarantees that at every level, so
    no normalising shift is needed; one correction step ends a level.
    """
    bits = n.bit_length()
    if bits <= _ISQRT_BITS:
        s = isqrt(n)
        return s, n - s * s
    l = bits + 1 >> 2
    low = (1 << l) - 1
    s1, r1 = _sqrtrem(n >> 2 * l)
    d = s1 << 1
    # r1 <= 2*s1 = d and s1 >= 2^(l-1), so d has k > l bits and the dividend,
    # at most d*2^l + 2^l - 1, is below d*2^k, as _div2n1n asks
    q, u = _div2n1n((r1 << l) + (n >> l & low), d, d.bit_length())
    s = (s1 << l) + q
    r = (u << l) + (n & low) - q * q
    if r < 0:
        r += 2 * s - 1
        s -= 1
    return s, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b*2^n.

    Burnikel and Ziegler's recursive division.  Up to _DIV_BITS quotient
    bits it is divmod.  Above, b splits into halves b1, b2 of h = n/2 bits
    and a into four h-bit digits: _div3n2n divides a's top three digits by
    b, then the remainder and a's last digit, each quotient h bits wide.
    An odd n first shifts a and b left one bit, and the remainder back.
    """
    if a.bit_length() - n <= _DIV_BITS:
        return divmod(a, b)
    pad = n & 1
    a, b, n = a << pad, b << pad, n + pad
    h = n >> 1
    low = (1 << h) - 1
    b1, b2 = b >> h, b & low
    q1, r = _div3n2n(a >> n, a >> h & low, b, b1, b2, h)
    q2, r = _div3n2n(r, a & low, b, b1, b2, h)
    return q1 << h | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, h: int) -> tuple[int, int]:
    """divmod(a12*2^h + a3, b) for b = b1*2^h + b2 of 2h bits, a3 < 2^h
    and a12 < b.

    The quotient of a12 by b1 estimates the quotient; since b1's top bit
    is set, the estimate is at most two too large.  When a12's top half
    equals b1, that quotient would not fit in h bits, and 2^h - 1 is the
    estimate instead.
    """
    if a12 >> h == b1:
        q, r = (1 << h) - 1, a12 - (b1 << h) + b1
    else:
        q, r = _div2n1n(a12, b1, h)
    r = (r << h | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def unpair(c: int) -> tuple[int, int]:
    if c < 0:
        raise NotACode("negative code")
    if c.bit_length() <= _ISQRT_BITS:
        w = (isqrt(8 * c + 1) - 1) // 2
        a = c - (w * w + w >> 1)
        return a, w - a
    # with s, r the root and remainder of 8c + 1, w = (s - 1) // 2 and
    # a = c - w(w + 1)/2 = r/8 for odd s, (r + 2s - 1)/8 for even s
    s, r = _sqrtrem(8 * c + 1)
    a = (r if s & 1 else r + 2 * s - 1) >> 3
    return a, (s - 1 >> 1) - a


def _encode_str(s: str) -> int:
    if not is_name_token(s):
        raise LanguageError(f"name {s!r} is not one token of the grammar")
    data = s.encode("utf-8")
    code = _bounded(pair(len(data), int.from_bytes(data, "big")))
    if len(data) > code.bit_length():
        raise LanguageError(f"name {s!r} has more bytes than its code has bits")
    return code


def _decode_str(code: int) -> str:
    n, value = unpair(code)
    if n > code.bit_length():
        raise NotACode(f"string length {Decimal(n)} exceeds the {code.bit_length()} bits of its code")
    try:
        name = value.to_bytes(n, "big").decode("utf-8")
    except (OverflowError, UnicodeDecodeError) as exc:
        raise NotACode(f"bad string payload {Decimal(code)}") from exc
    if not is_name_token(name):
        raise NotACode(f"name {name!r} is not one token of the grammar")
    return name


def encode_list(codes) -> int:
    acc = 0
    for c in reversed(list(codes)):
        acc = pair(c, acc) + 1
    return acc


def decode_list(code: int) -> list[int]:
    items = []
    while code != 0:
        head, code = unpair(code - 1)
        items.append(head)
    return items


NAME, ARGS, TERM, FORMULA = "name", "args", "term", "formula"

_TABLE = (
    (Var, TERM, (NAME,)),
    (App, TERM, (NAME, ARGS)),
    (Rel, FORMULA, (NAME, ARGS)),
    (Eq, FORMULA, (TERM, TERM)),
    (Verum, FORMULA, ()),
    (Falsum, FORMULA, ()),
    (Not, FORMULA, (FORMULA,)),
    (And, FORMULA, (FORMULA, FORMULA)),
    (Or, FORMULA, (FORMULA, FORMULA)),
    (Implies, FORMULA, (FORMULA, FORMULA)),
    (ForAll, FORMULA, (NAME, FORMULA)),
    (Exists, FORMULA, (NAME, FORMULA)),
)
# class -> (tag, kind, (field kind, attribute name) in field order)
_ROWS = {cls: (tag, kind, tuple(zip(fields, cls.__match_args__)))
         for tag, (cls, kind, fields) in enumerate(_TABLE)}


def _encode(node, kind: str) -> int:
    row = _ROWS.get(type(node))
    if row is None or row[1] != kind:
        raise TypeError(f"not a {kind}: {node!r}")
    tag, _, fields = row
    codes = [_encode_str(getattr(node, name)) if field == NAME
             else _encode_args(getattr(node, name)) if field == ARGS
             else _encode(getattr(node, name), field)
             for field, name in fields]
    payload = _bounded(pair(*codes)) if len(codes) == 2 else codes[0] if codes else 0
    return _bounded(pair(tag, payload))


def _encode_args(args) -> int:
    """encode_list of the argument codes, checking each pairing."""
    acc = 0
    for code in reversed([_encode(a, TERM) for a in args]):
        acc = _bounded(pair(code, acc) + 1)
    return acc


def _decode(code: int, kind: str):
    tag, payload = unpair(code)
    if tag >= len(_TABLE) or _TABLE[tag][1] != kind:
        raise NotACode(f"bad {kind} tag {Decimal(tag)}")
    cls, _, fields = _TABLE[tag]
    if not fields:
        if payload != 0:
            raise NotACode(f"nonzero payload on {'true' if cls is Verum else 'false'}")
        return cls()
    codes = unpair(payload) if len(fields) == 2 else (payload,)
    return cls(*[_decode_str(c) if field == NAME
                 else tuple(_decode(a, TERM) for a in decode_list(c)) if field == ARGS
                 else _decode(c, field)
                 for field, c in zip(fields, codes)])


def godel_encode(phi: Formula) -> int:
    return _encode(phi, FORMULA)


def godel_decode(code: int) -> Formula:
    # no sub-code is larger than its code, so encoding's cap bounds its range
    if code.bit_length() > MAX_CODE_BITS:
        raise NotACode(f"code exceeds {MAX_CODE_BITS} bits, the most a formula's code has")
    return _decode(code, FORMULA)
