"""The table-driven codec against the recursive one it replaced.

`godel` now reads one table (node class, kind, kinds of its fields) with one
encoder and one decoder. The copy below is the codec as it was before, with a
function per kind of node and one branch per class. On every input, each pair
must give the same code or the identical node, or raise the same exception
class with the same message: formulas with odd, family and nullary names,
random integers, mutated codes, bad tags, a payload on true or false, and
string lengths past the cap.
"""

from decimal import Decimal
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from weakarith.godel import NotACode, godel_decode, godel_encode
from weakarith.syntax import (FALSE, TRUE, And, App, Eq, Exists, ForAll, Implies,
                              LanguageError, Not, Or, Rel, Var, Verum, Falsum,
                              is_name_token)


# --- the codec as it was ---------------------------------------------------------

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
        raise NotACode(f"string length {Decimal(n)} exceeds the {code.bit_length()} bits of its code")
    try:
        name = value.to_bytes(n, "big").decode("utf-8")
    except (OverflowError, UnicodeDecodeError) as exc:
        raise NotACode(f"bad string payload {Decimal(code)}") from exc
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


def _encode_term(t) -> int:
    if isinstance(t, Var):
        return pair(0, _encode_str(t.name))
    return pair(1, pair(_encode_str(t.name), _encode_list(_encode_term(a) for a in t.args)))


def _decode_term(code: int):
    tag, payload = unpair(code)
    if tag == 0:
        return Var(_decode_str(payload))
    if tag == 1:
        name_code, args_code = unpair(payload)
        return App(_decode_str(name_code), tuple(_decode_term(c) for c in _decode_list(args_code)))
    raise NotACode(f"bad term tag {Decimal(tag)}")


_BIN_TAGS = {7: And, 8: Or, 9: Implies}


def old_encode(phi) -> int:
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
        return pair(6, old_encode(phi.body))
    if isinstance(phi, And):
        return pair(7, pair(old_encode(phi.left), old_encode(phi.right)))
    if isinstance(phi, Or):
        return pair(8, pair(old_encode(phi.left), old_encode(phi.right)))
    if isinstance(phi, Implies):
        return pair(9, pair(old_encode(phi.left), old_encode(phi.right)))
    if isinstance(phi, ForAll):
        return pair(10, pair(_encode_str(phi.var), old_encode(phi.body)))
    if isinstance(phi, Exists):
        return pair(11, pair(_encode_str(phi.var), old_encode(phi.body)))
    raise TypeError(f"not a formula: {phi!r}")


def old_decode(code: int):
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
        return Not(old_decode(payload))
    if tag in _BIN_TAGS:
        lc, rc = unpair(payload)
        return _BIN_TAGS[tag](old_decode(lc), old_decode(rc))
    if tag in (10, 11):
        var_code, body_code = unpair(payload)
        var = _decode_str(var_code)
        cls = ForAll if tag == 10 else Exists
        return cls(var, old_decode(body_code))
    raise NotACode(f"bad formula tag {Decimal(tag)}")


# --- inputs ---------------------------------------------------------------------------

# single tokens, family-style and nullary names, and names either codec refuses
NAMES = ["x", "y", "0", "S", "é", "x#2", "c#3", "f#12", "a\fb", "\x00x", "\x00" * 5,
         "<=", "a b", "not", "", "(a", "\x00" * 6, "\x00" * 9 + "\x07"]

_names = st.sampled_from(NAMES) | st.text(alphabet="ab0#é \x00(", max_size=4)
_terms = st.recursive(
    st.builds(Var, _names) | st.builds(App, _names),
    lambda kids: st.builds(App, _names, st.lists(kids, max_size=2).map(tuple)),
    max_leaves=3)
_atoms = (st.sampled_from([TRUE, FALSE])
          | st.builds(Eq, _terms, _terms)
          | st.builds(Rel, _names, st.lists(_terms, max_size=2).map(tuple)))
_formulas = st.recursive(
    _atoms,
    lambda kids: (st.builds(Not, kids)
                  | st.builds(lambda cls, a, b: cls(a, b), st.sampled_from([And, Or, Implies]),
                              kids, kids)
                  | st.builds(lambda cls, v, b: cls(v, b), st.sampled_from([ForAll, Exists]),
                              _names, kids)),
    max_leaves=4)

_ints = st.integers(min_value=-3, max_value=2**80)
_strings = st.builds(pair, st.integers(0, 2**40), st.integers(0, 2**40))


def _sub(draw):
    """A subcode: a formula's code, a random integer, or a crafted string code."""
    return draw(st.one_of(_valid_codes, _ints, _strings,
                          st.builds(pair, st.integers(0, 40), st.integers(0, 9))))


def _code(phi):
    try:
        return old_encode(phi)
    except LanguageError:
        return 0


_valid_codes = _formulas.map(_code)


@st.composite
def _crafted(draw):
    """A node code built by hand around subcodes: any tag, any payload shape."""
    tag = draw(st.integers(0, 14))
    shape = draw(st.sampled_from(["one", "two", "list", "zero"]))
    if shape == "zero":
        payload = draw(st.integers(0, 3))
    elif shape == "one":
        payload = _sub(draw)
    elif shape == "two":
        payload = pair(_sub(draw), _sub(draw))
    else:
        payload = pair(_sub(draw), pair(_sub(draw), 0) + 1)
    return pair(tag, payload)


@st.composite
def _mutated(draw):
    """A valid code nudged by a small delta, one flipped bit or one wrapped level."""
    code = draw(_valid_codes)
    how = draw(st.sampled_from(["delta", "bit", "wrap"]))
    if how == "delta":
        return max(0, code + draw(st.integers(-5, 5)))
    if how == "bit":
        return code ^ (1 << draw(st.integers(0, max(0, code.bit_length() - 1))))
    return pair(draw(st.integers(0, 14)), code)


def _outcome(fn, arg):
    try:
        return "value", fn(arg)
    except (NotACode, LanguageError, TypeError) as exc:
        return type(exc), str(exc)


@given(_formulas)
@settings(max_examples=300)
def test_encode_matches_the_recursive_codec(phi):
    new, old = _outcome(godel_encode, phi), _outcome(old_encode, phi)
    assert new == old
    if new[0] == "value":
        assert godel_decode(new[1]) is phi


@given(st.one_of(_valid_codes, _ints, _crafted(), _mutated()))
@settings(max_examples=300)
@example(pair(7, pair(pair(12, 0), pair(13, 0))))           # both operands bad
@example(pair(3, pair(pair(2, 0), pair(0, pair(10**7, 0)))))  # term tag, then length
@example(pair(10, pair(pair(10**6, 0), pair(12, 0))))       # bad binder name first
@example(pair(4, 1))
@example(pair(6, pair(5, 3)))
@example(pair(2, pair(pair(1, 0x78), pair(pair(1, 0), 0) + 1)))
@example(-1)
def test_decode_matches_the_recursive_codec(code):
    new, old = _outcome(godel_decode, code), _outcome(old_decode, code)
    assert new[0] == old[0]
    if new[0] == "value":
        assert new[1] is old[1]
    else:
        assert new[1] == old[1]


@pytest.mark.parametrize("node, message", [
    (Var("x"), "not a formula: Var(name='x')"),
    (None, "not a formula: None"),
    (Not(Var("x")), "not a formula: Var(name='x')"),
    (ForAll("x", App("0")), "not a formula: App(name='0', args=())"),
    (And(TRUE, App("c")), "not a formula: App(name='c', args=())"),
    (Eq(TRUE, Var("x")), "not a term: Verum()"),
    (Eq(Var("x"), Not(FALSE)), "not a term: Not(body=Falsum())"),
    (Rel("p", (Var("x"), FALSE)), "not a term: Falsum()"),
    (Eq(App("f", (Var("x"), TRUE)), Var("x")), "not a term: Verum()"),
])
def test_a_node_of_the_wrong_kind_is_a_type_error(node, message):
    with pytest.raises(TypeError) as info:
        godel_encode(node)
    assert str(info.value) == message
