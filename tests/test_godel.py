"""Formula numbering: pairing arithmetic and the tree codec."""

import random
from math import isqrt

import pytest
from hypothesis import example, given, strategies as st

from weakarith.godel import NotACode, godel_decode, godel_encode, pair, unpair
from weakarith.godel import _ISQRT_BITS, _encode_str, _sqrtrem
from weakarith.sexpr import parse_formula
from weakarith.syntax import App, Eq, Not, Rel, Var
from weakarith.theories import get_language


def test_pair_oracle_table():
    # diagonal walk: value at (a, b) is (a+b)(a+b+1)/2 + a
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (0, 2): 3, (1, 1): 4,
             (2, 0): 5, (3, 4): 31}
    for (a, b), want in table.items():
        assert pair(a, b) == want


def test_pair_unpair_inverse_small():
    for c in range(2000):
        a, b = unpair(c)
        assert pair(a, b) == c


@given(st.integers(min_value=0, max_value=10**30),
       st.integers(min_value=0, max_value=10**30))
def test_pair_inverse_property(a, b):
    assert unpair(pair(a, b)) == (a, b)


def _closed_pair(a, b):
    return (a + b) * (a + b + 1) // 2 + a


def _closed_unpair(c):
    w = (isqrt(8 * c + 1) - 1) // 2
    a = c - w * (w + 1) // 2
    return a, w - a


# naturals of up to 10^5 bits, as large as the operands of big codes
_naturals = st.one_of(
    st.integers(min_value=0, max_value=10**30),
    st.builds(lambda bits, rng: rng.getrandbits(bits),
              st.integers(1, 10**5), st.randoms(use_true_random=False)))

_BIG = (1 << 10**5) - 1


@given(_naturals, _naturals, _naturals)
@example(_BIG, _BIG, _BIG)
@example(_BIG // 3, 0, 1 << (10**5 - 1))
@example(0, _BIG // 7, _closed_pair(_BIG // 5, 12345))
def test_pair_and_unpair_match_the_closed_forms(a, b, c):
    code = pair(a, b)
    assert code == _closed_pair(a, b)
    assert unpair(code) == (a, b)
    assert unpair(c) == _closed_unpair(c)


def _near_squares(bits, rng):
    """Numbers of exactly `bits` bits: random, all ones, a power of two, and
    the largest square of that length with its two neighbours."""
    n = rng.getrandbits(bits) | 1 << bits - 1
    root = isqrt((1 << bits) - 1)
    return [n, (1 << bits) - 1, 1 << bits - 1,
            root * root - 1, root * root, root * root + 1]


def _sqrtrem_cases(bits, rng):
    return [n for n in _near_squares(bits, rng) if n.bit_length() == bits]


# every residue of the bit length mod 4 just below, at and above the cutoff,
# where the recursion starts, and at the largest sizes the codec meets
_SQRT_BITS = sorted({b for base in (1, _ISQRT_BITS, 2 * _ISQRT_BITS, 10**4, 200_000)
                     for b in range(max(1, base - 4), base + 5)})


@pytest.mark.parametrize("bits", _SQRT_BITS)
def test_sqrtrem_matches_isqrt_at_every_residue_around_the_cutoff(bits):
    for n in _sqrtrem_cases(bits, random.Random(bits)):
        s = isqrt(n)
        assert _sqrtrem(n) == (s, n - s * s), (bits, n.bit_length())


@given(st.integers(1, 200_000), st.randoms(use_true_random=False))
def test_sqrtrem_matches_isqrt(bits, rng):
    for n in _sqrtrem_cases(bits, rng):
        s = isqrt(n)
        assert _sqrtrem(n) == (s, n - s * s)


@given(st.integers(10_000, 200_000), st.randoms(use_true_random=False))
@example(10_000, random.Random(0))
def test_unpair_matches_the_closed_form_above_the_cutoff(bits, rng):
    # c = w(w+1)/2 + a with 0 <= a <= w: both ends of a diagonal, where 8c + 1
    # is an odd square or one below the next, and a random point between
    w = rng.getrandbits(bits // 2) | 1 << bits // 2 - 1
    base = w * (w + 1) // 2
    for c in (base, base + 1, base + w - 1, base + w, base + rng.randrange(w + 1),
              *_near_squares(bits, rng)):
        assert c.bit_length() > _ISQRT_BITS
        assert unpair(c) == _closed_unpair(c)


def test_string_code_golden():
    assert _encode_str("0") == 1226


def test_encode_golden():
    lang = get_language("R")
    phi = parse_formula("(= 0 0)", lang)
    assert godel_encode(phi) == \
        12972264338907129374431599850420434393022679173


def test_roundtrip_examples():
    lang = get_language("R")
    for text in [
        "(= 0 0)",
        "(forall x (or (<= x 0) (<= 0 x)))",
        "(exists y (not (= y (S 0))))",
        "true",
        "false",
    ]:
        phi = parse_formula(text, lang)
        assert godel_decode(godel_encode(phi)) == phi


def test_family_symbols_roundtrip():
    phi = Rel("in", (App("c#3"), Var("x")))
    assert godel_decode(godel_encode(phi)) == phi


def test_bad_codes_rejected():
    for code in [7, 11, 10**6 + 3]:
        with pytest.raises(NotACode):
            godel_decode(code)


def test_injective_on_small_corpus():
    from formula_corpus import build_corpus

    corpus = build_corpus(500)
    codes = {godel_encode(phi) for phi in corpus}
    assert len(codes) == len(corpus)
    for phi in corpus[:50]:
        assert godel_decode(godel_encode(phi)) == phi


@pytest.mark.parametrize("name", ["a b", "a\rb", "a\tb", "a\nb", "(a", "a)", "not", "=", ""])
def test_names_that_do_not_read_back_are_refused(name):
    from weakarith.godel import pair
    from weakarith.syntax import LanguageError

    # the code godel_encode would give Eq(Var(name), Var('y')), built by hand
    data = name.encode("utf-8")
    name_code = pair(len(data), int.from_bytes(data, "big"))
    code = pair(3, pair(pair(0, name_code), pair(0, _encode_str("y"))))
    with pytest.raises(NotACode):
        godel_decode(code)
    with pytest.raises(LanguageError):
        godel_encode(Eq(Var(name), Var("y")))


def test_names_that_read_back_still_round_trip():
    for name in ("a\fb", "x#2", "\x00x", "é"):
        phi = Eq(Var(name), Var("y"))
        assert godel_decode(godel_encode(phi)) is phi


def test_decoded_string_length_is_capped_by_the_code_bits():
    import tracemalloc

    # a Var of 10**7 NUL bytes: a 46-bit string code asking for 10 MB
    code = pair(3, pair(*[pair(0, pair(10**7, 0))] * 2))
    tracemalloc.start()
    try:
        with pytest.raises(NotACode, match="string length 10000000 exceeds"):
            godel_decode(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_numbers_past_the_digit_limit_still_give_not_a_code():
    # each crafted code puts a number of more than 4,300 digits into its
    # message; a fresh interpreter has the default int-to-str limit
    from fresh import run_python

    script = """
import sys
from weakarith.godel import NotACode, godel_decode, pair
assert sys.get_int_max_str_digits() == 4300
huge = 10 ** 4400
cases = [(pair(huge, 0), "bad formula tag {}", huge),
         (pair(2, pair(pair(huge, 0), 0)), "string length {} exceeds", huge),
         (pair(2, pair(pair(1, huge), 0)), "bad string payload {}", pair(1, huge))]
messages = []
for code, _, _ in cases:
    try:
        godel_decode(code)
    except NotACode as exc:
        messages.append(str(exc))
sys.set_int_max_str_digits(0)
for message, (_, want, number) in zip(messages, cases, strict=True):
    assert message.startswith(want.format(number)), message[:60]
print("ok")
"""
    got = run_python("-c", script, timeout=60)
    assert (got.returncode, got.stdout, got.stderr) == (0, "ok\n", "")


@pytest.mark.parametrize("name", ["\x00" * 6, "\x00" * 9 + "\x07", "\x00" * 64 + "x"])
def test_names_past_the_cap_are_refused_both_ways(name):
    from weakarith.syntax import LanguageError

    data = name.encode("utf-8")
    name_code = pair(len(data), int.from_bytes(data, "big"))
    assert len(data) > name_code.bit_length()
    with pytest.raises(NotACode):
        godel_decode(pair(3, pair(pair(0, name_code), pair(0, _encode_str("y")))))
    with pytest.raises(LanguageError, match="more bytes than its code has bits"):
        godel_encode(Eq(Var(name), Var("y")))


def test_names_under_the_cap_still_round_trip():
    for name in ("\x00" * 5, "\x00" * 6 + "x", "\x00" * 15 + "\xff"):
        phi = Eq(Var(name), Var("y"))
        assert godel_decode(godel_encode(phi)) is phi


def test_encode_refuses_a_code_past_the_cap(tmp_path):
    # each S costs three pairings, so the code of this 40-byte equation on the
    # numeral 8 would have about 2.5G bits; the child is killed after 20 s
    from fresh import run_cli

    path = tmp_path / "eq8.txt"
    path.write_text("(= (S (S (S (S (S (S (S (S 0)))))))) x)\n")
    assert len(path.read_bytes()) == 40
    got = run_cli("godel", "--encode", str(path), "--lang", "R", timeout=20)
    assert got.returncode == 1
    assert got.stdout == ""
    assert got.stderr == "error: the formula's code would exceed 2097152 bits\n"


def test_the_cap_refuses_within_two_seconds_and_admits_the_numeral_4():
    from time import perf_counter

    from weakarith.errors import WorkbenchError
    from weakarith.godel import MAX_CODE_BITS, CodeTooLarge
    from weakarith.theories import numeral

    assert MAX_CODE_BITS == 2 ** 21 and issubclass(CodeTooLarge, WorkbenchError)
    phi = Eq(numeral(4), Var("x"))
    code = godel_encode(phi)
    assert code.bit_length() == 606964 and godel_decode(code) is phi
    assert godel_encode(Not(phi)).bit_length() == 1213926
    for deep in (Eq(numeral(5), Var("x")), Eq(numeral(8), Var("x")),
                 Not(Not(phi)),                 # the last pairing passes the cap
                 Rel("P", (numeral(4),) * 6)):  # the argument list passes the cap
        start = perf_counter()
        with pytest.raises(CodeTooLarge):
            godel_encode(deep)
        assert perf_counter() - start < 2
