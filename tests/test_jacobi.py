"""Sequence model: parsing, normalization, palindrome splits, stripping, reversal."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from palinfrac import (
    IndexOutOfRange,
    JacobiPair,
    JacobiSequence,
    ParseError,
    double_period,
    find_palindrome_splits,
    load_sequence,
    normalize_kp,
    pair,
    sequence,
)
from conftest import (
    brute_splits,
    doubly_palindromic_period,
    random_periodic,
    reversed_periodic,
    strip,
    unrolled,
)
import palinfrac.jacobi as jacobi
from palinfrac.jacobi import _float_rows


# the period-doubling example shape: a = (a1 a2 a2 a1 t1) repeated, b = (b1 b2 b3 b2 b1) repeated
PAPER_HALF_A = [1, 2, 2, 1, 3]
PAPER_HALF_B = [0, 1, -1, 1, 0]


def paper_example_periodic():
    a = PAPER_HALF_A + PAPER_HALF_A
    b = PAPER_HALF_B + PAPER_HALF_B
    return [pair(x, y) for x, y in zip(a, b)]


def test_load_minimal():
    seq = load_sequence('{"preperiodic": [], "periodic": [["1","0"]]}')
    assert seq.k == 0 and seq.p == 1
    assert seq.periodic[0] == pair(1, 0)


def test_load_with_preperiodic():
    seq = load_sequence('{"preperiodic": [["1/2","1"]], "periodic": [["1","0"],["2","0"]]}')
    assert seq.k == 1 and seq.p == 2
    assert seq.preperiodic[0].a == Fraction(1, 2)


def test_load_rejects_nonpositive_a():
    with pytest.raises(ParseError):
        load_sequence('{"periodic": [["-1","0"]]}')
    with pytest.raises(ParseError):
        load_sequence('{"periodic": [["0","0"]]}')


def test_load_rejects_malformed_documents():
    with pytest.raises(ParseError):
        load_sequence("not json")
    with pytest.raises(ParseError):
        load_sequence('{"periodic": []}')
    with pytest.raises(ParseError):
        load_sequence('{"preperiodic": [["1","0"]]}')
    with pytest.raises(ParseError):
        load_sequence('{"periodic": [["1"]]}')
    with pytest.raises(ParseError):
        load_sequence('{"periodic": [["1/0","0"]]}')
    with pytest.raises(ParseError):
        load_sequence('{"periodic": [[1.5,"0"]]}')
    with pytest.raises(ParseError):
        load_sequence('{"periodic": [["1","0"]], "extra": 1}')
    with pytest.raises(ParseError):
        load_sequence('{"periodic": [[null, 0]]}')
    with pytest.raises(ParseError):
        load_sequence('{"periodic": [[["1"], 0]]}')
    # json.loads raises a bare ValueError for an integer longer than the
    # interpreter's int-string limit
    with pytest.raises(ParseError):
        load_sequence('{"periodic": [[' + "9" * 5000 + ", 0]]}")
    with pytest.raises(ParseError, match=r"^top-level JSON value must be an object$"):
        load_sequence("[]")
    with pytest.raises(ParseError, match=r'^"periodic" must be a list of \[a, b\] pairs$'):
        load_sequence('{"periodic": 5}')
    # the constructor refuses an empty period, for the loader too, after
    # the preperiodic block has parsed
    with pytest.raises(ParseError, match=r"^periodic part must be nonempty$"):
        JacobiSequence((), ())
    with pytest.raises(ParseError, match=r"^periodic part must be nonempty$"):
        load_sequence('{"periodic": [], "preperiodic": [[1, 0]]}')
    with pytest.raises(ParseError, match=r'^"preperiodic"\[0\] must be a two-element list$'):
        load_sequence('{"periodic": [], "preperiodic": [[1]]}')


def test_load_accepts_integers_and_dump_roundtrips():
    seq = load_sequence('{"periodic": [[1, 0], ["3/2", "-2"]]}')
    assert seq.periodic[1].a == Fraction(3, 2)
    doc = {
        "preperiodic": [[str(q.a), str(q.b)] for q in seq.preperiodic],
        "periodic": [[str(q.a), str(q.b)] for q in seq.periodic],
    }
    again = load_sequence(json.dumps(doc))
    assert again == seq


def test_normalize_purely_periodic_appends_period():
    seq = sequence([], [(1, 0)])
    norm = normalize_kp(seq)
    assert norm.preperiodic == (pair(1, 0),)
    assert norm.periodic == (pair(1, 0),)


def test_normalize_appends_exactly_one_period():
    seq = sequence([(2, 1)], [(1, 0), (3, 5)])
    norm = normalize_kp(seq)
    assert norm.k == 3
    assert norm.preperiodic == (pair(2, 1), pair(1, 0), pair(3, 5))
    assert norm.preperiodic[-1] == norm.periodic[-1]
    # the block now ends with the period and lends it its last p float rows;
    # a builtin point's levels are the cached table itself
    assert norm.levels(0.5j, True) is norm.float_periodic == norm.float_preperiodic[-2:]


def test_normalize_noop_when_already_normalized():
    seq = sequence([(3, 5)], [(1, 0), (3, 5)])
    assert normalize_kp(seq) is seq


def test_normalize_idempotent():
    rng = random.Random(201)
    for _ in range(25):
        p = rng.randint(1, 6)
        k = rng.randint(0, 4)
        seq = JacobiSequence(
            tuple(random_periodic(rng, k)), tuple(random_periodic(rng, p))
        )
        once = normalize_kp(seq)
        assert normalize_kp(once) == once
        assert once.is_kp_normalized()
        assert unrolled(once, 4 * (k + p) + 4) == unrolled(seq, 4 * (k + p) + 4)


def test_double_period_trivial():
    seq = sequence([], [(1, 0)])
    assert double_period(seq).periodic == (pair(1, 0), pair(1, 0))


def test_double_period_preserves_stream():
    rng = random.Random(202)
    for _ in range(20):
        seq = JacobiSequence(
            tuple(random_periodic(rng, rng.randint(0, 3))),
            tuple(random_periodic(rng, rng.randint(1, 5))),
        )
        doubled = double_period(seq)
        n = 4 * seq.p + seq.k
        assert unrolled(doubled, n) == unrolled(seq, n)


def test_double_period_enables_paper_split():
    # one period of length 5 that needs doubling before it splits
    half = [pair(x, y) for x, y in zip(PAPER_HALF_A, PAPER_HALF_B)]
    assert find_palindrome_splits(half) == []
    doubled = double_period(JacobiSequence((), tuple(half)))
    assert 4 in find_palindrome_splits(doubled.periodic)


def test_paper_example_split_set():
    assert find_palindrome_splits(paper_example_periodic()) == [4]


def test_constant_p4_splits():
    periodic = [pair(1, 0)] * 4
    assert find_palindrome_splits(periodic) == [1, 2]


def test_p3_without_splits():
    periodic = [pair(1, 0), pair(2, 0), pair(3, 0)]
    assert find_palindrome_splits(periodic) == []


def test_splits_match_brute_force():
    rng = random.Random(203)
    for trial in range(60):
        p = rng.randint(1, 9)
        if trial % 2 == 0 and p >= 3:
            periodic = doubly_palindromic_period(rng, p, rng.randint(1, p - 2))
        else:
            periodic = random_periodic(rng, p, max_mag=3)
        assert find_palindrome_splits(periodic) == brute_splits(periodic)


def test_doubling_preserves_split_membership():
    rng = random.Random(204)
    for _ in range(20):
        p = rng.randint(3, 8)
        ell = rng.randint(1, p - 2)
        periodic = doubly_palindromic_period(rng, p, ell)
        doubled = periodic + periodic
        assert set(brute_splits(periodic)) <= set(find_palindrome_splits(doubled))


def test_strip_zero_is_noop():
    seq = sequence([(1, 2)], [(3, 4), (5, 6)])
    assert strip(seq, 0) == seq


def test_strip_rotates_period():
    seq = sequence([], [(1, 0), (2, 5)])
    assert strip(seq, 1).periodic == (pair(2, 5), pair(1, 0))


def test_strip_matches_unrolling_oracle():
    rng = random.Random(205)
    for _ in range(30):
        seq = JacobiSequence(
            tuple(random_periodic(rng, rng.randint(0, 4))),
            tuple(random_periodic(rng, rng.randint(1, 5))),
        )
        count = rng.randint(0, 11)
        n = 3 * seq.p
        stream = unrolled(seq, count + n)
        assert unrolled(strip(seq, count), n) == stream[count:]


def test_strip_composes():
    rng = random.Random(206)
    for _ in range(20):
        seq = JacobiSequence(
            tuple(random_periodic(rng, rng.randint(0, 3))),
            tuple(random_periodic(rng, rng.randint(1, 4))),
        )
        l1, l2 = rng.randint(0, 5), rng.randint(0, 5)
        n = 3 * seq.p
        assert unrolled(strip(strip(seq, l1), l2), n) == unrolled(strip(seq, l1 + l2), n)


def test_strip_rejects_negative():
    with pytest.raises(IndexOutOfRange):
        strip(sequence([], [(1, 0)]), -1)


def test_reversed_periodic_single_pair():
    periodic = [pair(7, -3)]
    assert reversed_periodic(periodic) == periodic


def test_reversed_periodic_p3_formula():
    periodic = [pair(1, 10), pair(2, 20), pair(3, 30)]
    assert reversed_periodic(periodic) == [pair(2, 30), pair(1, 20), pair(3, 10)]


def test_reversed_periodic_involution_up_to_rotation():
    rng = random.Random(207)
    for _ in range(30):
        p = rng.randint(1, 8)
        periodic = random_periodic(rng, p)
        twice = reversed_periodic(reversed_periodic(periodic))
        rotations = [twice[r:] + twice[:r] for r in range(p)]
        assert periodic in rotations


def test_rotation_by_ell_plus_one_equals_reversal():
    # the combinatorial heart of the stripped-stream identity
    rng = random.Random(208)
    for _ in range(30):
        p = rng.randint(3, 9)
        ell = rng.randint(1, p - 2)
        periodic = doubly_palindromic_period(rng, p, ell)
        rotated = periodic[ell + 1 :] + periodic[: ell + 1]
        assert rotated == reversed_periodic(periodic)


def test_load_caps_entry_length_and_exponent(monkeypatch):
    import palinfrac.jacobi as jacobi

    with pytest.raises(ParseError):
        load_sequence('{"periodic": [["1e400", 0]]}')
    monkeypatch.setattr(jacobi, "MAX_ENTRY_DIGITS", 4)
    seq = load_sequence('{"periodic": [["1e4", "-1/3"], [1234, "1E-4"]]}')
    assert seq.periodic == (pair(10000, Fraction(-1, 3)), pair(1234, Fraction(1, 10000)))
    for entry in ('"1e5"', '"1E-5"', '"1e+1_0"', '"12345"', "12345", '"1/2345"'):
        with pytest.raises(ParseError):
            load_sequence('{"periodic": [[1, %s]]}' % entry)


def _reference_entry(entry, position: str):
    """What `load_sequence` makes of one entry by `Fraction(entry)` alone: the
    Fraction, or the ParseError text, the caps checked first on str(entry)."""
    cap = jacobi.MAX_ENTRY_DIGITS
    literal = str(entry)
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)", literal)
    if len(literal) > cap or (exponent and abs(int(exponent[1])) > cap):
        return f'"periodic"[0]: entry has more than {cap} characters or a larger exponent'
    try:
        value = Fraction(entry)
    except (TypeError, ValueError, ZeroDivisionError):
        return f'"periodic"[0]: bad rational {entry!r}'
    if position == "a" and value <= 0:
        return f"coefficient a must be positive, got {value}"
    return value


def _loaded_entry(entry, position: str):
    doc = {"periodic": [[entry, 0] if position == "a" else [1, entry]]}
    try:
        q = load_sequence(json.dumps(doc)).periodic[0]
    except ParseError as exc:
        return str(exc)
    assert type(q.a) is Fraction and type(q.b) is Fraction
    return q.a if position == "a" else q.b


_AT_CAP = st.sampled_from(
    [10**255, 10**256 - 1, 10**256, -(10**254), -(10**255 - 1), -(10**255), 10**257]
)
_LITERALS = st.one_of(
    # JSON ints and their strings, around the 256-character cap, signed or not
    st.integers(-(10**257), 10**257),
    _AT_CAP,
    st.one_of(st.integers(-(10**257), 10**257), _AT_CAP).map(str),
    # "n/d", "n/0" and "-n/d"
    st.builds("{}/{}".format, st.integers(-(10**130), 10**130), st.integers(0, 10**130)),
    # spaces, signs, underscores, decimals, exponents and non-ASCII digits
    st.text(" \t+-_/.eE0123456789\u0663\u00b2", max_size=10),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-300, 300)),
    st.sampled_from(
        ["\u0663", "\u00b2", "-\u0663/4", "3/\u0663", "1_000", "1__0", "_1", "1_",
         " 3", "3 ", "3 / 4", "+3", "--3", "-", "", "3/", "/3", "3/-4", "1/2/3", ".5",
         "5.", "-0.25e3", "1e256", "1e257", "1E-256", "1e+2_5_6", "0x10", "-0", "-0/5"]
    ),
)


@settings(max_examples=400, deadline=None)
@given(_LITERALS, st.sampled_from(["a", "b"]))
def test_load_parses_like_fraction_of_the_literal(entry, position):
    # ints and ASCII [-]digits[/digits] strings take a fast path through
    # str.partition and int; it must accept, reject and word every entry as
    # Fraction(str) after the caps does, in either position of a pair
    assert _loaded_entry(entry, position) == _reference_entry(entry, position)


def _floats_or_error(convert) -> str:
    """repr of the converted floats (signed zeros differ), or the error raised."""
    try:
        return repr(convert())
    except OverflowError as exc:
        return f"OverflowError: {exc}"


# up to 256 digits, the input format's longest entry, and a^2 to 10^512
_MAGNITUDES = st.one_of(st.integers(1, 9), st.integers(1, 10**256))
_FLOAT_CASES = st.lists(
    st.builds(
        JacobiPair,
        st.builds(Fraction, _MAGNITUDES, _MAGNITUDES),
        st.builds(Fraction, st.integers(-(10**256), 10**256), _MAGNITUDES),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_FLOAT_CASES)
@example([pair(10**155, 0)])  # a^2 = 1e310, beyond the double range
@example([pair(3, Fraction(-1, 7)), pair(Fraction(1, 10**200), Fraction(-1, 10**256))])
@example([pair(10**154, 10**255), pair(Fraction(10**256 - 1, 7), 1)])
def test_float_rows_have_the_bits_and_errors_of_the_fractions(pairs):
    # each level's (b, a^2) comes from integer true division, without the
    # Fraction a*a; it must be float() of the Fractions, overflow included
    assert _floats_or_error(lambda: _float_rows(pairs)) == _floats_or_error(
        lambda: tuple((float(q.b), float(q.a * q.a)) for q in pairs)
    )
