"""Eventually periodic coefficient sequences and their palindrome structure.

A coefficient stream is a sequence of pairs (a_n, b_n) with a_n > 0.  We
model eventually periodic streams as a finite preperiodic block followed by
an infinitely repeated periodic block.  The division between the two blocks
is part of the representation, not of the stream: the same stream has many
legal representations and we deliberately never minimize the period.

The canonical form used by the verifier requires the preperiodic block to
be nonempty and to end with a pair equal to the last pair of the period;
`normalize_kp` establishes this by appending one full period when needed.

A period is "doubly palindromic with first length ell" when its a-string is
a concatenation of palindromes of lengths ell and p-ell while its b-string
is a concatenation of palindromes of lengths ell+1 and p-ell-1, with both
blocks of both strings nonempty (1 <= ell <= p-2).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cached_property
from itertools import chain, cycle, islice
from typing import Sequence

from ._value import frozen
from .errors import NotNormalized, ParseError
from .exactalg import RationalLike

# Longest entry, in characters, and largest decimal exponent that
# load_sequence accepts.  Fraction would expand "1e999999999" into an
# integer with a billion digits before any later check could see it.
MAX_ENTRY_DIGITS = 256
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


@frozen
class JacobiPair:
    """One coefficient pair (a, b) with a > 0."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if self.a.numerator <= 0:
            raise ParseError(f"coefficient a must be positive, got {self.a}")


def pair(a: RationalLike, b: RationalLike) -> JacobiPair:
    """Convenience constructor accepting ints, Fractions, or rational strings."""
    return JacobiPair(Fraction(a), Fraction(b))


@frozen
class JacobiSequence:
    """An eventually periodic stream: preperiodic block + repeated period."""

    preperiodic: tuple[JacobiPair, ...]
    periodic: tuple[JacobiPair, ...]

    def __post_init__(self) -> None:
        if len(self.periodic) < 1:
            raise ParseError("periodic part must be nonempty")

    @property
    def k(self) -> int:
        """Length of the preperiodic block."""
        return len(self.preperiodic)

    @property
    def p(self) -> int:
        """Length of one period."""
        return len(self.periodic)

    @cached_property
    def float_preperiodic(self) -> tuple[tuple[float, float], ...]:
        """(float(b), float(a^2)) per preperiodic pair, once per sequence."""
        return _float_pairs(self.preperiodic)

    @cached_property
    def float_pairs(self) -> tuple[tuple[float, float], ...]:
        """`float_preperiodic`, then the periodic pairs: lent by a block that
        ends with the period (as `normalize_kp` leaves one), else converted."""
        block, p = self.float_preperiodic, self.p
        lent = self.preperiodic[-p:] == self.periodic
        return block + (block[-p:] if lent else _float_pairs(self.periodic))

    @cached_property
    def int_periodic(self) -> tuple[tuple[int, int, int, int], ...]:
        """`int_pairs` of the period, once per sequence: what exact walks read."""
        return int_pairs(self.periodic)

    def levels(self, z, periodic: bool) -> tuple:
        """(b, a^2) of the period's or the block's pairs, in the arithmetic of z.

        A builtin float or complex point reads the float tables, which have
        the bits and OverflowErrors of the exact pairs; others, the exact pairs.
        """
        if type(z) in (float, complex):
            return self.float_pairs[self.k :] if periodic else self.float_preperiodic
        return tuple((q.b, q.a * q.a) for q in (self.periodic if periodic else self.preperiodic))

    def pairs(self, n: int) -> list[JacobiPair]:
        """Unroll the first n pairs of the stream."""
        return list(islice(chain(self.preperiodic, cycle(self.periodic)), n))

    def is_kp_normalized(self) -> bool:
        """True when the preperiodic block is nonempty and ends with the last periodic pair."""
        return self.k >= 1 and self.preperiodic[-1] == self.periodic[-1]


def _float_pairs(pairs: Sequence[JacobiPair]) -> tuple[tuple[float, float], ...]:
    # int true division, as in Fraction.__float__: its bits and OverflowErrors, no a*a
    return tuple(
        (q.b.numerator / q.b.denominator, q.a.numerator**2 / q.a.denominator**2) for q in pairs
    )


def int_pairs(pairs: Sequence[JacobiPair]) -> tuple[tuple[int, int, int, int], ...]:
    """The numerators and denominators (an, ad, bn, bd) of each pair's a and b."""
    return tuple((*q.a.as_integer_ratio(), *q.b.as_integer_ratio()) for q in pairs)


def sequence(
    preperiodic: Sequence[tuple[RationalLike, RationalLike]],
    periodic: Sequence[tuple[RationalLike, RationalLike]],
) -> JacobiSequence:
    """Build a JacobiSequence from raw (a, b) tuples."""
    return JacobiSequence(
        tuple(pair(a, b) for a, b in preperiodic),
        tuple(pair(a, b) for a, b in periodic),
    )


def load_sequence(text: str | bytes) -> JacobiSequence:
    """Parse the JSON document format into an exact sequence.

    The document is an object with an optional "preperiodic" and a required
    "periodic" key, each a list of two-element lists whose entries are
    rational strings ("3/2", "-1", "0") or integers.  Floats are rejected:
    exact arithmetic needs exact inputs.

    Raises:
        ParseError: malformed JSON, malformed rationals, entries longer than
            MAX_ENTRY_DIGITS characters or with a decimal exponent above it,
            nonpositive a entries, or an empty periodic part.
    """
    try:
        doc = json.loads(text)
    # ValueError also covers integers past the interpreter's digit limit, and
    # RecursionError arrays or objects nested past the decoder's depth
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = set(doc) - {"preperiodic", "periodic"}
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    if "periodic" not in doc:
        raise ParseError('missing required key "periodic"')

    def parse_block(name: str, raw) -> tuple[JacobiPair, ...]:
        if not isinstance(raw, list):
            raise ParseError(f'"{name}" must be a list of [a, b] pairs')
        out = []
        for i, item in enumerate(raw):
            if not isinstance(item, list) or len(item) != 2:
                raise ParseError(f'"{name}"[{i}] must be a two-element list')
            values = []
            for entry in item:
                if isinstance(entry, bool) or isinstance(entry, float):
                    raise ParseError(
                        f'"{name}"[{i}]: entries must be rational strings or integers, got {entry!r}'
                    )
                literal = str(entry)
                # JSON ints and ASCII [-]digits[/digits] skip the exponent check and the regex
                num, slash, den = literal.partition("/")
                fast = literal.isascii() and num.removeprefix("-").isdigit()
                fast = fast and (den.isdigit() or not slash)
                exponent = not fast and _EXPONENT.search(literal)
                if len(literal) > MAX_ENTRY_DIGITS or (
                    exponent and abs(int(exponent[1])) > MAX_ENTRY_DIGITS
                ):
                    raise ParseError(
                        f'"{name}"[{i}]: entry has more than {MAX_ENTRY_DIGITS} '
                        "characters or a larger exponent"
                    )
                try:
                    values.append(Fraction(int(num), int(den or 1)) if fast else Fraction(entry))
                except (TypeError, ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f'"{name}"[{i}]: bad rational {entry!r}') from exc
            out.append(JacobiPair(values[0], values[1]))
        return tuple(out)

    periodic = parse_block("periodic", doc["periodic"])
    if not periodic:
        raise ParseError("periodic part must be nonempty")
    preperiodic = parse_block("preperiodic", doc.get("preperiodic", []))
    return JacobiSequence(preperiodic, periodic)


def normalize_kp(seq: JacobiSequence) -> JacobiSequence:
    """Make the preperiodic block nonempty and end with the last periodic pair.

    If the input already satisfies both conditions it is returned unchanged;
    otherwise exactly one full period is appended to the preperiodic block.
    The represented stream is unchanged either way.  Idempotent.
    """
    if seq.is_kp_normalized():
        return seq
    return JacobiSequence(seq.preperiodic + seq.periodic, seq.periodic)


def require_kp_normalized(seq: JacobiSequence) -> None:
    """Raise NotNormalized unless `seq` is in the verifier's canonical form."""
    if not seq.is_kp_normalized():
        raise NotNormalized(
            "sequence must have a nonempty preperiodic block ending with the last "
            "periodic pair; apply normalize_kp first"
        )


def double_period(seq: JacobiSequence) -> JacobiSequence:
    """Replace the period by two copies of itself (same stream, 2p-periodic)."""
    return JacobiSequence(seq.preperiodic, seq.periodic + seq.periodic)


def _is_palindrome(values: list[Fraction]) -> bool:
    return values == values[::-1]


def find_palindrome_splits(periodic: Sequence[JacobiPair]) -> list[int]:
    """All first lengths ell making the period doubly palindromic, ascending.

    ell qualifies when the a-string splits into palindromes of lengths ell
    and p-ell and the b-string splits into palindromes of lengths ell+1 and
    p-ell-1.  Empty for p < 3 since every block must be nonempty.
    """
    p = len(periodic)
    a = [q.a for q in periodic]
    b = [q.b for q in periodic]
    return [
        ell
        for ell in range(1, p - 1)
        if _is_palindrome(a[:ell]) and _is_palindrome(a[ell:])
        and _is_palindrome(b[: ell + 1]) and _is_palindrome(b[ell + 1 :])
    ]
