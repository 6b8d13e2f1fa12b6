"""Seeded request plans for the three benchmark workloads.

A plan is an endless series of rounds; a round is a short list of requests
that covers every period length of its workload once, so any run made of
whole rounds sees the same mix of sizes whatever the seed.  Every request
carries a fresh sequence (no input repeats within a plan), because a CLI
user starts a new process per call and never profits from a cache that an
in-process benchmark could fill across calls.

The classes of input the current code fails on (the double-precision
cross-check dividing by a vanishing Moebius denominator, mostly at larger
p and at the reverse probe's heights) are generated like any other input
and never filtered out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

WORKLOADS = ("verify-sweep", "series-roundtrip", "eval-points")

VERIFY_P = range(6, 25)
SERIES_P = range(1, 9)
EVAL_P = range(3, 17)
ORDER_CAP = 33
PROBE_HEIGHTS = (1e2, 1e3, 1e4)
EVAL_POINTS = 32
MAX_MAG = 9

Pair = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Request:
    """One CLI call: the sequence it reads and the arguments after --input."""

    command: str
    preperiodic: tuple[Pair, ...]
    periodic: tuple[Pair, ...]
    args: tuple[str, ...] = ()
    points: tuple[complex, ...] = ()
    order: int = 0

    def document(self) -> dict:
        return {
            "preperiodic": [[_entry(a), _entry(b)] for a, b in self.preperiodic],
            "periodic": [[_entry(a), _entry(b)] for a, b in self.periodic],
        }


def _entry(value: Fraction) -> int | str:
    """Integers go out as JSON integers, other rationals as "n/d" strings."""
    return value.numerator if value.denominator == 1 else str(value)


class Entries:
    """Seeded source of coefficient entries.

    Numerators (1..9 for a, -9..9 for b) and denominators (1..9) are dealt
    from shuffled decks rather than drawn independently, so every period
    mixes integers with rationals of small and large denominators in nearly
    the same proportions.  Coefficient heights, which set the cost of exact
    arithmetic, then vary less between requests of the same size.
    """

    DECKS = {
        "a": range(1, MAX_MAG + 1),
        "b": range(-MAX_MAG, MAX_MAG + 1),
        "den": range(1, MAX_MAG + 1),
    }

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._cards: dict[str, list[int]] = {name: [] for name in self.DECKS}

    def _deal(self, deck: str) -> int:
        cards = self._cards[deck]
        if not cards:
            cards.extend(self.DECKS[deck])
            self.rng.shuffle(cards)
        return cards.pop()

    def a(self) -> Fraction:
        return Fraction(self._deal("a"), self._deal("den"))

    def b(self) -> Fraction:
        return Fraction(self._deal("b"), self._deal("den"))

    def pair(self) -> Pair:
        return (self.a(), self.b())


def _mirror(values: list[Fraction]) -> list[Fraction]:
    n = len(values)
    return [values[i] if i < (n + 1) // 2 else values[n - 1 - i] for i in range(n)]


def doubly_palindromic(entries: Entries, p: int, ell: int) -> list[Pair]:
    """a = pal(ell) ++ pal(p-ell), b = pal(ell+1) ++ pal(p-ell-1)."""

    def palindrome(n: int, draw) -> list[Fraction]:
        return _mirror([draw() for _ in range(n)])

    a = palindrome(ell, entries.a) + palindrome(p - ell, entries.a)
    b = palindrome(ell + 1, entries.b) + palindrome(p - ell - 1, entries.b)
    return list(zip(a, b))


def random_period(entries: Entries, p: int) -> list[Pair]:
    return [entries.pair() for _ in range(p)]


def multi_split_period(entries: Entries, p: int) -> list[Pair]:
    """A period palindromic at two or more first lengths.

    A doubly palindromic block of length q, repeated p/q times, splits at
    ell0, ell0 + q, ...  A prime p has no such block length q >= 3, and a
    period of prime length splits at two ells only when its a- and b-strings
    are constant, so one pair is repeated and every ell holds.
    """
    blocks = [q for q in range(3, p // 2 + 1) if p % q == 0]
    if not blocks:
        return [entries.pair()] * p
    q = entries.rng.choice(blocks)
    return doubly_palindromic(entries, q, entries.rng.randint(1, q - 2)) * (p // q)


def _preperiod(entries: Entries, periodic: list[Pair]) -> tuple[Pair, ...]:
    """k = 1..3 random pairs ending with the last periodic pair."""
    k = entries.rng.randint(1, 3)
    return tuple(entries.pair() for _ in range(k - 1)) + (periodic[-1],)


def format_points(points: tuple[complex, ...]) -> str:
    return "--points=" + ";".join(f"{z.real!r},{z.imag!r}" for z in points)


def _verify_slots(r: int) -> list[tuple]:
    """Each p once.  The class and the preperiod kind rotate with the round,
    so each p meets all six combinations within six rounds."""
    return [(p, (i + r) % 3, (i + r) % 2) for i, p in enumerate(VERIFY_P)]


def _verify_request(entries: Entries, slot: tuple) -> Request:
    p, kind, with_preperiod = slot
    if kind == 0:
        periodic = doubly_palindromic(entries, p, entries.rng.randint(1, p - 2))
    elif kind == 1:
        periodic = random_period(entries, p)
    else:
        periodic = multi_split_period(entries, p)
    pre = _preperiod(entries, periodic) if with_preperiod else ()
    return Request("verify", pre, tuple(periodic), ("--all",))


def _series_slots(r: int) -> list[tuple]:
    return [(p, order) for p in SERIES_P for order in (2 * p + 6, min(4 * p + 1, ORDER_CAP))]


def _series_request(entries: Entries, slot: tuple) -> Request:
    p, order = slot
    periodic = tuple(random_period(entries, p))
    return Request("recover", (), periodic, ("--order", str(order)), order=order)


def _eval_slots(r: int) -> list[tuple]:
    return [(p, (i + r) % 2) for i, p in enumerate(EVAL_P)]


def _eval_request(entries: Entries, slot: tuple) -> Request:
    p, with_preperiod = slot
    rng = entries.rng
    periodic = doubly_palindromic(entries, p, rng.randint(1, p - 2))
    pre = _preperiod(entries, periodic) if with_preperiod else ()
    points = [
        complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0))
        for _ in range(EVAL_POINTS - len(PROBE_HEIGHTS))
    ] + [complex(0.0, y) for y in PROBE_HEIGHTS]
    rng.shuffle(points)
    points = tuple(points)
    return Request("eval", pre, tuple(periodic), (format_points(points),), points=points)


_PLANS = {
    "verify-sweep": (_verify_slots, _verify_request),
    "series-roundtrip": (_series_slots, _series_request),
    "eval-points": (_eval_slots, _eval_request),
}


def rounds(workload: str, seed: int) -> Iterator[list[Request]]:
    """The workload's rounds for this seed, each shuffled into its own order."""
    slots, build = _PLANS[workload]
    rng = random.Random(f"{workload}:{seed}")
    entries = Entries(rng)
    seen: set[str] = set()
    r = 0
    while True:
        batch = []
        for slot in slots(r):
            while True:
                request = build(entries, slot)
                key = json.dumps(request.document())
                if key not in seen:
                    break
            seen.add(key)
            batch.append(request)
        rng.shuffle(batch)
        yield batch
        r += 1
