"""The value classes: their frozen-dataclass contract, and a CLI import
that loads neither `dataclasses` nor `inspect`."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import palinfrac
from palinfrac import (
    JacobiPair,
    JacobiSequence,
    LaurentSeries,
    Mat2,
    PalindromeSplit,
    Poly,
    Prepared,
    QuadraticRelation,
    RecoveredPair,
    ReverseObstructionReport,
    VerificationReport,
    pair,
    prepare,
    sequence,
)

_SEQ = sequence([(1, 0)], [(2, 1), (1, 0)])
_PREP = prepare(_SEQ)
_X, _ONE = Poly.x(), Poly.const(1)

# Each class with valid field values, by name in declaration order.
CASES = [
    (Poly, {"num": (1, 2), "den": 3}),
    (Mat2, {"a11": _X, "a12": _ONE, "a21": -_ONE, "a22": Poly.zero()}),
    (JacobiPair, {"a": Fraction(2), "b": Fraction(-1, 3)}),
    (JacobiSequence, {"preperiodic": (pair(1, 0),), "periodic": (pair(2, 1), pair(1, 0))}),
    (PalindromeSplit, {"p": 5, "ell": 2}),
    (QuadraticRelation, {"alpha": _ONE, "beta": _X, "gamma": -_ONE}),
    (
        VerificationReport,
        {"ell": 1, "residual_P": Poly.zero(), "gamma": _ONE, "cofactor_Q": _X, "holds": False},
    ),
    (
        Prepared,
        {
            name: getattr(_PREP, name)
            for name in ("seq", "cofactors", "t1", "relation", "scaled_tail", "t3", "ak2")
        },
    ),
    (LaurentSeries, {"coefficients": (Fraction(1), Fraction(0), Fraction(2))}),
    (RecoveredPair, {"a_sq": Fraction(4), "b": Fraction(1), "a": Fraction(2), "a_exact": True}),
    (ReverseObstructionReport, {"is_m_like": False, "decay_constant": Fraction(-1, 3)}),
]


@pytest.mark.parametrize("cls, fields", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_value_class_contract(cls, fields):
    values = tuple(fields.values())
    obj = cls(*values)
    assert cls(**fields) == obj
    assert tuple(getattr(obj, name) for name in fields) == values
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1

    twin = cls(*values)
    assert twin == obj and not twin != obj
    assert hash(twin) == hash(obj) == hash(values)
    other = type("Other", (cls,), {})(*values)
    assert obj != other and other != obj
    assert obj != values

    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(obj) == f"{cls.__name__}({shown})"


def test_poly_repr_is_the_dataclass_format():
    assert repr(Poly((1, 2), 3)) == "Poly(num=(1, 2), den=3)"


@pytest.mark.parametrize(
    "obj, name, expected",
    [
        (Poly((1, 2), 3), "coeffs", (Fraction(1, 3), Fraction(2, 3))),
        (_SEQ, "float_pairs", ((0.0, 1.0), (1.0, 4.0), (0.0, 1.0))),
        (_PREP, "float_ak2", float(_PREP.ak2)),
    ],
    ids=["Poly.coeffs", "JacobiSequence.float_pairs", "Prepared.float_ak2"],
)
def test_cached_property_fills_on_a_frozen_instance(obj, name, expected):
    fresh = type(obj)(*(getattr(obj, field) for field in type(obj).__match_args__))
    assert getattr(obj, name) == expected
    assert vars(obj)[name] == expected
    # the cached value is not a field: equality and hash are unchanged
    assert name not in vars(fresh)
    assert obj == fresh and hash(obj) == hash(fresh)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = Path(palinfrac.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import palinfrac.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.split() == []
