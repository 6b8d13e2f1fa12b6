"""The value classes: their frozen-dataclass contract, the package's export
list, and a CLI import that loads neither `dataclasses` nor `inspect`."""

from __future__ import annotations

import importlib
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import palinfrac
from palinfrac import (
    JacobiPair,
    JacobiSequence,
    Mat2,
    Poly,
    Prepared,
    QuadraticRelation,
    RecoveredPair,
    ReverseObstructionReport,
    VerificationReport,
    pair,
    periodic_quadratic,
    prepare,
    pullback_quadratic,
    sequence,
)
from conftest import perfbench_module

_SEQ = sequence([(1, 0)], [(2, 1), (1, 0)])
_PREP = prepare(_SEQ)
_X, _ONE = Poly((0, 1), 1), Poly.const(1)

# Each class with valid field values, by name in declaration order.
CASES = [
    (Poly, {"num": (1, 2), "den": 3}),
    (Mat2, {"a11": _X, "a12": _ONE, "a21": -_ONE, "a22": Poly.zero()}),
    (JacobiPair, {"a": Fraction(2), "b": Fraction(-1, 3)}),
    (JacobiSequence, {"preperiodic": (pair(1, 0),), "periodic": (pair(2, 1), pair(1, 0))}),
    (QuadraticRelation, {"alpha": _ONE, "beta": _X, "gamma": -_ONE}),
    (VerificationReport, {"ell": 1, "residual_P_degree": -1, "residual_Q_degree": 2}),
    (
        Prepared,
        {
            name: getattr(_PREP, name)
            for name in ("seq", "cofactor_degrees", "relation", "tail", "scale", "ak2", "width")
        },
    ),
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
        (_SEQ, "float_periodic", ((1.0, 4.0), (0.0, 1.0))),
    ],
    ids=["Poly.coeffs", "JacobiSequence.float_periodic"],
)
def test_cached_property_fills_on_a_frozen_instance(obj, name, expected):
    fresh = type(obj)(*(getattr(obj, field) for field in type(obj).__match_args__))
    assert getattr(obj, name) == expected
    assert vars(obj)[name] == expected
    # the cached value is not a field: equality and hash are unchanged
    assert name not in vars(fresh)
    assert obj == fresh and hash(obj) == hash(fresh)


def test_all_lists_exactly_the_public_names():
    # a name left in __all__ after its code has gone breaks
    # `from palinfrac import *`, and a public name missing from it is not
    # exported
    assert len(set(palinfrac.__all__)) == len(palinfrac.__all__)
    for name in palinfrac.__all__:
        assert hasattr(palinfrac, name), name
    public = {
        name
        for name, value in vars(palinfrac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(palinfrac.__all__) == public
    namespace: dict = {}
    exec("from palinfrac import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


# The package's public names.  A name is public when code outside the tests
# calls it or README's library example and numerics section name it.
PUBLIC_NAMES = {
    "BranchAmbiguity", "DegenerateRelation", "DivisionByZero", "IndexOutOfRange",
    "InsufficientOrder", "JacobiPair", "JacobiSequence", "Mat2", "NotAnMFunction",
    "NotNormalized", "PalinfracError", "ParseError", "Poly", "Prepared",
    "QuadraticRelation", "RecoveredPair", "ReverseObstructionReport",
    "VerificationReport", "double_period", "eval_m", "eval_periodic_m",
    "eval_truncated", "find_palindrome_splits", "fold_preperiodic",
    "laurent_of_quadratic", "load_sequence", "mobius_apply", "normalize_kp", "pair",
    "periodic_quadratic", "poly_gcd", "prepare", "pullback_quadratic",
    "recover_coefficients", "reverse_asymptotics", "second_solution_value", "sequence",
    "verify_main_identity", "verify_splits",
}


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 39
    assert set(palinfrac.__all__) == PUBLIC_NAMES
    for name in (
        "PalindromeSplit", "as_rational", "dump_sequence", "LaurentSeries",
        "InsufficientCoefficients", "build_T1", "build_T2", "build_T3", "conj_transfer",
    ):
        assert not hasattr(palinfrac, name), name
    # a scalar multiplies a polynomial through `scale` only
    assert not hasattr(Poly, "__rmul__")
    for product in (lambda: _X * 3, lambda: 3 * _X, lambda: Fraction(1, 2) * _X):
        with pytest.raises(TypeError):
            product()
    # the pullback runs on integer lists: the rational rescalings are gone
    from palinfrac import exactalg

    for owner, name in (
        (exactalg, "shift_add"), (exactalg, "rational_content"), (QuadraticRelation, "primitive"),
        (QuadraticRelation, "scale"), (QuadraticRelation, "canonical"), (Poly, "monic"),
        (Poly, "__divmod__"),
    ):
        assert not hasattr(owner, name), name


def test_every_traced_name_resolves():
    # each span binds what `Tracer.install` looks up: a module attribute,
    # or a method in the class's own __dict__; a traced name that leaves
    # the program fails here, not only in the benchmark
    tracer = perfbench_module("tracer")
    for _, module_name, attr in tracer.SPANS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(getattr(module, cls_name).__dict__[method]), attr
        else:
            assert callable(getattr(module, attr)), attr
    # the tracer's coefficient-size counter reads the pullback's result
    # (-1, -z, -1) through (a, b) = (3/2, -1/3): alpha = -(4/9)*(z + 1/3)^2
    # + z*(z + 1/3) - 9/4, whose constant -745/324 has the widest terms
    q = pair(Fraction(3, 2), Fraction(-1, 3))
    relation = pullback_quadratic(periodic_quadratic([pair(1, 0)]), [q])
    assert relation.alpha.coeffs == (Fraction(-745, 324), Fraction(1, 27), Fraction(5, 9))
    assert tracer._coeff_bits(relation) == (745).bit_length() == 10


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
