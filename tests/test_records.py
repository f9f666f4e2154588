"""The frozen records the power sets and witnesses are written in: built
positionally or by keyword, with defaults, checked by __post_init__,
immutable, compared by value (or by identity where eq=False) and printed
as Name(field=value, ...)."""

import numpy as np
import pytest

from hadamard_powers.chordal import CliqueOrdering, Decomposition
from hadamard_powers.cones import PsdVerdict, ThreeFactorForm
from hadamard_powers.exponents import HSet, IntervalCertificate, WitnessReport


def replaced(rec, **changes):
    """A copy of a record with the given fields changed, built through its
    constructor, so its __post_init__ checks run on the new values."""
    fields = {name: getattr(rec, name) for name in type(rec).__annotations__}
    return type(rec)(**{**fields, **changes})


def _fields():
    """{record class: its fields in declaration order, with valid values},
    fresh arrays on each call."""
    return {
        HSet: {"lattice": "odd", "ray_start": 2.0, "inner_ray": 3.0, "exclusions": (2.5,)},
        WitnessReport: {"n": 3, "support": (1, 2), "edges": ((1, 2),), "alpha": 1.5,
                        "family": "plain", "image_min_eigenvalue": -0.25,
                        "construction": "random_sample", "matrix": np.eye(2),
                        "certificate": None},
        IntervalCertificate: {"factor": np.ones((2, 2)), "test_vector": ("1", "-1"),
                              "digits": 20},
        PsdVerdict: {"is_psd": True, "min_eigenvalue": 0.5, "tolerance_used": 1e-9},
        ThreeFactorForm: {"left": np.eye(2), "middle": np.eye(2), "schur_block": np.eye(1),
                          "order": (1, 2)},
        CliqueOrdering: {"cliques": (frozenset({1, 2}), frozenset({2, 3}))},
        Decomposition: {"side_a": frozenset({1}), "separator": frozenset({2}),
                        "side_b": frozenset({3})},
    }


RECORDS = list(_fields())
BY_IDENTITY = (IntervalCertificate, WitnessReport)
# the classes whose fields are all hashable; ThreeFactorForm holds arrays
HASHABLE = (HSet, PsdVerdict, CliqueOrdering, Decomposition)


def _holds(rec, fields):
    """True iff each field of rec is the given value, or equals it."""
    return list(type(rec).__annotations__) == list(fields) and all(
        getattr(rec, name) is value or not isinstance(value, np.ndarray)
        and getattr(rec, name) == value for name, value in fields.items())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_built_positionally_or_by_keyword(cls):
    fields = _fields()[cls]
    assert _holds(cls(*fields.values()), fields) and _holds(cls(**fields), fields)
    half = len(fields) // 2
    assert _holds(cls(*list(fields.values())[:half], **dict(list(fields.items())[half:])),
                  fields)


def test_the_defaults_fill_the_fields_left_out():
    h = HSet("naturals", 2.0)
    assert (h.inner_ray, h.exclusions, h.exact) == (None, (), True)
    fields = {k: v for k, v in _fields()[WitnessReport].items()
              if k not in ("matrix", "certificate")}
    w = WitnessReport(**fields)
    assert (w.matrix, w.certificate) == (None, None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_missing_unknown_or_repeated_field_is_a_type_error(cls):
    fields = _fields()[cls]
    first = next(iter(fields))
    with pytest.raises(TypeError, match=f"missing required argument '{first}'"):
        cls(**{k: v for k, v in fields.items() if k != first})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*fields.values(), **{first: fields[first]})
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*fields.values(), None)


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="unknown lattice"):
        HSet("integers", 1.0)
    with pytest.raises(ValueError, match="inner ray"):
        HSet("naturals", 2.0, inner_ray=1.0)
    assert HSet("odd", 2.0, 3.0, [2.5]).exclusions == (2.5,)  # made a tuple of floats
    with pytest.raises(ValueError, match="nonempty"):
        Decomposition(frozenset(), frozenset({2}), frozenset({3}))
    with pytest.raises(ValueError, match="disjoint"):
        Decomposition(frozenset({1, 2}), frozenset({2}), frozenset({3}))
    with pytest.raises(ValueError, match="inner ray"):
        replaced(HSet("naturals", 1.0, 2.0), inner_ray=0.5)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_frozen(cls):
    fields = _fields()[cls]
    rec = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.other = 1
    assert _holds(rec, fields)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_compare_by_value_or_by_identity(cls):
    fields = _fields()[cls]
    a, b = cls(**fields), cls(**fields)  # the same field objects
    assert a == a
    if cls in BY_IDENTITY:
        assert a != b and hash(a) == object.__hash__(a)
        return
    assert a == b and not a != b and a != tuple(fields.values())
    if cls in HASHABLE:
        c = cls(**_fields()[cls])  # equal field values, new objects
        assert a == c and hash(a) == hash(c) and len({a, b, c}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_a_value_record_differs_when_one_field_does():
    h = HSet("odd", 2.0, 3.0, (2.5,))
    assert h != HSet("odd", 2.0, 3.0) and h != HSet("even", 2.0, 3.0, (2.5,))
    assert PsdVerdict(True, 0.5, 1e-9) != PsdVerdict(True, 0.5, 1e-8)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_the_repr_names_every_field(cls):
    fields = _fields()[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_replaced_changes_only_the_fields_named():
    h = HSet("odd", 2.0, 3.0, (2.5,))
    assert replaced(h, ray_start=1.0) == HSet("odd", 1.0, 3.0, (2.5,))
    assert replaced(h) == h
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        replaced(h, ray=1.0)
