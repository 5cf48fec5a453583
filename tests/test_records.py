"""The frozen result records behave as the frozen dataclasses they replace.

Every record class of the package is pinned here: its fields in order,
its defaults, construction by position and keyword, the errors of a bad
call, immutability, equality, hashing and ``repr``.  The reference for
``repr`` and ``hash`` is a ``dataclasses.make_dataclass(..., frozen=True)``
twin holding the same values.  Records pickle, and so do the immutable
value types they hold, each rebuilt from its constructor arguments.
Those value types share ``Frozen``'s immutability, and each keyed one
its hash, as pinned here too.
"""

import dataclasses
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest

from lietriple import algebra, catalog, centralizers, derivations, gma, linalg, properness
from lietriple.algebra import LinearOperator
from lietriple.catalog import CatalogEntry, Example12, upper_triangular_gma
from lietriple.centralizers import BlockDecomposition, Cor32Report, IdentityCheck, Thm31Report, block_decompose
from lietriple.derivations import GLTDDecomposition, LTDDecomposition, Thm41HypothesisReport
from lietriple.gma import AnnihilatorReport, CenterBlocks, PeirceDecomposition
from lietriple.linalg import Matrix, Subspace
from lietriple.properness import (
    Cor36Report,
    EquivalenceRecord,
    EquivalenceReport,
    Infeasible,
    PropernessCertificate,
    PropernessFailure,
)
from lietriple.record import Frozen, Record

_CORNER_FIELDS = tuple(f"{side}{k}" for side in ("alpha", "beta", "tau", "gamma") for k in range(1, 5))

FIELDS = {
    Example12: ("gma", "phi", "a0", "b0", "expected_center"),
    CatalogEntry: ("name", "algebra", "gma", "extras"),
    IdentityCheck: ("ok", "witness", "lhs", "rhs"),
    BlockDecomposition: ("gma", *_CORNER_FIELDS),
    Thm31Report: ("passed", "failures"),
    Cor32Report: ("alpha4_into_center_b", "beta1_into_center_a"),
    Thm41HypothesisReport: (
        "cond_i", "cond_ii", "cond_iii", "cond_iv", "cond_a", "cond_b",
        "cond_c_established_by", "cond_d_established_by", "two_torsion_free",
    ),
    LTDDecomposition: ("delta", "singular", "gamma"),
    GLTDDecomposition: ("delta", "singular", "psi", "lam", "certified_hypotheses", "transcript"),
    PeirceDecomposition: ("gma", "new_to_old", "old_to_new"),
    AnnihilatorReport: ("a_annihilator", "b_annihilator"),
    CenterBlocks: ("z", "pi_a", "pi_b"),
    PropernessCertificate: ("lam", "chi", "alpha_bar", "beta_bar", "transcript"),
    PropernessFailure: ("side", "witness", "target"),
    Infeasible: ("reason", "witness_element", "witness_image"),
    Cor36Report: ("pi_b_equals_center_b", "triple_span_a_full", "pi_a_equals_center_a", "triple_span_b_full"),
    EquivalenceRecord: ("direct_feasible", "ranges_inside", "units_inside"),
    EquivalenceReport: ("records", "improper_count"),
}

DEFAULTS = {
    CatalogEntry: {"extras": {}},
    IdentityCheck: {"witness": None, "lhs": None, "rhs": None},
    Thm41HypothesisReport: {"two_torsion_free": True},
    Infeasible: {"witness_element": None, "witness_image": None},
}

RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def _sample(cls, variant: int = 0) -> dict:
    """One value per field, valid for the class's ``__post_init__``; variants differ in at least one field."""
    if cls is BlockDecomposition:
        u = upper_triangular_gma(3)
        d = block_decompose(u, (variant + 1) * LinearOperator.identity(u.algebra))
        return {name: getattr(d, name) for name in FIELDS[cls]}
    values = {name: f"{cls.__name__}.{name}.{variant}" for name in FIELDS[cls]}
    if cls is CatalogEntry:
        values["extras"] = {"k": variant}
    return values


def _twin(cls, record):
    """A frozen dataclass of the same name and fields, holding the record's values."""
    twin = dataclasses.make_dataclass(cls.__qualname__, FIELDS[cls], frozen=True)
    return twin(*(getattr(record, name) for name in FIELDS[cls]))


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return f"TypeError: {exc}"


def test_every_record_class_is_pinned():
    found = {
        value
        for module in (catalog, centralizers, derivations, gma, properness)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value.__module__ == module.__name__
    }
    assert found == set(FIELDS)


@RECORDS
def test_fields_in_declaration_order(cls):
    assert cls.__match_args__ == FIELDS[cls]
    assert tuple(vars(cls(**_sample(cls)))) == FIELDS[cls]


@RECORDS
def test_positional_keyword_and_default_construction(cls):
    values = _sample(cls)
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    assert by_position == by_keyword
    for name, value in values.items():
        assert getattr(by_keyword, name) == value
    defaults = DEFAULTS.get(cls, {})
    short = cls(**{name: value for name, value in values.items() if name not in defaults})
    for name in FIELDS[cls]:
        assert getattr(short, name) == defaults.get(name, values[name])


@RECORDS
def test_a_missing_unknown_or_repeated_field_is_a_type_error(cls):
    values = _sample(cls)
    first = FIELDS[cls][0]
    with pytest.raises(TypeError, match=f"missing fields: '{first}'"):
        cls(**{name: value for name, value in values.items() if name != first})
    with pytest.raises(TypeError, match="unexpected field 'bogus'"):
        cls(**values, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for field '{first}'"):
        cls(values[first], **values)
    with pytest.raises(TypeError, match="takes"):
        cls(*values.values(), None)


@RECORDS
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = cls(**_sample(cls))
    before = repr(record)
    for name in (*FIELDS[cls], "bogus"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert repr(record) == before


@RECORDS
def test_equality_is_by_class_and_fields(cls):
    values = _sample(cls)
    record = cls(**values)
    assert record == cls(**values)
    assert _hash_or_error(record) == _hash_or_error(cls(**values))
    assert record != tuple(values.values())
    other = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(FIELDS[cls], "object")})
    assert record != other(**{name: getattr(record, name) for name in FIELDS[cls]})
    assert record != _twin(cls, record)
    other_values = _sample(cls, variant=1)
    last = next(name for name in reversed(FIELDS[cls]) if other_values[name] != values[name])
    assert record != cls(**{**values, last: other_values[last]})


@RECORDS
def test_repr_and_hash_match_a_frozen_dataclass_twin(cls):
    record = cls(**_sample(cls))
    twin = _twin(cls, record)
    assert repr(record) == repr(twin)
    assert _hash_or_error(record) == _hash_or_error(twin)


@RECORDS
def test_post_init_sees_every_field_set(cls):
    seen = []

    class Probe(cls):
        def __post_init__(self):
            seen.append({name: getattr(self, name) for name in FIELDS[cls]})
            super().__post_init__()

    values = _sample(cls)
    Probe(*values.values())
    assert seen == [values]


# a mappingproxy does not pickle
@pytest.mark.parametrize("cls", [c for c in FIELDS if c is not CatalogEntry], ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    record = cls(**_sample(cls))
    assert pickle.loads(pickle.dumps(record)) == record


def _value_samples() -> dict:
    u = upper_triangular_gma(3)
    alg = u.algebra
    op = LinearOperator.from_flat(alg, [Fraction(k, 3) for k in range(alg.dim**2)])
    return {
        "StructureConstants": alg,
        "AlgebraElement": alg.element(range(alg.dim)),
        "LinearOperator": op,
        "Matrix": op.matrix,
        "Subspace": Subspace(alg.dim, [(1, 2, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0)]),
        "GMA": u,
        "Bimodule": u.context.M,
        "MoritaContext": u.context,
        "EtaMap": gma.eta_map(u),
    }


# each keyed value type's hash, written out from its fields
HASHES = {
    "StructureConstants": lambda x: hash(x.content_hash),
    "AlgebraElement": lambda x: hash((x.algebra.content_hash, x.coords)),
    "LinearOperator": lambda x: hash((x.algebra.content_hash, x.matrix)),
    "Matrix": lambda x: hash((x.cols, x.data)),
    "Subspace": lambda x: hash((x.ambient, x.basis)),
    "GMA": lambda x: hash(x.content_hash),
    "EtaMap": lambda x: hash((x.domain, x.codomain, x.images, x.preimages)),
}

VALUES = pytest.mark.parametrize("name", list(_value_samples()))
KEYED = pytest.mark.parametrize("name", list(HASHES))


def _slot_copy(value):
    """A second object of the value's class holding the same slot values."""
    copy = object.__new__(type(value))
    for slot in type(value).__slots__:
        object.__setattr__(copy, slot, getattr(value, slot))
    return copy


@KEYED
def test_value_types_pickle_by_their_constructor_arguments(name):
    value = _value_samples()[name]
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and copy is not value and type(copy) is type(value)


def test_every_value_type_is_frozen():
    found = {
        value.__name__
        for module in (algebra, gma, linalg)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Frozen) and not issubclass(value, Record)
        and value.__module__ == module.__name__
    }
    assert found == {type(value).__name__ for value in _value_samples().values()}


@VALUES
def test_value_slots_can_be_neither_assigned_nor_deleted(name):
    value = _value_samples()[name]
    before = {slot: getattr(value, slot) for slot in type(value).__slots__}
    for slot in (*before, "bogus"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, slot, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, slot)
    assert all(getattr(value, slot) is x for slot, x in before.items())


@KEYED
def test_a_keyed_value_keeps_its_hash(name):
    value = _value_samples()[name]
    assert hash(value) == HASHES[name](value)


@VALUES
def test_equality_is_by_class_and_key(name):
    value = _value_samples()[name]
    copy = _slot_copy(value)
    assert value == value and value != value._key()
    if name in HASHES:
        assert copy == value and hash(copy) == hash(value)
    else:
        assert copy != value
    assert value != next(v for n, v in _value_samples().items() if n != name)


def test_equal_keys_of_two_classes_are_unequal_values():
    matrix, space = Matrix([[1, 0]]), Subspace(2, [(1, 0)])
    assert matrix._key() == space._key()
    assert matrix != space and space != matrix


def test_a_context_pickles_with_its_tensors():
    ctx = upper_triangular_gma(3).context
    copy = pickle.loads(pickle.dumps(ctx))
    for name in ("A", "B"):
        assert getattr(copy, name) == getattr(ctx, name)
    for name in ("M", "N"):
        for part in ("dim", "left_dim", "right_dim", "_left", "_right"):
            assert getattr(getattr(copy, name), part) == getattr(getattr(ctx, name), part)
    assert (copy._zeta, copy._psi) == (ctx._zeta, ctx._psi)


def test_catalog_entry_extras_are_a_read_only_copy():
    extras = {"k": 1}
    entry = CatalogEntry("name", "algebra", None, extras)
    extras["k"] = 2
    assert isinstance(entry.extras, MappingProxyType) and entry.extras == {"k": 1}
    with pytest.raises(TypeError):
        entry.extras["k"] = 3
    default = CatalogEntry("name", "algebra", None)
    assert isinstance(default.extras, MappingProxyType) and default.extras == {}
