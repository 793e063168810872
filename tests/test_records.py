"""Result records: immutable tuples with named fields and their own checks."""

import pytest

from schubert_fusion import acceptance, fock, fusion, schubert, types, verlinde
from schubert_fusion.types import Composition

RECORD_MODULES = (types, fock, fusion, schubert, verlinde, acceptance)


def one_of_each():
    comp = Composition((1, 2))
    return [
        comp,
        types.PoincarePolynomial((1, 1)),
        fock.cyclic_vector((2,), 2),
        fusion.build_module((2, 3)),
        fusion.check_relations(2, 2),
        fusion.build_submodule((2, 3), 1),
        fusion.exact_sequence_check((2, 3), 1),
        schubert.bundle_split(comp, 1),
        schubert.canonical_flag(comp),
        schubert.identity_element(2),
        verlinde.fuse(2, 1, 1),
        verlinde.limit_multiplicities((1, 1)),
        verlinde.character_stabilization((1,), 2, 1),
        acceptance.CheckResult(1, "name", True, "detail"),
    ]


def record_classes():
    return {name: obj for module in RECORD_MODULES
            for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and hasattr(obj, "_fields") and obj.__module__ == module.__name__}


def test_every_record_class_is_covered():
    classes = record_classes()
    assert len(classes) == 14
    assert {type(r).__name__ for r in one_of_each()} == set(classes)
    assert all(type(r) is classes[type(r).__name__] for r in one_of_each())
    # no per-instance __dict__: new attributes have nowhere to go
    assert all(cls.__slots__ == () for cls in classes.values())


@pytest.mark.parametrize("record", one_of_each(),
                         ids=lambda r: type(r).__name__)
def test_records_are_read_only(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert type(record).__doc__


@pytest.mark.parametrize("record", one_of_each(),
                         ids=lambda r: type(r).__name__)
def test_record_repr_names_its_fields(record):
    if isinstance(record, verlinde.FusionRingElement):
        assert repr(record) == "FusionRingElement(level=2, [0] + [2])"
        return
    name = type(record).__name__
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"


def test_composition_repr_and_hash():
    assert repr(Composition((1, 2))) == "Composition(parts=(1, 2))"
    assert hash(Composition([1, 2])) == hash(Composition((1, 2)))
    # the hash of the tuple of field values, as for a frozen dataclass
    assert hash(Composition((1, 2))) == hash(((1, 2),))
    assert len({Composition([1, 2]), Composition((1, 2))}) == 1


def test_validated_records_keep_tuples():
    # one-shot iterables are read once, checked and kept as tuples, so the
    # record stays hashable and cannot change under a caller
    ring = verlinde.FusionRingElement(1, iter((1, 0)))
    assert ring.coeffs == (1, 0)
    with pytest.raises(ValueError, match="length level"):
        verlinde.FusionRingElement(1, iter((1,)))
    one, zero = iter((1, 0)), iter((0, 0))
    g = schubert.GroupElement(2, 1, one, zero, [0, 0], [1, 0])
    assert g == schubert.identity_element(2)
    assert hash(g) == hash(schubert.identity_element(2))
    with pytest.raises(ValueError, match="determinant 1"):
        schubert.GroupElement(2, 1, iter((1, 0)), (0, 0), (0, 0), [2, 0])


@pytest.mark.parametrize("build", [
    lambda: Composition((1,))._replace(parts=()),
    lambda: Composition._make([[0]]),
    lambda: types.PoincarePolynomial((1,))._replace(even_coeffs=(1, 0)),
    lambda: types.PoincarePolynomial._make([[]]),
    lambda: schubert.identity_element(2)._replace(vv=(2, 0)),
    lambda: schubert.GroupElement._make((1, 1, (1,), (0,), (0,), (2,))),
    lambda: verlinde.FusionRingElement(1, (1, 0))._replace(level=2),
    lambda: verlinde.FusionRingElement._make((1, (1, -1))),
], ids=["Composition._replace", "Composition._make",
        "PoincarePolynomial._replace", "PoincarePolynomial._make",
        "GroupElement._replace", "GroupElement._make",
        "FusionRingElement._replace", "FusionRingElement._make"])
def test_make_and_replace_validate(build):
    # namedtuple's _make (which _replace calls) skips __new__ unless the
    # record routes it through its checks
    with pytest.raises(ValueError):
        build()


def test_make_and_replace_keep_tuples():
    made = Composition._make([[1, 2]])
    assert made == Composition((1, 2)) and made.parts == (1, 2)
    replaced = Composition((1,))._replace(parts=[3])
    assert type(replaced) is Composition and replaced.parts == (3,)
