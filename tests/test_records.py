"""The package's record types are values: immutable, equal when their
fields are equal, hashed by their fields, and shown by their fields."""

from __future__ import annotations

from types import MappingProxyType

import pytest

from klsumfree.abelian import GroupSpec, PaddedLayout, make_group
from klsumfree.formulas import AlphaReport, BoundReport, ClassReport31, KLParams
from klsumfree.oracle import CountResult, SearchResult
from klsumfree.sumset import KneserCheck, StabilizerResult, Subset
from klsumfree.witness import APWitness, EuclidCertificate, LiftedWitness

G = make_group([2, 4])
KL = KLParams(3, 1)
S = Subset(G, 0b1010)
CERT = EuclidCertificate(q=1, r=1, u=1, w=0)

# each type, its fields in order, and one field with a value that makes
# the record differ
RECORDS = [
    (GroupSpec, dict(factors=(2, 4), n=8, v=4), ("n", 9)),
    (PaddedLayout, dict(v=4, size=21, blocks=(0, 4), offsets=(0, 7), folds=((7, 7),)), ("size", 22)),
    (KLParams, dict(k=3, l=1), ("k", 4)),
    (BoundReport, dict(lower=2, upper=3, lower_terms={4: 2}, upper_terms={8: 3},
                       argmax_lower=4, argmax_upper=8, degenerate=False), ("upper", 4)),
    (AlphaReport, dict(case_tag="coprime", exact=3, lower=3, upper=3,
                       beta_bounds=(2, 2), gamma_bounds=(3, 3)), ("exact", 2)),
    (ClassReport31, dict(e=(4, 0, 0, 0, 0, 0), p=(3, None, None, None, None, None),
                         nmax=(12, None, None, None, None, None), max_size=4), ("max_size", 5)),
    (Subset, dict(group=G, bits=0b1010), ("bits", 0b1011)),
    (StabilizerResult, dict(subgroup=S, index=4, empty_input=False), ("index", 2)),
    (KneserCheck, dict(lhs=3, rhs=2, holds=True), ("rhs", 3)),
    (EuclidCertificate, dict(q=1, r=1, u=1, w=0), ("w", 1)),
    (APWitness, dict(modulus=8, start=1, difference=2, size=2, kl=KL, kind="interval",
                     certificate=CERT, members=S), ("start", 3)),
    (LiftedWitness, dict(base=S, group=G, members=S, kl=KL, divisor=4), ("divisor", 8)),
    (SearchResult, dict(max_size=2, witness=S, nodes_explored=10, cached=False), ("cached", True)),
    (CountResult, dict(total=5, by_size=MappingProxyType({0: 1, 1: 4}), nodes_explored=10),
     ("total", 6)),
]
UNHASHABLE = {BoundReport, CountResult}  # they hold a dict and a mapping proxy


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_values(cls, fields, change):
    a, b = cls(**fields), cls(**fields)
    name, value = change
    other = cls(**{**fields, name: value})
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    for attr in (name, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, attr, value)
    assert a == b and getattr(a, name) == fields[name]
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    if cls is Subset:
        assert repr(a) == "Subset(2x4, {(0,1),(0,3)})"
    else:
        shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(a) == f"{cls.__name__}({shown})"


def test_records_check_their_fields():
    with pytest.raises(ValueError, match="need k > l >= 1"):
        KLParams(1, 2)
    with pytest.raises(ValueError, match="must be integers"):
        KLParams(3.0, 1)
    with pytest.raises(ValueError, match="bits outside the group"):
        Subset(G, 1 << G.n)
    with pytest.raises(ValueError, match="bits outside the group"):
        Subset(G, -1)


def test_count_results_compare_by_their_counts_alone():
    by_size = MappingProxyType({0: 1, 1: 4})
    a = CountResult(total=5, by_size=by_size, nodes_explored=10)
    b = CountResult(total=5, by_size=MappingProxyType(dict(by_size)), nodes_explored=11)
    assert a == b and not a != b
    c = CountResult(total=5, by_size=MappingProxyType({0: 1, 1: 3, 2: 1}), nodes_explored=10)
    assert a != c and not a == c


def test_replace_and_make_check_the_fields_too():
    assert KL._replace(k=5) == KLParams(5, 1) and S._replace(bits=1) == Subset(G, 1)
    with pytest.raises(ValueError, match="need k > l >= 1"):
        KL._replace(k=1)
    with pytest.raises(ValueError, match="need k > l >= 1"):
        KLParams._make((1, 2))
    with pytest.raises(ValueError, match="bits outside the group"):
        S._replace(bits=1 << G.n)
