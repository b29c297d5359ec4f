"""The value classes against the dataclasses they replaced.

The repr literals below are the text that ``dataclasses`` wrote for each
class; equality, hashing and immutability are those that its ``eq`` and
``frozen`` flags gave.
"""

import inspect

import pytest

from sl2endo.charformulas import PacketSpec
from sl2endo.checks import PROJ_S1, ProjMatrix
from sl2endo.cli import SweepConfig
from sl2endo.cyclotomic import CycNumber, root_of_unity
from sl2endo.endoscopy import REPORT_FIELDS, VerificationReport
from sl2endo.localfield import FieldConfig
from sl2endo.packets import KLEIN4, Z2, ComponentGroup
from sl2endo.residue import CharacterLevel
from sl2endo.torus import Classification, LieElement, TorusElement, TorusVariant, sample_regular

CONFIG = FieldConfig(7, 5)
NEAR = sample_regular(CONFIG, Classification.NEAR, 1, seed="values")


def report(s="s1", b=3, valuation_b=1, classification="near", lhs=-4, rhs=-4, verdict="equal"):
    side = (lambda n: None if n is None else CycNumber.from_int(n))
    return VerificationReport(3, 8, 2, "nonregular", 2, s, 1, b, valuation_b, classification,
                              side(lhs), side(rhs), verdict)


REPRS = [
    (root_of_unity(12, 5) + 3, "CycNumber(m=12, num=((0, 3), (1, -1), (3, 1)))"),
    (CycNumber.zero(), "CycNumber(m=1, num=())"),
    (CONFIG, "FieldConfig(p=7, N=5)"),
    (CharacterLevel(9, 8), "CharacterLevel(k=1, modulus=8)"),
    (PacketSpec(CharacterLevel(4, 8)),
     "PacketSpec(level=CharacterLevel(k=4, modulus=8), kind='nonregular')"),
    (Z2, "ComponentGroup(kind='Z2', elements=('1', 's1'), class_sizes=(1, 1),"
         " table=((1, 1), (1, -1)))"),
    (PROJ_S1, "ProjMatrix(entries=((CycNumber(m=1, num=((0, 1),)), CycNumber(m=1, num=())),"
              " (CycNumber(m=1, num=()), CycNumber(m=1, num=((0, -1),)))))"),
    (TorusElement(CONFIG, 1, 0), "TorusElement(config=FieldConfig(p=7, N=5), a=1, b=0,"
                                 " variant=<TorusVariant.UNRAMIFIED: 'unramified'>)"),
    (TorusElement(CONFIG, 1, 0, TorusVariant.CONJUGATED),
     "TorusElement(config=FieldConfig(p=7, N=5), a=1, b=0,"
     " variant=<TorusVariant.CONJUGATED: 'conjugated'>)"),
    (LieElement(CONFIG, 7), "LieElement(config=FieldConfig(p=7, N=5), y=7,"
                            " variant=<TorusVariant.UNRAMIFIED: 'unramified'>)"),
    (report(), "VerificationReport(p=3, N=8, eps=2, packet='nonregular', level=2, s='s1',"
               " a=1, b=3, valuation_b=1, classification='near',"
               " lhs=CycNumber(m=1, num=((0, -4),)), rhs=CycNumber(m=1, num=((0, -4),)),"
               " verdict='equal')"),
    (report("s2", 0, None, "unknown", None, None, "skipped(precision exhausted)"),
     "VerificationReport(p=3, N=8, eps=2, packet='nonregular', level=2, s='s2', a=1, b=0,"
     " valuation_b=None, classification='unknown', lhs=None, rhs=None,"
     " verdict='skipped(precision exhausted)')"),
    (SweepConfig("verify", [3, 5]),
     "SweepConfig(mode='verify', primes=[3, 5], precision=8, samples=20, seed=0,"
     " packet='nonregular', level=None, s='s1', sample_class='both',"
     " near_valuations=range(1, 4), fmt='jsonl', out=None)"),
    (SweepConfig("table", [3], level=1, out="t.txt"),
     "SweepConfig(mode='table', primes=[3], precision=8, samples=20, seed=0,"
     " packet='nonregular', level=1, s='s1', sample_class='both',"
     " near_valuations=range(1, 4), fmt='jsonl', out='t.txt')"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[text[:text.index("(")] for _, text in REPRS])
def test_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text


def test_a_cyclotomic_number_evaluates_back_from_its_repr():
    for value in (root_of_unity(12, 5) + 3, CycNumber.zero(), CycNumber.from_int(-7, 10)):
        assert eval(repr(value)) == value


# One instance of each formerly frozen class, and the cached facts it keeps.
FROZEN = [
    (root_of_unity(12, 5), ()),
    (CONFIG, ("eps", "modulus")),
    (CharacterLevel(1, 8), ()),
    (PacketSpec(CharacterLevel(1, 8)), ()),
    (KLEIN4, ()),
    (PROJ_S1, ()),
    (NEAR, ("valuation_b", "classification")),
    (LieElement(CONFIG, 7), ()),
]


@pytest.mark.parametrize("value, facts", FROZEN, ids=[type(v).__name__ for v, _ in FROZEN])
def test_frozen_refuses_assignment_and_deletion_and_caches_its_facts(monkeypatch, value, facts):
    for name in (*type(value)._fields, "other"):
        before = vars(value).get(name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert vars(value).get(name) is before
    for name in facts:
        fact, calls = type(value).__dict__[name], []
        monkeypatch.setattr(fact, "func",
                            lambda self, func=fact.func, calls=calls: calls.append(1) or func(self))
        fresh = type(value)(*(getattr(value, field) for field in type(value)._fields))
        assert name not in vars(fresh)
        assert getattr(fresh, name) == getattr(fresh, name) == getattr(value, name)
        assert calls == [1] and name in vars(fresh)


@pytest.mark.parametrize("value", [root_of_unity(12, 5), PROJ_S1, report(),
                                   SweepConfig("verify", [3])],
                         ids=["CycNumber", "ProjMatrix", "VerificationReport", "SweepConfig"])
def test_unhashable(value):
    assert type(value).__hash__ is None
    with pytest.raises(TypeError):
        hash(value)


def test_component_groups_compare_and_hash_by_identity():
    copy = ComponentGroup(KLEIN4.kind, KLEIN4.elements, KLEIN4.class_sizes, KLEIN4.table)
    assert copy != KLEIN4 and copy == copy
    assert hash(KLEIN4) == object.__hash__(KLEIN4)


# Two builds of one value, and a value that differs from it in one field.
BY_FIELDS = [
    (lambda: FieldConfig(7, 5), FieldConfig(7, 6)),
    (lambda: CharacterLevel(1, 8), CharacterLevel(3, 8)),
    (lambda: PacketSpec(CharacterLevel(1, 8)), PacketSpec(CharacterLevel(3, 8))),
    (lambda: TorusElement(CONFIG, NEAR.a, NEAR.b),
     TorusElement(CONFIG, NEAR.a, NEAR.b, TorusVariant.CONJUGATED)),
    (lambda: LieElement(CONFIG, 7), LieElement(CONFIG, 14)),
]


@pytest.mark.parametrize("build, other", BY_FIELDS,
                         ids=[type(other).__name__ for _, other in BY_FIELDS])
def test_frozen_values_compare_and_hash_by_their_fields(build, other):
    value = build()
    fields = tuple(getattr(value, name) for name in type(value)._fields)
    assert value == build() and value is not build()
    assert hash(value) == hash(build()) == hash(fields)
    assert value != other and not value == other
    assert value.__eq__(fields) is NotImplemented


def test_mutable_values_compare_by_their_fields():
    assert report() == report() and report() != report(verdict="unequal")
    assert report().__eq__(tuple(REPORT_FIELDS)) is NotImplemented
    sweep = SweepConfig("verify", [3, 5], samples=4)
    assert sweep == SweepConfig(mode="verify", primes=[3, 5], samples=4)
    assert sweep != SweepConfig("verify", [3, 5])
    sweep.samples = 20
    assert sweep == SweepConfig("verify", [3, 5])


@pytest.mark.parametrize("cls", [CycNumber, FieldConfig, CharacterLevel, PacketSpec,
                                 ComponentGroup, ProjMatrix, TorusElement, LieElement,
                                 VerificationReport])
def test_the_constructor_takes_the_fields_in_order(cls):
    # PacketSpec's kind, read off its level, is the one field __init__ does not take
    parameters = list(inspect.signature(cls).parameters)
    assert parameters == list(cls._fields[:len(parameters)])
    assert cls._fields[len(parameters):] == (("kind",) if cls is PacketSpec else ())


def test_the_report_schema_is_the_report_fields():
    assert REPORT_FIELDS == VerificationReport._fields
    assert len(REPORT_FIELDS) == 13


def test_sweep_options_default_to_class_attributes():
    mode, primes, *options = SweepConfig._fields
    sweep = SweepConfig("verify", [3])
    assert (sweep.mode, sweep.primes) == ("verify", [3])
    assert all(getattr(sweep, name) == vars(SweepConfig)[name] for name in options)
    assert vars(sweep) == {"mode": "verify", "primes": [3]}
    assert SweepConfig("verify", [3], seed=5).seed == 5 and SweepConfig.seed == 0
    with pytest.raises(TypeError, match="unexpected keyword argument 'sample'"):
        SweepConfig("verify", [3], sample=5)
    with pytest.raises(TypeError):
        SweepConfig("verify")
