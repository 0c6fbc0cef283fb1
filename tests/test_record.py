"""The record types against ``dataclasses`` twins, and an import that
compiles no generated source."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from muspec import evolution, exprparse, params, rates, relations, spectrum, theorems
from muspec.params import CONTINUOUS, DISCRETE, Params

MODULES = (evolution, exprparse, params, rates, relations, spectrum, theorems)

# every record type with its dataclass flags (frozen, eq)
FLAGS = {
    "ScaledMatrix": (True, False), "ExprSource": (True, False), "TableSource": (True, False),
    "RateQuotientSource": (True, False), "LinearSystem": (True, False),
    "WeightedSystem": (True, False), "Fixture": (True, False),
    "Num": (True, True), "Var": (True, True), "Neg": (True, True), "Bin": (True, True),
    "Call": (True, True), "Params": (True, True), "PowerExp": (True, True),
    "Polynomial": (True, True), "ExpressionRate": (True, True), "Glued": (True, True),
    "RateValidation": (True, True),
    "RelationProfile": (True, True), "BohlEstimate": (True, True),
    "SpectralInterval": (True, True), "SpectralGap": (True, True),
    "SpectrumReport": (True, True), "DichotomyVerdict": (True, True),
    "GrowthVerdict": (True, True),
    "RelationVerdict": (False, True), "PairClassification": (False, True),
    "ChainLink": (False, True), "ChainReport": (False, True), "TheoremReport": (False, True),
}
FACTORIES = {("RelationVerdict", "diagnostics"): dict, ("RelationVerdict", "grid"): dict,
             ("Fixture", "expected"): dict}


def _record_types() -> dict:
    found = {}
    for module in MODULES:
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and getattr(obj.__init__, "__module__", None) == "muspec._record"):
                found[name] = obj
    return found


RECORDS = _record_types()


def _samples() -> dict:
    """Arguments of one valid instance of every record type."""
    pe = rates.PowerExp(2.0)
    system = evolution.scalar_system(DISCRETE, "1")
    bohl = spectrum.BohlEstimate(-1.0, 1.0, ((50, -1.0, 1.0),), False, False, True, True, 7, 0.5)
    report = spectrum.SpectrumReport({"kind": "q"}, {"k": 1}, (spectrum.SpectralInterval(0.0, 1.0),),
                                     (), "exact", True, (50,), (bohl,), 0.01, Params())
    verdict = relations.RelationVerdict("faster", "ab", "holds")
    return {
        "ScaledMatrix": (np.eye(2), 0.5),
        "ExprSource": (None, None, None, None),
        "TableSource": (0, np.ones((2, 1, 1))),
        "RateQuotientSource": (pe, (1.0,)),
        "LinearSystem": (DISCRETE, 1, evolution.SCALAR, system.source),
        "WeightedSystem": (system, pe, 0.5),
        "Fixture": ("f", system),
        "Num": (1.5,), "Var": ("t",), "Neg": (exprparse.Num(1.0),),
        "Bin": ("+", exprparse.Num(1.0), exprparse.Var("t")),
        "Call": ("abs", (exprparse.Var("t"),)),
        "Params": ((50, 100), 0.01),
        "PowerExp": (2.0, 3.0),
        "Polynomial": (CONTINUOUS,),
        "ExpressionRate": ("k",),
        "Glued": (rates.PowerExp(1.0, 1.0, CONTINUOUS), rates.PowerExp(2.0, 1.0, CONTINUOUS), 1.5),
        "RateValidation": ((), 0.0, True, (-1.0, 1.0), 21),
        "RelationProfile": (True, False) * 4,
        "BohlEstimate": (-1.0, 1.0, ((50, -1.0, 1.0),), False, False, True, True, 7, 0.5),
        "SpectralInterval": (0.0, 1.0),
        "SpectralGap": (1.0, 2.0, 1, (1, 0)),
        "SpectrumReport": tuple(getattr(report, name) for name in _fields(spectrum.SpectrumReport)),
        "DichotomyVerdict": (True, 1, report),
        "GrowthVerdict": ("holds", 1.0, report),
        "RelationVerdict": ("faster", "ab", "holds"),
        "PairClassification": ({}, "a", "b", "c", "d", None, []),
        "ChainLink": (0, "holds", verdict, verdict),
        "ChainReport": ("holds", [], None),
        "TheoremReport": ("t", "f", {}, [], None, "pass"),
    }


def _fields(cls) -> tuple:
    return tuple(cls.__annotations__)


def _twin(cls):
    """The dataclass the record type was before: same fields, defaults and flags."""
    frozen, eq = FLAGS[cls.__name__]
    slots = "__slots__" in cls.__dict__
    spec = []
    for name in _fields(cls):
        if (cls.__name__, name) in FACTORIES:
            spec.append((name, object, dataclasses.field(default_factory=FACTORIES[cls.__name__, name])))
        elif not slots and name in cls.__dict__:
            spec.append((name, object, dataclasses.field(default=cls.__dict__[name])))
        else:
            spec.append((name, object))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=frozen, eq=eq, slots=slots)


def _outcome(fn):
    """What a call gives: ("ok", value), or the error's name, message and
    whether it is an AttributeError or a TypeError."""
    try:
        return "ok", fn()
    except (AttributeError, TypeError) as exc:
        return type(exc).__name__, str(exc), isinstance(exc, AttributeError)


def test_every_record_type_is_listed():
    assert sorted(RECORDS) == sorted(FLAGS) and len(RECORDS) == 30
    assert set(_samples()) == set(FLAGS)


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_record_matches_its_dataclass_twin(name):
    cls = RECORDS[name]
    twin = _twin(cls)
    fields = _fields(cls)
    args = _samples()[name]
    a, b = cls(*args), cls(*args)
    ta, tb = twin(*args), twin(*args)
    full = tuple(getattr(a, f) for f in fields)
    assert full == tuple(getattr(ta, f) for f in fields)

    assert repr(a) == repr(ta)
    assert repr(cls(**dict(zip(fields, full)))) == repr(a)
    assert (a == a, a == b, a != b, a == object()) == (ta == ta, ta == tb, ta != tb, ta == object())
    hashed, thashed = _outcome(lambda: hash(a)), _outcome(lambda: hash(ta))
    if hashed[0] == "ok":
        assert thashed[0] == "ok"
        assert hashed[1] == (hash(full) if FLAGS[name][1] else object.__hash__(a))
    else:
        assert hashed == thashed

    assert _outcome(lambda: setattr(a, fields[0], full[0])) == \
        _outcome(lambda: setattr(ta, fields[0], full[0]))
    other = _outcome(lambda: setattr(a, "other", 1))
    if "__slots__" in cls.__dict__:
        # a frozen slots dataclass raises TypeError on Python 3.11: its
        # __setattr__ checks the class that slots=True replaced
        assert other == ("FrozenInstanceError", "cannot assign to field 'other'", True)
    else:
        assert other == _outcome(lambda: setattr(ta, "other", 1))
    assert _outcome(lambda: delattr(b, fields[-1])) == _outcome(lambda: delattr(tb, fields[-1]))

    calls = [lambda c: c(*full, None), lambda c: c(*args, nosuch=1),
             lambda c: c(*args, **{fields[0]: args[0]})]
    first = dataclasses.fields(twin)[0]
    if first.default is first.default_factory is dataclasses.MISSING:
        calls.append(lambda c: c())  # a required field missing
    for call in calls:
        assert _outcome(lambda: call(cls))[0] == _outcome(lambda: call(twin))[0] == "TypeError"


def test_default_factories_make_fresh_objects():
    for (name, field), factory in FACTORIES.items():
        cls = RECORDS[name]
        args = _samples()[name]
        for kind in (cls, _twin(cls)):
            first, second = kind(*args), kind(*args)
            assert getattr(first, field) == factory()
            assert getattr(first, field) is not getattr(second, field)


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_records_copy_and_pickle(name):
    record = RECORDS[name](*_samples()[name])
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and repr(clone) == repr(record)
        if FLAGS[name][1]:
            assert clone == record


def test_import_compiles_no_generated_source():
    """Decorating the record types compiles nothing: no compile event of
    ``<string>`` source while the package and its CLI import."""
    script = "\n".join([
        "import argparse, csv, json, sys",
        "import numpy",
        "count = 0",
        "def hook(event, args):",
        "    global count",
        "    if event == 'compile' and args[1] == '<string>':",
        "        count += 1",
        "sys.addaudithook(hook)",
        "import muspec, muspec.cli",
        "print(count)",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
