"""The value types are plain frozen slotted classes, and importing the
package loads no ``dataclasses``.

Each type keeps the contract it had as a frozen dataclass: positional
and keyword construction with the same defaults and validation, field-wise
``==`` and ``hash``, the same ``repr`` text, pickle and copy round trips,
``FrozenInstanceError`` on assignment and deletion, and ``__match_args__``.
"""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import quatcube
from quatcube import (
    Case,
    CaseTag,
    Decomposition,
    LemmaReport,
    Quaternion,
    ResidueClass,
    RingParams,
    SearchConfig,
)
from quatcube.quat import _Frozen

# (type, positional arguments, repr text as a frozen dataclass printed it)
VALUES = [
    (RingParams, (3, 2), "RingParams(a=3, b=2)"),
    (Quaternion, (RingParams(3, 2), 7, -1, 0, 12), "Quaternion((3,2); 7-i+12k)"),
    (CaseTag, (Case.CASE2B, True), "CaseTag(case=<Case.CASE2B: 'Case2b'>, swapped=True)"),
    (ResidueClass, (1, 2, 3, 4, 5, 0), "ResidueClass(r0=1, r1=2, r2=3, r3=4, a6=5, b6=0)"),
    (SearchConfig, (4, 2, 1), "SearchConfig(max_cubes=4, coeff_bound=2, outer_bound=1)"),
    (
        LemmaReport,
        (CaseTag(Case.CASE1), 192, (ResidueClass(1, 1, 1, 1, 2, 1),), 1296),
        "LemmaReport(case=CaseTag(case=<Case.CASE1: 'Case1'>, swapped=False), "
        "classes_checked=192, failures=(ResidueClass(r0=1, r1=1, r2=1, r3=1, a6=2, b6=1),), "
        "pair_targets_checked=1296)",
    ),
]
# Decomposition compares, hashes, prints and pickles by the same base
_TARGET = Quaternion(RingParams(1, 1), 8, 0, 0, 0)
CONTRACT = VALUES + [(
    Decomposition,
    (_TARGET, (Quaternion(RingParams(1, 1), 2, 0, 0, 0),), CaseTag(Case.CASE1)),
    "Decomposition(target=Quaternion((1,1); 8), roots=(Quaternion((1,1); 2),), "
    "case=CaseTag(case=<Case.CASE1: 'Case1'>, swapped=False))",
)]
FIELDS = {
    RingParams: ("a", "b"),
    Quaternion: ("params", "c0", "c1", "c2", "c3"),
    CaseTag: ("case", "swapped"),
    ResidueClass: ("r0", "r1", "r2", "r3", "a6", "b6"),
    SearchConfig: ("max_cubes", "coeff_bound", "outer_bound"),
    LemmaReport: ("case", "classes_checked", "failures", "pair_targets_checked"),
    Decomposition: ("target", "roots", "case"),
}
IDS = [cls.__name__ for cls, _, _ in CONTRACT]


@pytest.mark.parametrize("cls, args, text", CONTRACT, ids=IDS)
def test_value_type_contract(cls, args, text):
    fields = FIELDS[cls]
    value = cls(*args)
    assert cls.__match_args__ == fields
    assert tuple(getattr(value, name) for name in fields) == args
    assert cls(**dict(zip(fields, args))) == value
    assert repr(value) == text
    twin = cls(*args)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    for dup in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(dup) is cls and dup == value and hash(dup) == hash(value)
    # no instance dict: the fields are slots
    assert not hasattr(value, "__dict__")
    for name in fields:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == args


@pytest.mark.parametrize("cls, args, _", VALUES, ids=IDS[:-1])
def test_value_types_equal_only_their_own_class(cls, args, _):
    value = cls(*args)
    assert value != args and value != object()
    assert value != cls(*args[:-1], args[-1] + 1)


def test_value_type_defaults():
    assert CaseTag(Case.CASE1).swapped is False
    cfg = SearchConfig(3)
    assert (cfg.coeff_bound, cfg.outer_bound, cfg.outer) == (10, None, 10)
    assert repr(cfg) == "SearchConfig(max_cubes=3, coeff_bound=10, outer_bound=None)"
    assert SearchConfig(max_cubes=3, outer_bound=4) == SearchConfig(3, 10, 4)


@pytest.mark.parametrize("build, message", [
    (lambda: RingParams(0, 1), r"ring parameters must be positive integers, got \(0, 1\)"),
    (lambda: ResidueClass(6, 0, 0, 0, 0, 0), "residues must lie in 0..5, got 6"),
    (lambda: SearchConfig(5), "max_cubes must be in 1..4, got 5"),
], ids=["ring", "residues", "max-cubes"])
def test_value_type_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_decomposition_is_frozen_by_the_shared_base():
    for name in ("__setattr__", "__delattr__"):
        assert name not in vars(Decomposition)
        assert getattr(Decomposition, name) is getattr(_Frozen, name)


def test_importing_the_package_loads_no_dataclasses():
    # -S keeps the interpreter's own site imports out of the check
    src = Path(quatcube.__file__).resolve().parent.parent
    code = (
        "import sys, quatcube, quatcube.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
        "'typing') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
