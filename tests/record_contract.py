"""The contract of the package's records, as plain checks.

``diagram.Crossing``, ``diagram.Edge`` and ``analysis.TwistRegion`` are
frozen, slotted dataclasses, each with an ``__init__`` of its own.  The checks below hold them
to what a frozen dataclass promises: no write or delete, no instance
dict, field-wise ``==``, ``hash`` and ``repr``, the same construction by
position, by keyword and with defaults, and ``dataclasses.replace``,
``copy`` and ``pickle``.  Each check raises AssertionError when the contract fails.

``test_records.py`` runs them under pytest.  To check an interpreter
that has no pytest, run this file alone from the root of a checkout:

    PYTHONPATH=src python tests/record_contract.py
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

from altknot.analysis import RegionTopology, TwistRegion
from altknot.diagram import Crossing, Edge

# (class, field names, sample field values, other values field by field)
RECORDS = [
    (Crossing, ("id", "slots", "over_slots"), (3, (1, 2, 3, 4), (0, 2)), (4, (1, 2, 4, 3), (1, 3))),
    (Edge, ("id", "ends", "origin", "component"), (5, ((0, 1), (2, 3)), 5, 0), (6, ((0, 1), (2, 2)), None, 1)),
    (
        TwistRegion,
        ("crossings", "bigons", "links", "topology"),
        (frozenset({1, 2}), (3,), ((3, 4, 1),), RegionTopology.DISK),
        (frozenset({1}), (), (), RegionTopology.ANNULUS),
    ),
]


def check_frozen(cls, names, values, _other) -> None:
    rec = cls(*values)
    for name in names:
        for attempt in (lambda: setattr(rec, name, None), lambda: delattr(rec, name)):
            try:
                attempt()
            except dataclasses.FrozenInstanceError:
                pass
            else:
                raise AssertionError(f"{cls.__name__}.{name} could be written or deleted")
    assert tuple(getattr(rec, name) for name in names) == values
    assert not hasattr(rec, "__dict__"), cls.__name__
    assert tuple(f.name for f in dataclasses.fields(cls)) == names


def check_fieldwise(cls, names, values, other) -> None:
    rec = cls(*values)
    twin = cls(*values)
    assert rec == twin and hash(rec) == hash(twin) and rec is not twin
    for i in range(len(names)):
        changed = cls(*values[:i], other[i], *values[i + 1:])
        assert rec != changed, (cls.__name__, names[i])
    body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(rec) == f"{cls.__name__}({body})"
    assert rec != values and (rec == values) is False


# the fields that have defaults, and those defaults
DEFAULTS = {Crossing: {"over_slots": (1, 3)}}


def check_construction(cls, names, values, _other) -> None:
    rec = cls(*values)
    assert cls(**dict(zip(names, values))) == rec
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == rec
    defaults = DEFAULTS.get(cls, {})
    for name in names:
        kwargs = dict(zip(names, values))
        del kwargs[name]
        if name in defaults:
            assert getattr(cls(**kwargs), name) == defaults[name]
        else:
            try:
                cls(**kwargs)
            except TypeError:
                pass
            else:
                raise AssertionError(f"{cls.__name__} built without {name}")
    # positionally, the fields with defaults come last
    required = len(names) - len(defaults)
    assert dataclasses.astuple(cls(*values[:required])) == values[:required] + tuple(defaults.values())


def check_copies(cls, names, values, other) -> None:
    rec = cls(*values)
    for dup in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(dup) is cls and dup == rec and hash(dup) == hash(rec)
    for i, name in enumerate(names):
        changed = dataclasses.replace(rec, **{name: other[i]})
        assert getattr(changed, name) == other[i] and changed != rec
        assert rec == cls(*values)
    assert dataclasses.astuple(rec) == tuple(copy.deepcopy(values))


CHECKS = [check_frozen, check_fieldwise, check_construction, check_copies]


def main() -> None:
    for check in CHECKS:
        for record in RECORDS:
            check(*record)
    print(f"{len(CHECKS)} checks on {len(RECORDS)} records: ok")


if __name__ == "__main__":
    main()
