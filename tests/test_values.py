from __future__ import annotations

import pickle

import pytest

from grassmult.difference import CheckReport
from grassmult.indices import validate
from grassmult.multiplicity import frobenius_coordinates

# (value, its fields, the repr a dataclass printed for it)
FROZEN = [
    (validate((1, 3), 4), ((1, 3), 4), "GrassmannIndex(entries=(1, 3), n=4)"),
    (
        frobenius_coordinates((3, 1)), ((2,), (1,)),
        "FrobeniusCoordinates(alpha=(2,), beta=(1,))",
    ),
    (
        CheckReport(True, 5), (True, 5, None, None, None),
        "CheckReport(ok=True, points_checked=5, witness=None, lhs=None, rhs=None)",
    ),
    (
        CheckReport(False, 5, witness=(1, 2), lhs=3, rhs=4), (False, 5, (1, 2), 3, 4),
        "CheckReport(ok=False, points_checked=5, witness=(1, 2), lhs=3, rhs=4)",
    ),
]


@pytest.mark.parametrize(
    "value, fields, text", FROZEN, ids=["index", "frobenius", "check_ok", "check_witness"]
)
def test_frozen_value_contract(value, fields, text):
    # A value that cannot be unpickled kills every pool worker it is sent
    # to, and Pool.starmap then waits forever: fail here instead.
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value)
    names = type(value).__slots__
    assert type(value)(*fields) == value == type(value)(**dict(zip(names, fields)))
    assert repr(value) == text
    assert value != fields
    with pytest.raises(AttributeError):
        setattr(value, names[0], fields[0])
    with pytest.raises(AttributeError):
        delattr(value, names[0])

