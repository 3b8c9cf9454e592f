"""The records' contract: field order, defaults, repr and which are immutable."""

import numpy as np
import pytest

from starktoric.dynamics import Trajectory
from starktoric.levi_civita import EnergySplit, RegularizedState
from starktoric.stark_model import HillGrid, PlanarState
from starktoric.toric_profile import (CERTIFICATE_SCHEMA, ConvexityCertificate, MomentImagePoint,
                                      ToricProfile)

_ARRAY = np.linspace(0.0, 2.0, 3)
_CELLS = np.eye(2, dtype=bool)

# each record with its fields in order, a value for each, and its defaults
RECORDS = [
    (Trajectory, [("times", _ARRAY), ("states", np.zeros((3, 4))), ("energy_drift", 1e-15)], {}),
    (EnergySplit, [("e1", 1.5), ("e2", 0.5)], {}),
    (HillGrid, [("eps", 0.05), ("radius", 20.0), ("centers", _ARRAY[:2]), ("allowed", _CELLS),
                ("bounded", ~_CELLS), ("unresolved", False), ("n_components", 2)], {}),
    (MomentImagePoint, [("c", 1.0), ("x", 6.2), ("y", 6.4)], {}),
    (ToricProfile, [("eps", 0.05), ("cs", _ARRAY[::-1]), ("xs", _ARRAY), ("ys", _ARRAY[::-1]),
                    ("slopes", -_ARRAY), ("second_derivs", _ARRAY)], {}),
    (ConvexityCertificate, [("eps", 0.05), ("c_grid", [2.0, 1.0, 0.0]), ("min_f_second", 1e-3),
                            ("max_fd_residual", 1e-9), ("verdict", "pass"), ("fd_tol", 1e-4),
                            ("fd_checked", 1), ("fd_total", 1), ("schema", 1)],
     {"schema": CERTIFICATE_SCHEMA}),
    (RegularizedState, [("z", (1.0, 0.5)), ("w", (0.0, 1.0))], {}),
    (PlanarState, [("q", (1.0, 0.0)), ("p", (0.0, 1.0))], {}),
]
# the result records are named tuples; the states are mutable
TUPLES = {Trajectory, EnergySplit, HillGrid, MomentImagePoint, ToricProfile, ConvexityCertificate}


def _holds(record, fields) -> bool:
    return all(np.array_equal(getattr(record, name), value) for name, value in fields)


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaults):
    values = [value for _, value in fields]
    by_position, by_name = cls(*values), cls(**dict(fields))
    assert _holds(by_position, fields) and _holds(by_name, fields)
    given = [(name, value) for name, value in fields if name not in defaults]
    assert _holds(cls(**dict(given)), [*given, *defaults.items()])
    assert repr(by_name).startswith(f"{cls.__name__}({fields[0][0]}=")
    if cls in TUPLES:
        assert len(by_name) == len(fields)
        assert all(np.array_equal(a, b) for a, b in zip(by_name, values))
        with pytest.raises(AttributeError):
            setattr(by_name, fields[0][0], values[0])
