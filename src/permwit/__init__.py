"""permwit: permutation-group toolkit.

Builds and machine-verifies transitive groups that carry a transitive and
a non-transitive normal subgroup with isomorphic quotients, enumerates
all transitive groups of small prime degree from scratch, and runs a
seeded refutation pipeline for degrees where no such configuration can
exist.
"""

from permwit.errors import (
    BlockStructureError,
    BudgetExceeded,
    CycleParseError,
    DegreeMismatch,
    GroupFileError,
    HypothesisError,
    IsomorphismUndecided,
    NotASubgroup,
    NotNormal,
    PermwitError,
)
from permwit.group import NormalSubgroup, PermGroup, is_normal
from permwit.perm import Permutation, parse_cycles

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "PermGroup",
    "NormalSubgroup",
    "parse_cycles",
    "is_normal",
    "PermwitError",
    "DegreeMismatch",
    "CycleParseError",
    "NotASubgroup",
    "NotNormal",
    "BudgetExceeded",
    "HypothesisError",
    "BlockStructureError",
    "IsomorphismUndecided",
    "GroupFileError",
    "__version__",
]
