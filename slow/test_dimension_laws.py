"""Dimension laws on T_n and M_n at sizes past Tier-1's reach.

Tier-1 checks every kind on T_2-T_6 and M_2-M_5.  Here ltc and ltd are
checked on T_7-T_14 and M_6-M_10, and der and jder on M_6-M_8, each
solve against ``oracles.dimension_law``, a function of n alone that
shares no code with the solver.  This directory is outside
``testpaths``, so Tier-1 does not collect it; run it with
``python -m pytest -q slow``.
"""

import sys
from pathlib import Path

import pytest

from lietriple.catalog import full_matrix, upper_triangular
from lietriple.centralizers import IdentityKind, solve_identity_space

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import dimension_law  # noqa: E402

CASES = [
    *(("T", n, kind) for n in range(7, 15) for kind in ("ltc", "ltd")),
    *(("M", n, kind) for n in range(6, 11) for kind in ("ltc", "ltd")),
    *(("M", n, kind) for n in range(6, 9) for kind in ("der", "jder")),
]


@pytest.mark.parametrize("family, n, kind", CASES, ids=[f"{f}{n}-{kind}" for f, n, kind in CASES])
def test_solution_dimension_follows_the_law_in_n(family, n, kind):
    alg = (upper_triangular if family == "T" else full_matrix)(n)
    assert solve_identity_space(alg, IdentityKind(kind)).dim == dimension_law(family, n, kind)
