"""Dimension laws on T_n and M_n at sizes past Tier-1's reach.

Tier-1 checks every kind on T_2-T_6 and M_2-M_5.  Here ltc and ltd are
checked on T_7-T_14 and M_6-M_10, and der and jder on M_6-M_8, each
solve against ``oracles.dimension_law``, a function of n alone that
shares no code with the solver.  The ltc and ltd bases on T_10, T_12
and M_8 are pinned byte for byte as the sha256 of their canonical JSON,
so a change to the echelon that moves a pivot or a scale fails here
though every dimension holds.  This directory is outside
``testpaths``, so Tier-1 does not collect it; run it with
``python -m pytest -q slow``.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from lietriple.catalog import full_matrix, upper_triangular
from lietriple.centralizers import IdentityKind, solve_identity_space
from lietriple.io import dump_json

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import dimension_law  # noqa: E402

CASES = [
    *(("T", n, kind) for n in range(7, 15) for kind in ("ltc", "ltd")),
    *(("M", n, kind) for n in range(6, 11) for kind in ("ltc", "ltd")),
    *(("M", n, kind) for n in range(6, 9) for kind in ("der", "jder")),
]


# sha256 of dump_json({"basis": space.basis}) for each solve
BASIS_DIGESTS = {
    ("T", 10, "ltc"): "6b8d717c7264640e97736876aa8d4caea81f0e68f4b3262a29aedb61c0c3f56c",
    ("T", 10, "ltd"): "201bb87eac7e4226fdb10f128cbe8bbd37294741f800b295f8a53b89eb5e6cc4",
    ("T", 12, "ltc"): "b2e2f02825932416963875a1b76c822a87844aa704105c149299b47e901dffe8",
    ("T", 12, "ltd"): "c9f64b8ab50d7cdffc4017fdbb2bf706df7a3c4c1f7e075bdabcfb275b8f74c9",
    ("M", 8, "ltc"): "b3d49bd86c499e04f2a600092d2631ed2d0e86ed7d59950b2b2c60b81e9eef1d",
    ("M", 8, "ltd"): "2f55243f43d76d105246552bbb3f3c4a0cac6a9ac825d387f7d00d5add733822",
}


@pytest.mark.parametrize("family, n, kind", CASES, ids=[f"{f}{n}-{kind}" for f, n, kind in CASES])
def test_solution_dimension_follows_the_law_in_n(family, n, kind):
    alg = (upper_triangular if family == "T" else full_matrix)(n)
    space = solve_identity_space(alg, IdentityKind(kind))
    assert space.dim == dimension_law(family, n, kind)
    if (family, n, kind) in BASIS_DIGESTS:
        assert hashlib.sha256(dump_json({"basis": space.basis}).encode()).hexdigest() == BASIS_DIGESTS[family, n, kind]
