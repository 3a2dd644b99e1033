"""Golden bytes of the march: node arrays, pieces and the one-period state.

tests/report_digests.json pins every bundled report, but no report holds a
trajectory's pieces or its _period_state.  These hashes pin them for a
few marches that between them take every path of the sweep: the head and
the one-period recursion, a solve and a step_interval chain, the Gauss-4
and the RK4 scans, a closed-form tail and a growing one.  A change to the
march that claims to keep its bits must leave them as they are.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import infidelay as fd
from infidelay import CoefficientFamily, ProblemSpec, history_preset, solve, step_interval
from infidelay.scenario import _SCENARIO, _Anchored
from test_stepper import DS, march_long_problem

_BUNDLED = Path(fd.__file__).parent / "scenarios"


def _bundled(name: str) -> tuple:
    """A bundled scenario's (problem, horizon)."""
    path = _BUNDLED / f"{name}.json"
    v = _Anchored(None, str(path)).read(json.loads(path.read_text()), _SCENARIO, "scenario")
    return ProblemSpec(**v["problem"]), v["horizon"]


def _march_long_chain():
    traj = solve(march_long_problem(), 16.0)
    for k in range(16, 32):
        traj = step_interval(traj, k)
    return traj


_MARCHES = {
    "march-long": lambda: solve(march_long_problem(), 32.0),
    "march-long-chain": _march_long_chain,
    "power-law-3": lambda: solve(ProblemSpec(-0.5, CoefficientFamily.power_law(1.0, 3.0, DS), history_preset("constant")), 4.0),
    "affine-delays": lambda: solve(*_bundled("affine-delays")),
    "affine-delays-oracle": lambda: fd.oracle_solve(*_bundled("affine-delays")),
    "cg-embedding": lambda: solve(*_bundled("cg-embedding")),
    "cg-embedding-oracle": lambda: fd.oracle_solve(*_bundled("cg-embedding")),
}

#: sha256 of tobytes() of grid, values, derivs, pieces and the _period_state arrays, in that order
_GOLDEN = {
    'march-long': [
        'd4f05955849dfbeaba2f14729fd03e9c4f40fca401f638a9e6892c34685f137e',
        'db9816d2f26f52f8f7ed7ccd146fffe19d3ddecf754485797ee822a39b146673',
        'ca8c50da74b21575736226b4c9313a6fea60f99f16ddfd32453b5b3a0355cbf7',
        '868aabd5752c4a000a6e04dc11e7c74959ee168595927bb6ead1bdc9c484f5ec',
        'df14a73ef3ccda062f737b5f8b8afc1ff36db339e26790bf0212519c4dd8191a',
        'e6dc9f8ae26cfe65ad69fba84bd6193464661c81222480606f206cf4e3223769',
        '1efef4386f68a574d267a8008c30364910d1b5835fff0990dd674aca4d9effcf',
    ],
    'march-long-chain': [
        'd4f05955849dfbeaba2f14729fd03e9c4f40fca401f638a9e6892c34685f137e',
        'db9816d2f26f52f8f7ed7ccd146fffe19d3ddecf754485797ee822a39b146673',
        'ca8c50da74b21575736226b4c9313a6fea60f99f16ddfd32453b5b3a0355cbf7',
        '868aabd5752c4a000a6e04dc11e7c74959ee168595927bb6ead1bdc9c484f5ec',
        'df14a73ef3ccda062f737b5f8b8afc1ff36db339e26790bf0212519c4dd8191a',
        'e6dc9f8ae26cfe65ad69fba84bd6193464661c81222480606f206cf4e3223769',
        '1efef4386f68a574d267a8008c30364910d1b5835fff0990dd674aca4d9effcf',
    ],
    'power-law-3': [
        '86d5a16816b2d2b1bd23753c8c184bf445ae55072200c877c07666ce1cbc4aa0',
        'a62f1ed5bb961646a94d415d39c043640294d619eba708eee72ec5d3596f3ce4',
        'ee31d1e4c3afd147be81f867e8a54581c8542f9a8673f022201ad852f0bf28b9',
        'd38c0dcb6e3b781e3ee5c7b557f6bd4dcc0044fe83c7802b70df108e72d93e8d',
    ],
    'affine-delays': [
        'b0d1529204608355a75f978decd302ee12fb16ef74c175da58e7df43a074166a',
        '1217eac08f0cd2d8ad8c0ef8ece76a22f986d5eb0fc65cf6d8b4bb8312f849d3',
        '3b3bad9201832a3d1beb80d3a63e89fd5c2ac1d1f226c1f5c82e3f7f30ffaf31',
        '7132e24a4e3abebc85d4f0a8bf5dc7e1b281458a0f6f705d3cbab2998eb9e554',
    ],
    'affine-delays-oracle': [
        '4a1730f8fd3b834d0f67a06e238dd3d0f6f533ecc79c62f8f9fe5fef9518e821',
        'b7c9b34228ecfe5d82bd06b4cd56401f14b1f3218a7e00b68ef8a5b8cf2b8a62',
        '38f4e2313202942c9bdc7be4569d57d7c4ebfb7301e5b637932cac52cd815c72',
        '7a1e9f0af58696b66e8d5a58596618ecd3cfa938280942ab68e2e8d1f92359f3',
    ],
    'cg-embedding': [
        '0c059ab296b710cb261477aa22b0301a83bc87aefbabeec74f14ca14be76b6ae',
        'b00e63906cd805b3e93f1a2a321104b189690612dad14d90fa0fab960c129412',
        '6cb5ccb3eb560ef8a460c09cf562683013f2bc90fc22a1d0f5b69e959935ef67',
        '871a8d6a670dd331bb44d7c0f432282d1af38e70bdcff61564a1ae33271baca2',
        'c33eda270025b43053715ed09ca99321720c6c144300b7306ed5335e2cdd101c',
        'f8bff368862414b6bc27e09a9cdfbd5b09e6ce9289f078c7814ffee94276ccba',
        '5ed9a7572a54b7246071829b3b9e2de6b24414f4ba9ec0a226e92c29e336425e',
    ],
    'cg-embedding-oracle': [
        '6b53e01bcd732749c9e9a3430b202248509e11ccf62de71c2d8c6b39e1c9a91b',
        '4db81193e6aa19ac2fa689471e0475afa0be4ddf589f69cdb8008b11353a6322',
        '6364fcfa1ac54e2751aae34213505b69a1b0e10350008faf9ecb6ba1a5f23692',
        'c02d0dd3ec75d7970e2f0b772c2bb8d03502d8eaad19909552bff23bcd42a3dc',
        'd1492211aecc55b7c58d8bf976a45cb837fac056b928d2a972f8a9680945a38d',
        '98fff8bcc8ec6068a995947d18dcb74403ec9d848f920df7dd5522685ba9251e',
        'b7b52faa80e7560ee9f5d4f6460674d3022fcf7135e7c92c9e5279ad97aacfde',
    ],
}


def _digests(traj) -> list:
    arrays = (traj.grid, traj.values, traj.derivs, traj.pieces, *traj._period_state)
    return [hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest() for arr in arrays]


@pytest.mark.parametrize("name", list(_MARCHES))
def test_the_march_keeps_its_golden_bytes(name):
    assert _digests(_MARCHES[name]()) == _GOLDEN[name]
