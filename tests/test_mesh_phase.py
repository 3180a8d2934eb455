"""Assembly split into a mesh phase and a quadrature phase.

The Vandermonde, shape coefficients and dof layout depend only on the mesh
and the variant; a quadrature only selects reference tables.  Golden SHA-256
digests of the assembled matrices pin every byte through that split.
"""

import functools
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from ratfem import guzman_neilan as gn
from ratfem import solvers
from ratfem import zienkiewicz as zk
from ratfem.experiments import (eigen_rows, graded_lshape_meshes,
                                run_exp3_stokes, stokes_load, stokes_mesh)
from ratfem.mesh import refine_uniform, unit_square_mesh

QUADRATURES = ("exact", 2, 11)
STOKES_QUADRATURES = ("exact", 1, 16)


@functools.cache
def lshape_meshes():
    return tuple(mesh for _, mesh in graded_lshape_meshes(
        theta=0.5, budget=10000, uniform_interval=2, solve_start=120,
        solve_factor=1.3))


def matrix_digest(*parts):
    """SHA-256 over the indptr/indices/data bytes of sparse parts and the
    bytes of dense ones."""
    digest = hashlib.sha256()
    for part in parts:
        arrays = ((part.indptr, part.indices, part.data) if sp.issparse(part)
                  else (part,))
        for array in arrays:
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def case_system(case):
    kind, key, variant, quadrature = case
    if kind == "plate":
        return zk.assemble_biharmonic(lshape_meshes()[key], variant=variant,
                                      quadrature=quadrature)
    return gn.assemble_stokes(stokes_mesh(key), f=stokes_load, variant=variant,
                              quadrature=quadrature)


def case_digest(case):
    s = case_system(case)
    return matrix_digest(s.A, s.M) if case[0] == "plate" else matrix_digest(
        s.A, s.B, s.b)


#: The systems' plate (A, M) and Stokes (A, B, b): stiffness and mass on
#: free x free, the divergence matrix on free rows, the load on all dofs.
#: Taken at the commit before they became free-dof blocks, as A[free][:, free],
#: M[free][:, free] or B[free], and b, over every mesh of exp2 at budget 10000
#: (full variant, its largest also reduced) and the 2048-element Stokes mesh,
#: both variants.  The plate digests were re-taken over (A, M) alone, at the
#: commit before the plate lost its load: A and M kept their bytes.
#: The rule-16 Stokes digests were re-taken when the rule tables lost their
#: mean of one, 2 sum w_q: they are what the earlier code gives with it 1.0.
#: The rule-n Stokes digests were re-taken again when a rule's load became
#: the moments of its P2 interpolant: A and B kept their bytes, b moved by
#: roundoff (the load is quadratic, so the interpolant is the load itself).
MATRIX_DIGESTS = {
    ("plate", 0, "full", "exact"): "ad5e1f76058b76123b29b7a1c6fc37b2cde4bc4799484cbc9aa63eac7a337773",
    ("plate", 0, "full", 2): "d70d286b31b22fd55a48f1e356e43e3104d13e20d0d3e3f682ef9166d61f0e26",
    ("plate", 0, "full", 11): "a3ad759db25d85f537143d8a8c91192ed2e477a2d8657512353ac392015ca6cd",
    ("plate", 1, "full", "exact"): "3eb984f75d009c08c8754a0bf9e87dff7b24123f6cfaacf1826b1802f7913747",
    ("plate", 1, "full", 2): "4674fe3ec6837d8f70a34c9308c07d80d54bd4c90a571d01b94dcfc53129eec3",
    ("plate", 1, "full", 11): "1f335259d351463555e6d51164ad9dcdb84d6d9c7a5628894df10d7f1bf73ee6",
    ("plate", 2, "full", "exact"): "86669b0edd0c412e389e299ca1698dab1eccfe5057ba62a9b0d0c0e2d002b0e4",
    ("plate", 2, "full", 2): "7d0555b1fd73fbc838e680e516c1c5a6e2f0cd316d955d886c81d325a6be2714",
    ("plate", 2, "full", 11): "7762764e91a1baa1fa97c7b1e5288eb622e1efbb447fd480a6e8f6e865aeee8b",
    ("plate", 3, "full", "exact"): "7f9414f2971f1fd1fd668e2a02ec9ce3ce39a83873c27a3845addecd44120000",
    ("plate", 3, "full", 2): "a3c2cbe03a0238b145b5cc9349a5253ffb9b989a860b6c1a49a9a25fe16f4f5e",
    ("plate", 3, "full", 11): "8fe1bacdf9cd6d73b9ee56b81f4d20f5acfcce9e991ee80d8a265a710e1972c0",
    ("plate", 4, "full", "exact"): "b3e616ee28c1a230caa6f0bd4d720e161853c3835d753a526ed560bd1c38dc88",
    ("plate", 4, "full", 2): "f4ef6cb60f3469e3879c545c9b918bc6e2e3ab446d86900d5db9c9bf06eca413",
    ("plate", 4, "full", 11): "889c6b590e52f79dada860d9d275aff61e248aebbaa6042e07473ce36ff60dd9",
    ("plate", 5, "full", "exact"): "361a8322f4ac94ceccca1097f0c4b686335ab5ebf9a7d1bebe17701487071955",
    ("plate", 5, "full", 2): "a039c3b8459a2c0ea9494d051c178f57218afb82bc198222f4a822c2b58cf3f4",
    ("plate", 5, "full", 11): "f8fc5111c7449c872eea35195237f72a5fbade6724ed454baf81d06f41cf77b8",
    ("plate", 5, "reduced", "exact"): "da1872079e1262425621b3743466997790726d5fb7d5598a1256ffb72f44260b",
    ("plate", 5, "reduced", 2): "23c4d8a23b9fe3a731e775c596ac372e1242366f0c4933caf86d16e4893a2ed5",
    ("plate", 5, "reduced", 11): "f3f367b29c19a3a170f31ff5191d478dd485f9b8e306b9f917bad58f2ecc3ded",
    ("stokes", 2048, "full", "exact"): "2ce7eccd7b8ba1314143b002fd505af571d9152ad6c3d0940948161e78e0729a",
    ("stokes", 2048, "full", 1): "74cfae6e3fc4f5e90784a6b5f4be972f0c2170103a803e700c7ceea0a750375b",
    ("stokes", 2048, "full", 16): "b5e4b79e7b6423eee78bd5f7e2d70d60547a3dafd61ca2d714a42bcd27583c34",
    ("stokes", 2048, "reduced", "exact"): "46f47416b3f6662f156d3945652d2ae85462374b0df29bed5d582c8d92f000c8",
    ("stokes", 2048, "reduced", 1): "4253a21de4cd57e4fb5d6a3d85c923f31d31152ea97d99ac8a8d05581143c401",
    ("stokes", 2048, "reduced", 16): "6342c88730a16cc91fe58e8c499160a89539c4d92b054b4342fa607860f1af97",
}


@pytest.mark.parametrize("case", list(MATRIX_DIGESTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_assembled_matrices_match_golden_digests(case):
    assert case_digest(case) == MATRIX_DIGESTS[case]


#: The blocks each solve hands to its solver: plate A_ff and M_ff, Stokes A_ff
#: and B_ff[:, 1:] (pressure dof 0 pinned).  Taken as A[free][:, free] and
#: B[free][:, 1:] before the scatter plan; rule 16's re-taken like its
#: MATRIX_DIGESTS.
FREE_BLOCK_DIGESTS = {
    ("plate", 0, "full", "exact"): "ad5e1f76058b76123b29b7a1c6fc37b2cde4bc4799484cbc9aa63eac7a337773",
    ("plate", 0, "full", 2): "d70d286b31b22fd55a48f1e356e43e3104d13e20d0d3e3f682ef9166d61f0e26",
    ("plate", 0, "full", 11): "a3ad759db25d85f537143d8a8c91192ed2e477a2d8657512353ac392015ca6cd",
    ("plate", 1, "full", "exact"): "3eb984f75d009c08c8754a0bf9e87dff7b24123f6cfaacf1826b1802f7913747",
    ("plate", 1, "full", 2): "4674fe3ec6837d8f70a34c9308c07d80d54bd4c90a571d01b94dcfc53129eec3",
    ("plate", 1, "full", 11): "1f335259d351463555e6d51164ad9dcdb84d6d9c7a5628894df10d7f1bf73ee6",
    ("plate", 2, "full", "exact"): "86669b0edd0c412e389e299ca1698dab1eccfe5057ba62a9b0d0c0e2d002b0e4",
    ("plate", 2, "full", 2): "7d0555b1fd73fbc838e680e516c1c5a6e2f0cd316d955d886c81d325a6be2714",
    ("plate", 2, "full", 11): "7762764e91a1baa1fa97c7b1e5288eb622e1efbb447fd480a6e8f6e865aeee8b",
    ("plate", 3, "full", "exact"): "7f9414f2971f1fd1fd668e2a02ec9ce3ce39a83873c27a3845addecd44120000",
    ("plate", 3, "full", 2): "a3c2cbe03a0238b145b5cc9349a5253ffb9b989a860b6c1a49a9a25fe16f4f5e",
    ("plate", 3, "full", 11): "8fe1bacdf9cd6d73b9ee56b81f4d20f5acfcce9e991ee80d8a265a710e1972c0",
    ("plate", 4, "full", "exact"): "b3e616ee28c1a230caa6f0bd4d720e161853c3835d753a526ed560bd1c38dc88",
    ("plate", 4, "full", 2): "f4ef6cb60f3469e3879c545c9b918bc6e2e3ab446d86900d5db9c9bf06eca413",
    ("plate", 4, "full", 11): "889c6b590e52f79dada860d9d275aff61e248aebbaa6042e07473ce36ff60dd9",
    ("plate", 5, "full", "exact"): "361a8322f4ac94ceccca1097f0c4b686335ab5ebf9a7d1bebe17701487071955",
    ("plate", 5, "full", 2): "a039c3b8459a2c0ea9494d051c178f57218afb82bc198222f4a822c2b58cf3f4",
    ("plate", 5, "full", 11): "f8fc5111c7449c872eea35195237f72a5fbade6724ed454baf81d06f41cf77b8",
    ("plate", 5, "reduced", "exact"): "da1872079e1262425621b3743466997790726d5fb7d5598a1256ffb72f44260b",
    ("plate", 5, "reduced", 2): "23c4d8a23b9fe3a731e775c596ac372e1242366f0c4933caf86d16e4893a2ed5",
    ("plate", 5, "reduced", 11): "f3f367b29c19a3a170f31ff5191d478dd485f9b8e306b9f917bad58f2ecc3ded",
    ("stokes", 2048, "full", "exact"): "f997619a19adba73af4bb57bcb40607f642221ae70c053ad6d9dc8a669e45cd7",
    ("stokes", 2048, "full", 1): "c429d024793ec6f5ff04b1b68d5c39b44503f3dbbda76e5d6dbed4a2ed301371",
    ("stokes", 2048, "full", 16): "82289e35d04c1c9d7afdaba0b23b764d0c596df113435cb5e21fa484fa9a9065",
    ("stokes", 2048, "reduced", "exact"): "162dae0314eeef78e9294e82fb540c280ba8ddfc443973abb8d883aa84558439",
    ("stokes", 2048, "reduced", 1): "7135d0a1345013e18d07453dd3743ebd41f4055156cc5bc36100abcfdd7bc8ed",
    ("stokes", 2048, "reduced", 16): "b4079c01157ecb3db2b81f3e28683f17b4e1abaf4601ea0bd0b8c351afa8dd73",
}


@pytest.mark.parametrize("case", list(FREE_BLOCK_DIGESTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_blocks_handed_to_the_solvers_match_golden_digests(case, monkeypatch):
    handed = []

    def record(first, second, *args, **kwargs):
        handed.extend([first, second])
        if case[0] == "plate":
            return 1.0, np.zeros(first.shape[0])
        return np.zeros(first.shape[0] + second.shape[1])
    system = case_system(case)
    if case[0] == "plate":
        monkeypatch.setattr(solvers, "gen_eig_smallest", record)
        zk.solve_biharmonic_eigen(system, solvers.factorize_spd(system.A))
    else:
        monkeypatch.setattr(solvers, "saddle_solve", record)
        gn.solve_stokes(system)
    assert matrix_digest(*handed) == FREE_BLOCK_DIGESTS[case]


def test_vandermonde_built_once_per_mesh_and_variant(monkeypatch):
    calls = []
    for module, name in ((zk, "local_vandermonde_batch"),
                         (zk, "shape_coefficients"),
                         (gn, "local_vandermonde"),
                         (gn, "shape_coefficients")):
        def counted(*args, _fn=getattr(module, name),
                    _key=f"{module.__name__}.{name}", **kwargs):
            calls.append(_key)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    eigen_rows(mesh, 1, ns=(2, 3), variant="full")
    assert calls == ["ratfem.zienkiewicz.local_vandermonde_batch",
                     "ratfem.zienkiewicz.shape_coefficients"]
    calls.clear()
    run_exp3_stokes(elements=128, ns=(1, 2))
    assert calls == ["ratfem.guzman_neilan.local_vandermonde",
                     "ratfem.guzman_neilan.shape_coefficients"]


def test_mesh_phase_arrays_are_shared_and_read_only():
    mesh = refine_uniform(unit_square_mesh())
    exact = zk.assemble_biharmonic(mesh)
    rule = zk.assemble_biharmonic(mesh, quadrature=3)
    assert rule.coeffs is exact.coeffs and rule.l2g is exact.l2g
    for array in (exact.coeffs, exact.l2g, exact.free):
        with pytest.raises(ValueError):
            array[...] = 0
    # every rule integrates the divergences exactly: one B per mesh
    stokes = gn.assemble_stokes(mesh)
    assert gn.assemble_stokes(mesh, quadrature=3).B is stokes.B
    with pytest.raises(ValueError):
        stokes.B.data[...] = 0
