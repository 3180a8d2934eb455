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
from ratfem import zienkiewicz as zk
from ratfem.experiments import (ExperimentConfig, eigen_rows,
                                graded_lshape_meshes, run_exp3_stokes,
                                stokes_load, stokes_mesh)
from ratfem.mesh import refine_uniform, unit_square_mesh

QUADRATURES = ("exact", 2, 11)
STOKES_QUADRATURES = ("exact", 1, 16)


def plate_load(x, y):
    return 1.0 + x * y


@functools.cache
def lshape_meshes():
    return tuple(mesh for _, mesh in
                 graded_lshape_meshes(ExperimentConfig(budget=10000)))


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


def case_digest(case):
    kind, key, variant, quadrature = case
    if kind == "plate":
        s = zk.assemble_biharmonic(lshape_meshes()[key], f=plate_load,
                                   variant=variant, quadrature=quadrature)
        return matrix_digest(s.A, s.M, s.b)
    s = gn.assemble_stokes(stokes_mesh(key), f=stokes_load, variant=variant,
                           quadrature=quadrature)
    return matrix_digest(s.A, s.B, s.b)


#: Taken before the split: every mesh of exp2 at budget 10000 (full variant,
#: its largest also reduced) and the 2048-element Stokes mesh, both variants.
MATRIX_DIGESTS = {
    ("plate", 0, "full", "exact"): "753d6886b79e7dbde14ac146b4ef215a2d7beaacbb00d7155bb84a35e6888e40",
    ("plate", 0, "full", 2): "450e63eb0735b383bea8207b58b3fca4bb28c4a27005a18a6503e9fef582b886",
    ("plate", 0, "full", 11): "e02a3583e2d6ee642038f07044e3a91bdcd456aecf38b47796ba0184644ddc34",
    ("plate", 1, "full", "exact"): "f48f5fee21d7ad0aac6bce9e45099a248179f17fb874148369015af22e49b25b",
    ("plate", 1, "full", 2): "d1ede9739bc9bf2ced809be20a114be58bcf991710a080186588a3d153330da0",
    ("plate", 1, "full", 11): "354e77c4f628bf7e3ba272c40c96f47e71a545263f879a1e65b873d6493c7cd3",
    ("plate", 2, "full", "exact"): "017254333288106f5cfdf95144e646b84c527c86a089b53ff8be9c5107d31165",
    ("plate", 2, "full", 2): "72f727a879e523c5c969ad57bc33e5eba40862554c79370c7ff440a0a92d2204",
    ("plate", 2, "full", 11): "a61b1784e60c9bc36e5ccc90b338167cf948bca6a0ca93a2961a698199f209c2",
    ("plate", 3, "full", "exact"): "6b6da08e3a6a155fb2d20253403c7fc4ea199094c41a3fcc54d601dd9e24ddb9",
    ("plate", 3, "full", 2): "0c7f4b40864fa205206de52ec084d15e7cb01fc1674d1c75fb89db600ef2aeeb",
    ("plate", 3, "full", 11): "9e2101c80c920a9afc872dd936391fb85983ebcd8eb3a3a44478b34a6f3089cc",
    ("plate", 4, "full", "exact"): "2916642de4123701a05c2abf7c3bd4c53826ae91c653124e31f6325c8d9cf629",
    ("plate", 4, "full", 2): "8e187734709c4f27c7524dde2e3626d4d09559db548b8b987b7da0a5bb585d3f",
    ("plate", 4, "full", 11): "4f4e668a68acbfe5357a4d18341ecf861e784fa24c16932d96eba6706b966d03",
    ("plate", 5, "full", "exact"): "355b7f7284ecf5d0ae6a97071e6e3870fbf0a1b14d797da69f2fb0de79f818ef",
    ("plate", 5, "full", 2): "b098e5a3548288a19ad930c324591d869b2247c89faaf8187518fb5d6b2297a9",
    ("plate", 5, "full", 11): "dd4c5970103feba3ab3ff1c6602c4e2d70db1ebb3e9c5c9e2e33bd685f909d2c",
    ("plate", 5, "reduced", "exact"): "d8931bae9be65d75ff22cd48a5978466fcdf33f3258358e28bffed04bbdb2373",
    ("plate", 5, "reduced", 2): "2a2c662fdc5e3ab1df798bb19e89903b0ca3b84a5c2827b0806382f8c9d120c6",
    ("plate", 5, "reduced", 11): "0f03e64c541b94fe7ab7f168ee534a04208d6618bc01a1ccebbd21e22df47597",
    ("stokes", 2048, "full", "exact"): "0abeddbe13215868b32454837617141ce171af48f994de184d4b66bacd2f961e",
    ("stokes", 2048, "full", 1): "d8f3b85853efd64e209894b15c1da4f927ead3fba1b556fcd10128e20372aabd",
    ("stokes", 2048, "full", 16): "2e8d4ec05e59779d2f576b983c52af955d8b15a759d82169913dff2791ca3fbc",
    ("stokes", 2048, "reduced", "exact"): "da64ad32cb97d38a8ecf7c645e3ed66888d6d09b7bf52805b0fbc8f5f587798c",
    ("stokes", 2048, "reduced", 1): "107294c0b29d0beeefcbaa0d9b8e86585f74b7971f3ee1f519286d8d08060a4b",
    ("stokes", 2048, "reduced", 16): "f66e4f89af201acdec208f486ee12cbac69f92f681f10bf8ac5ffc2d0b1e9764",
}


@pytest.mark.parametrize("case", list(MATRIX_DIGESTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_assembled_matrices_match_golden_digests(case):
    assert case_digest(case) == MATRIX_DIGESTS[case]


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
    eigen_rows(mesh, ExperimentConfig(ns=(2, 3)), 1)
    assert calls == ["ratfem.zienkiewicz.local_vandermonde_batch",
                     "ratfem.zienkiewicz.shape_coefficients"]
    calls.clear()
    run_exp3_stokes(ExperimentConfig(elements=128, stokes_ns=(1, 2)))
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
