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

from felib import stokes_velocity_system
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
    if case[0] == "plate":
        return matrix_digest(s.A, s.M)
    A, b = stokes_velocity_system(s)
    return matrix_digest(A, s.B, b)


#: The systems' plate (A, M) and Stokes (A, B, b): stiffness and mass on
#: free x free, the divergence matrix on free rows, the load on all dofs, over
#: every mesh of exp2 at budget 10000 (full variant, its largest also reduced)
#: and the 2048-element Stokes mesh, both variants; taken when every sparse
#: entry came to be summed from 0.0 in element order.  The Stokes solve
#: assembles neither A nor b; fecore sums them here from the system's element
#: tensors A_T and b_T, so these digests pin those tensors' bytes.
MATRIX_DIGESTS = {
    ("plate", 0, "full", "exact"): "02342a2f6e760db254c391047690c04e3a0aac3646ee00aa8b57ffcfe23045d9",
    ("plate", 0, "full", 2): "95cd650232db0b47559243f79c14350887d4f0dcd08ee3f31c38e580d578ce92",
    ("plate", 0, "full", 11): "2d00c75ea9ce493528d5c583a69f819e7eb3e1be9dbf8771da99cb1055b9c89f",
    ("plate", 1, "full", "exact"): "756be73c20ef969ab8a6666ce9d6113d3a92835b99b5b3967dae70c261a73d43",
    ("plate", 1, "full", 2): "a9bdd88f6edbf1951f949f256c12989cba4d83948c61e95f669d722edc73ae56",
    ("plate", 1, "full", 11): "2cfd54e63210ededb1f776f36656d6243ebce2749ef84a5f4c5f50ac1ad54455",
    ("plate", 2, "full", "exact"): "98a76386db8da88af4fa21d6a6c37d50ed119d556ed6b1f00843649746f98722",
    ("plate", 2, "full", 2): "bd300dad9a75d6b176b6e33010efc702b7028e0c00cc005b4dd9ed72f04d50e3",
    ("plate", 2, "full", 11): "daf7867b1b41c6a59dd7fd36584bd965dbbd42f7f5e1017f3dea77b5edc589d2",
    ("plate", 3, "full", "exact"): "00b2d0ffb2a93e0143dd288fb58cf0628c6c8f545c1e6891ef51a49d27c9fc56",
    ("plate", 3, "full", 2): "9a2f9eabbf3787228093790278893f5ff9eacccf2c11cbcd0f0d3c059dc9fcee",
    ("plate", 3, "full", 11): "578288896328534da243e74b99a0ab5dc8100da9cfc6c3e0947e8c470b3283c6",
    ("plate", 4, "full", "exact"): "9120b815afa5efd84bc8838037754a8ed51fb416d3f2b2001a3dc2614b41c6f5",
    ("plate", 4, "full", 2): "52000de2b74a55774c0a81249a1abbf903d001a601dbe99e811a6868c6db0535",
    ("plate", 4, "full", 11): "7bf64f499dc1b89db2ca4bc367e278b17930133e97aeac2bcb92815141d3435d",
    ("plate", 5, "full", "exact"): "c0a7dd5ab03c7b344fd91341b114e479ffa0dc8072ee2aa2cd793876434efad4",
    ("plate", 5, "full", 2): "19c84c9b763c7b810639612729206505f94ac3a7ce44b8caecc0a62814eb7d96",
    ("plate", 5, "full", 11): "9f87d1f0ac5150cb9156891001e1e2ec78ec4b7f51cbc48d4d40083495f43567",
    ("plate", 5, "reduced", "exact"): "8ca17dedb0665806667de3333fe4e290edf2bca4987fb700fb1b03b145a2d87e",
    ("plate", 5, "reduced", 2): "a94981ae2dc8fc03ec73b7ca976574ec5ca032644abdb9f2baade8670c565ea6",
    ("plate", 5, "reduced", 11): "39b4dd11f69c1df01e0eb1bf9709af4a6aa6144b4917fe2f71f3a852a583a1b5",
    ("stokes", 2048, "full", "exact"): "7767b2b2a9e3942e4e356360e8539f960b92f90570eed9da7aef2d7317f8fb2b",
    ("stokes", 2048, "full", 1): "f60bad939e7937824cb81d9f788f383a6bf5e02fad922022d4e7a7a6631ad663",
    ("stokes", 2048, "full", 16): "b5dcc26e5c6385e262e1f86f5c3d39de786addbc8f80ca6ab19935b10478bf52",
    ("stokes", 2048, "reduced", "exact"): "2263b2b09a8ee018baa3d1d45437482bb5eb51cda4a102a1563164be7de8dd68",
    ("stokes", 2048, "reduced", 1): "35b0a5c7918983159fda2f65c8217ba44d4cbe80221c7ca879e46dc5ceb93994",
    ("stokes", 2048, "reduced", 16): "d5009fc5f24e8e50faafe66e850213bbcc8d93a9029ecf6b07edf202236c0c6d",
}


@pytest.mark.parametrize("case", list(MATRIX_DIGESTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_assembled_matrices_match_golden_digests(case):
    assert case_digest(case) == MATRIX_DIGESTS[case]


#: The stream-function system (S, s) each Stokes solve hands to its solver:
#: S = D^T A D on the free Zienkiewicz dofs, each element block mapped by
#: E C, and s = D^T b; taken when the stream function replaced the saddle
#: solve.
FREE_BLOCK_DIGESTS = {
    ("stokes", 2048, "full", "exact"): "0fbf150c7e2904eceba7aa0ed82d02f41e6dc4ae549f890c94aacedd937ee217",
    ("stokes", 2048, "full", 1): "b360b9c0b6aecd53925ffca09c553cc8681605ead6c7462e226ff3520e3c919e",
    ("stokes", 2048, "full", 16): "0ab342cf937e040a52fcca942cd1b3c9216bcc5da509e189578dac69ffc74f70",
    ("stokes", 2048, "reduced", "exact"): "179ec44bf382d3e86c3c205831931da2c2369e6899a0ede307b101015fc8794e",
    ("stokes", 2048, "reduced", 1): "e7e6be8642a81912b6ba97a97c369aed0c55874746212548493978810111c586",
    ("stokes", 2048, "reduced", 16): "f44505c305f9a7456c1a6d24b2fcf1f11ce8d4b9f15d6eefe9a19c7856e5814c",
}


@pytest.mark.parametrize("case", list(MATRIX_DIGESTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_blocks_handed_to_the_solvers_match_golden_digests(case, monkeypatch):
    handed = []

    def record(first, second, *args, **kwargs):
        handed.extend([first, second])
        if case[0] == "plate":
            return 1.0, np.zeros(first.shape[0])
        return np.zeros(first.shape[0])
    system = case_system(case)
    if case[0] == "plate":
        monkeypatch.setattr(solvers, "gen_eig_smallest", record)
        zk.solve_biharmonic_eigen(system, None)
        # the system's own free-dof blocks, which MATRIX_DIGESTS pins
        assert handed[0] is system.A and handed[1] is system.M
    else:
        monkeypatch.setattr(solvers, "pcg", record)
        gn.solve_stokes(system, lu="the exact system's")
        assert handed[0] is system.S and handed[1] is system.s
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
    # the stream-function phase maps the Zienkiewicz shape coefficients
    assert calls == ["ratfem.guzman_neilan.local_vandermonde",
                     "ratfem.guzman_neilan.shape_coefficients",
                     "ratfem.zienkiewicz.local_vandermonde_batch",
                     "ratfem.zienkiewicz.shape_coefficients"]


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


@pytest.mark.parametrize("variant", ["full", "reduced"])
def test_the_stream_function_takes_the_plates_mesh_phase(variant):
    # one builder of a Zienkiewicz-space phase: the Stokes stream function's
    # is the plate's with C mapped to E C before it is made read-only
    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    stream = gn.mesh_phase(mesh, variant)[9:14]      # E C, ndof, l2g, free, plan
    mapped = zk.mesh_phase(mesh, variant, gn.curl_coefficients)
    assert all(a is b for a, b in zip(stream, mapped[3:], strict=True))
    plate = zk.mesh_phase(mesh, variant)
    _, G, _, C = plate[:4]
    EC = stream[0]
    assert EC.tobytes() == gn.curl_coefficients(G, C).tobytes()
    with pytest.raises(ValueError):
        EC[...] = 0
    normals = mesh.normal4s[mesh.s4e]
    assert C.tobytes() == zk.shape_coefficients(
        zk.local_vandermonde_batch(G, normals), variant, normals).tobytes()
    assert C.tobytes() != EC.tobytes()
