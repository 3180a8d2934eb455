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
from ratfem.mesh import Triangulation, refine_uniform, unit_square_mesh

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
#: entry came to be summed from 0.0 in element order, the Stokes ones again
#: when A_T came to be computed once per class of identical elements (a GEMM
#: over fewer rows rounds some rows differently), and the reduced ones again
#: when their shape coefficients became inv(V) R, which moves entries by at
#: most 1.3e-16 of the largest.  The Stokes solve assembles neither A nor b;
#: fecore sums them here from the system's element tensors A_T and b_T, so
#: these digests pin those tensors' bytes.
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
    ("plate", 5, "reduced", "exact"): "4c390f026363c685fcd3ac0baf0f3b70784f90784aa5bf1c1b191e216856ae44",
    ("plate", 5, "reduced", 2): "68cd0ee3d1dec8730099f31d0300c9fe00dbb20a14881593fff23c5faac7fe98",
    ("plate", 5, "reduced", 11): "8e687bb352c1e8890c49daf9e98ddad37728d4b2286c1bad1b02c694232c8747",
    ("stokes", 2048, "full", "exact"): "35255f6f734e0cdc96e250f859e51352835a483d781ba5d42499068fa9092632",
    ("stokes", 2048, "full", 1): "e927980b7cf06243da4b7df769f6398d63a8edff02846d32d63e7191d8d7c5b5",
    ("stokes", 2048, "full", 16): "fceacbd3552f5c4e59b4effae102e221b3b6aa6073a36e718e5fef1116e159ae",
    ("stokes", 2048, "reduced", "exact"): "6bcbcf7b3e8811151a69cd266ea06affdcd64148175db893cb3602d22d6ee4be",
    ("stokes", 2048, "reduced", 1): "2e0e6a0181a6f105764ebb8475d18c9b3f0f9010f0d87b69d5b9d8043221dc09",
    ("stokes", 2048, "reduced", 16): "3e6dfe35b898e7562e074ccfc3a6aaafcbd828efb7a3c47825d42643a5338533",
}


@pytest.mark.parametrize("case", list(MATRIX_DIGESTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_assembled_matrices_match_golden_digests(case):
    assert case_digest(case) == MATRIX_DIGESTS[case]


#: The stream-function system (S, s) each Stokes solve hands to its solver:
#: S = D^T A D on the free Zienkiewicz dofs, each element block mapped by
#: E C, and s = D^T b; taken when the stream function replaced the saddle
#: solve, again when A_T came to be computed once per element class, and the
#: reduced ones again when their shape coefficients became inv(V) R.
FREE_BLOCK_DIGESTS = {
    ("stokes", 2048, "full", "exact"): "eddf095764728ab63b3cb5667827f67da585e414dff6adf86370777299e6c2ae",
    ("stokes", 2048, "full", 1): "b7ee3a87ad45164cd2bea9ad59a026006927a05f5eb6c6ac43980655aa811a54",
    ("stokes", 2048, "full", 16): "f6d6a4aa524421b999b0ee0c49c5dcd37389270bbeaaf2f1948dade5b8be6b8b",
    ("stokes", 2048, "reduced", "exact"): "7ea9a82d7e2d1e4deb236d81ac0ef2e9362145337ab9525ee7ce2a790cb53347",
    ("stokes", 2048, "reduced", 1): "b8d60bca2f6e40c6f4ba58ef2aba5a8634208c1dd68e7eaa0c5a561c8ca49b9c",
    ("stokes", 2048, "reduced", 16): "2cd0bb9f7da77b1fce0ac3a4eeee4cbfea64c05d408508a1169083ae724525cb",
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
    # every plate system of a mesh holds the one phase record, copying nothing
    assert all(zk.assemble_biharmonic(mesh, quadrature=n).phase is exact.phase
               for n in (1, 3, 11))
    phase = exact.phase
    for array in (phase.C, phase.l2g, phase.free, phase.first, phase.inv):
        with pytest.raises(ValueError):
            array[...] = 0
    # every rule integrates the divergences exactly: one B per mesh, and every
    # Stokes system holds the velocity's and the stream function's records
    stokes = gn.assemble_stokes(mesh)
    for n in (1, 3, 16):
        rule = gn.assemble_stokes(mesh, stokes_load, quadrature=n)
        assert rule.B is stokes.B and rule.phase is stokes.phase
        assert rule.stream is stokes.stream
    for array in (stokes.B.data, stokes.phase.first, stokes.phase.inv, stokes.stream.C):
        with pytest.raises(ValueError):
            array[...] = 0


@pytest.mark.parametrize("variant", ["full", "reduced"])
def test_the_stream_function_takes_the_plates_mesh_phase(variant):
    # one builder of a Zienkiewicz-space phase: the Stokes stream function's
    # is the plate's with C mapped to E C before it is made read-only
    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    phase, _, _, stream, _ = gn.mesh_phase(mesh, variant)
    assert stream is zk.mesh_phase(mesh, variant, gn.curl_coefficients)
    # one class map serves the velocity and the stream function
    assert stream.first.tobytes() == phase.first.tobytes()
    assert stream.inv.tobytes() == phase.inv.tobytes()
    plate = zk.mesh_phase(mesh, variant)
    G, C, EC = plate.G, plate.C, stream.C
    assert EC.tobytes() == gn.curl_coefficients(G, C).tobytes()
    with pytest.raises(ValueError):
        EC[...] = 0
    normals = mesh.normal4s[mesh.s4e]
    assert C.tobytes() == zk.shape_coefficients(
        zk.local_vandermonde_batch(G, normals), variant, normals).tobytes()
    assert C.tobytes() != EC.tobytes()


def per_element_coefficients(mesh, variant):
    """Today's per-element path: the plate's C, the velocity's C and the
    stream function's E C from every element's own Vandermonde."""
    _, _, G = mesh.geometry_arrays()
    normals, tangents = mesh.normal4s[mesh.s4e], mesh.tangent4s[mesh.s4e]
    plate = zk.shape_coefficients(zk.local_vandermonde_batch(G, normals),
                                  variant, normals)
    velocity = gn.shape_coefficients(gn.local_vandermonde(G, normals, tangents),
                                     variant, tangents)
    return plate, velocity, gn.curl_coefficients(G, plate)


@pytest.mark.parametrize("variant", ["full", "reduced"])
@pytest.mark.parametrize("which", [*range(6), "stokes"])
def test_class_path_keeps_every_shape_coefficient_byte(which, variant):
    # C is computed once per class of identical elements and gathered; each
    # matrix inverse, product and curl map acts on one element at a time
    mesh = stokes_mesh(2048) if which == "stokes" else lshape_meshes()[which]
    plate, velocity, curl = per_element_coefficients(mesh, variant)
    assert zk.mesh_phase(mesh, variant).C.tobytes() == plate.tobytes()
    if which == "stokes":
        phase, _, _, stream, _ = gn.mesh_phase(mesh, variant)
        assert phase.C.tobytes() == velocity.tobytes()
        assert stream.C.tobytes() == curl.tobytes()


def test_class_counts_of_the_benchmark_meshes():
    phase, *_ = gn.mesh_phase(stokes_mesh(2048), "reduced")
    first, inv = phase.first, phase.inv
    assert first.size == 12 and inv.size == 2048
    assert np.array_equal(inv[first], np.arange(12))
    mesh = lshape_meshes()[5]
    phase = zk.mesh_phase(mesh, "full")
    first, inv = phase.first, phase.inv
    assert (first.size, mesh.num_elements) == (102, 4592)
    with pytest.raises(ValueError):
        inv[...] = 0


def test_a_moved_vertex_gives_its_elements_classes_of_their_own():
    mesh = lshape_meshes()[1]
    before = zk.mesh_phase(mesh, "full").inv
    vertex = int(np.flatnonzero(~mesh.boundary_vertex)[3])
    c4n = mesh.c4n.copy()
    c4n[vertex] += [1e-3 / 3, 1e-3 / 7]
    moved = Triangulation(c4n, mesh.n4e)
    after = zk.mesh_phase(moved, "full").inv
    touched = np.any(mesh.n4e == vertex, axis=1)
    assert 3 <= np.count_nonzero(touched) and np.all(np.bincount(after)[after[touched]] == 1)
    # every other element keeps its class: the two partitions agree there
    pairs = np.unique(np.stack([before[~touched], after[~touched]]), axis=1)
    assert pairs.shape[1] == np.unique(before[~touched]).size == np.unique(after[~touched]).size
    assert zk.mesh_phase(moved, "full").C.tobytes() == per_element_coefficients(
        moved, "full")[0].tobytes()


@pytest.mark.parametrize("quadrature", ["exact", *range(1, 17)])
def test_stokes_local_tensors_once_per_class(quadrature):
    # the class representatives' A_T, gathered, against every element's own;
    # a GEMM may round a row differently over fewer rows
    mesh = stokes_mesh(2048)
    system = gn.assemble_stokes(mesh, variant="reduced", quadrature=quadrature)
    phase, gathered = system.phase, system.A_T
    own = gn.local_matrices(phase.area, phase.G, phase.GG, gn.get_tables(quadrature))
    assert np.all(np.abs(gathered - own).max(axis=(1, 2))
                  <= 1e-15 * np.abs(own).max(axis=(1, 2)))
