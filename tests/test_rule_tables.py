"""Gauss quadrature as rule-n reference tables.

On affine elements an n-point rule applied to the physical integrands is the
exact path's contraction with rule-n tables.  These tests compare that path
with the per-point formula in felib, and pin down the load-callback contract.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from felib import (gauss_reference_guzman_neilan, gauss_reference_zienkiewicz,
                   random_shape_regular_triangle)
from ratfem import guzman_neilan as gn
from ratfem import zienkiewicz as zk
from ratfem.mesh import refine_uniform, unit_square_mesh

RULES = (1, 2, 5, 11, 16)
REL = 1e-13


def _triangles(seed, count=3):
    rng = np.random.default_rng(seed)
    return [random_shape_regular_triangle(rng) for _ in range(count)]


def _rel(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def plate_load(x, y):
    return np.sin(2.0 * x) * np.exp(y) + x * y


def stokes_vector_load(x, y):
    return np.cos(y) + x, 1.0 + x * x * y


@pytest.mark.parametrize("n", RULES)
def test_zienkiewicz_rule_tables_match_pointwise_rule(n):
    tables = zk.get_tables(n)
    for tri in _triangles(100 + n):
        _, area, G = tri.geometry_arrays()
        GG = np.einsum("eic,ejc->eij", G, G)
        A_ref, M_ref, b_ref = gauss_reference_zienkiewicz(tri, n, plate_load)
        assert _rel(zk.local_stiffness(area, GG, tables.Ahat)[0], A_ref) <= REL
        assert _rel(area[0] * tables.Mhat, M_ref) <= REL
        assert _rel(zk.local_load(plate_load, tri, tables)[0], b_ref) <= REL


@pytest.mark.parametrize("n", RULES)
def test_guzman_neilan_rule_tables_match_pointwise_rule(n):
    tables = gn.get_tables(n)
    for tri in _triangles(200 + n):
        _, area, G = tri.geometry_arrays()
        GG = np.einsum("eic,ejc->eij", G, G)
        A_ref, B_ref, b_ref = gauss_reference_guzman_neilan(
            tri, n, stokes_vector_load)
        A_T, B_T = gn.local_matrices(area, G, GG, tables)
        assert _rel(A_T[0], A_ref) <= REL
        assert _rel(B_T[0], B_ref) <= REL
        # the curl fields are divergence-free: zero exactly, not roundoff
        assert np.all(B_T[:, 6:] == 0.0)
        b_T = gn.local_load(stokes_vector_load, tri, G, tables)
        assert _rel(b_T[0], b_ref) <= REL


def test_rule_tables_are_cached_and_share_the_exact_point_tables():
    assert zk.get_tables(3) is zk.get_tables(3)
    assert gn.get_tables(3) is gn.get_tables(np.int64(3))
    exact, rule = gn.get_tables(), gn.get_tables(3)
    assert rule.That_gv is exact.That_gv and rule.val_mid is exact.val_mid
    zexact, zrule = zk.get_tables(), zk.get_tables(3)
    for name in ("basis", "That_v", "That_gv", "That_ge"):
        assert getattr(zrule, name) is getattr(zexact, name)
    # the potentials' point tables are views of the Zienkiewicz ones
    assert np.shares_memory(exact.That_gv, zexact.That_gv)
    assert np.shares_memory(exact.That_ge, zexact.That_ge)
    assert exact.mean_one == 1.0
    assert rule.mean_one == pytest.approx(1.0, abs=1e-15)
    # the Guzman-Neilan curl tensors are the Zienkiewicz ones, transposed
    for quadrature in ("exact", 3):
        ahat = zk.get_tables(quadrature).Ahat[6:, 6:]
        rhat = gn.get_tables(quadrature).Rhat
        assert np.array_equal(rhat, ahat.transpose(0, 1, 2, 4, 3, 5))


#: One SHA-256 per quadrature over every array field (name, shape, bytes) of
#: both elements' tables, plus mean_one.  The rule-n tables feed every
#: lambda_bar and grad_err, so a refactor must leave their bytes alone.
TABLE_DIGESTS = {
    "exact": "9010ad5c86e38a7f8b5f1d4f07110adcef661885e45e042af3c8f09917055232",
    1: "1a30180c3ec799d44defc138e2965f4bd90bdb629b67d870614985fe0fe2a032",
    2: "7b2fa3ceba702c62d4aa96924bf1881e176298e54c4be8f34d2383577ee9eaa0",
    3: "637b3d6a60b75de45e57460eb69c96869a0ddd28aa95a7eb52e7ec4d7ad6109c",
    4: "1c015bf17e41fb44d5729030a75663df1f9e05ce25a20e6c9bf49c35e34d0bc7",
    5: "d1ed7e3c160edbee6d771df0c54a11c173744665ed30151057d118d8723d68b0",
    6: "43aad4bd8d8aa6641024324d848dcb0e1a537aa8d326160cd51b2ddf36a5aa97",
    7: "acf3b5b3a97f9b678f010f8977665b0c824d9876abd295da5a54e728f0a751a9",
    8: "31fee96581cb3f7476fa878343f3fd474f503eafa3abb0878c1df53c5ea34eca",
    9: "2e422a58700b960555d81ce91e4e827fb08d8be1d6669bbeeb118d241aae6a7c",
    10: "88e66e0efe5453030c6147f3e3dfdde5b9df9e6579630e077fc3c6ada8d687be",
    11: "b9403780a712aeb57ed7f86010528bb01e04ab38828101c6c7f0642748d5225f",
    12: "7299106307881f4eb8e0287a28e6ef08b2b0c34b1690fc7c72c1d43e6b3f30a5",
    13: "599af878d0d52642a92c26e42e5bcc471c85655baea2384edd0bacdc17f39787",
    14: "6bc95141797f395b80d37b4c042d1d3ec68c54d52c7a4dc35365ab887168f444",
    15: "9dd5ac7ed117038a32619999005dc5c9ed0d74cec0b4851eda50e38584324888",
    16: "7fa550c938c983e424397ee86eee91a03ccbcb0cacda945ef325f05bfa1f69d2",
}


def _tables_digest(quadrature):
    digest = hashlib.sha256()
    for tables in (zk.get_tables(quadrature), gn.get_tables(quadrature)):
        for field in dataclasses.fields(tables):
            value = getattr(tables, field.name)
            if isinstance(value, np.ndarray):
                digest.update(f"{field.name}{value.shape}".encode())
                digest.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, float):
                digest.update(f"{field.name}={value!r}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("quadrature", list(TABLE_DIGESTS))
def test_tables_match_golden_digests(quadrature):
    assert _tables_digest(quadrature) == TABLE_DIGESTS[quadrature]


def test_divergence_matrix_is_the_exact_one_under_every_rule():
    # constant (P1) or vanishing (curl) integrands: every rule is exact
    mesh = refine_uniform(unit_square_mesh())
    exact = gn.assemble_stokes(mesh, variant="reduced")
    for n in RULES:
        system = gn.assemble_stokes(mesh, variant="reduced", quadrature=n)
        assert np.abs(system.B - exact.B).max() <= 1e-14


class Recorder:
    """Array-valued load that records how it was called."""

    def __init__(self, value):
        self.value = value
        self.calls = []

    def __call__(self, x, y):
        self.calls.append((x, y))
        return self.value(x, y)


@pytest.mark.parametrize("quadrature", ["exact", 1, 4])
def test_load_callbacks_are_called_once_on_arrays(quadrature):
    mesh = refine_uniform(unit_square_mesh())
    p = mesh.num_elements
    plate = Recorder(plate_load)
    zk.assemble_biharmonic(mesh, f=plate, quadrature=quadrature)
    stokes = Recorder(stokes_vector_load)
    gn.assemble_stokes(mesh, f=stokes, quadrature=quadrature)
    points = 6 if quadrature == "exact" else quadrature ** 2
    for recorder, count in ((plate, 6), (stokes, points)):
        assert len(recorder.calls) == 1
        x, y = recorder.calls[0]
        assert isinstance(x, np.ndarray) and x.shape == y.shape == (p, count)


def test_constant_loads_broadcast():
    mesh = refine_uniform(unit_square_mesh())
    for quadrature in ("exact", 3):
        ones = zk.assemble_biharmonic(mesh, f=lambda x, y: 1.0,
                                      quadrature=quadrature)
        arrays = zk.assemble_biharmonic(mesh, f=lambda x, y: np.ones_like(x),
                                        quadrature=quadrature)
        assert np.array_equal(ones.b, arrays.b)
        const = gn.assemble_stokes(mesh, f=lambda x, y: (0.5, 2.0),
                                   quadrature=quadrature)
        full = gn.assemble_stokes(
            mesh, f=lambda x, y: (np.full_like(x, 0.5), np.full_like(x, 2.0)),
            quadrature=quadrature)
        assert np.array_equal(const.b, full.b)


@pytest.mark.parametrize("bad", [
    lambda x, y: math.sin(x) + y,               # math needs scalars
    lambda x, y: 1.0 if x < 0.5 else 0.0,       # branch on a scalar
    lambda x, y: float(x) * 2.0,
])
def test_scalar_only_callbacks_raise_type_error(bad):
    mesh = refine_uniform(unit_square_mesh())
    with pytest.raises(TypeError, match="coordinate arrays"):
        zk.assemble_biharmonic(mesh, f=bad)
    with pytest.raises(TypeError, match="coordinate arrays"):
        gn.assemble_stokes(mesh, f=lambda x, y: (bad(x, y), 0.0),
                           quadrature=2)


def test_malformed_load_values_raise_type_error():
    mesh = refine_uniform(unit_square_mesh())
    with pytest.raises(TypeError, match="broadcast"):
        zk.assemble_biharmonic(mesh, f=lambda x, y: np.ones(7))
    with pytest.raises(TypeError, match="components"):
        gn.assemble_stokes(mesh, f=lambda x, y: (x, y, x))
