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
        A_T = gn.local_matrices(area, G, GG, tables)
        B_T = gn.local_divergence(area, G)
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
    # a rule has its own means and load tables; the rest are the exact ones
    assert [{field.name for field in dataclasses.fields(r)
             if getattr(r, field.name) is not getattr(e, field.name)}
            for r, e in ((zrule, zexact), (rule, exact))] == [
        {"Ahat", "Mhat", "bhat", "Hmean"},
        {"Rhat", "Mhat", "load_points", "bhat1", "bhat2"}]
    # the Guzman-Neilan curl tensors are the Zienkiewicz ones, transposed
    for quadrature in ("exact", 3):
        ahat = zk.get_tables(quadrature).Ahat[6:, 6:]
        rhat = gn.get_tables(quadrature).Rhat
        assert np.array_equal(rhat, ahat.transpose(0, 1, 2, 4, 3, 5))


#: One SHA-256 per quadrature over every array field (name, shape, bytes) of
#: both elements' tables.  The rule-n tables feed every lambda_bar and
#: grad_err, so a refactor must leave their bytes alone.
TABLE_DIGESTS = {
    "exact": "a307d3a7c4dfb0b89e34e4fcd063b2573169b6ee8c57161c49b4063b5536cfbe",
    1: "3a45b1e0659b06b2097cc5a436165fa3662e8dadd8be8f864e1589a0eb8a04ae",
    2: "6c46c2c0a3fbadf44bb90ad57dd4e6d9504c47fa08204f0a05758393a41635e4",
    3: "9b5ac8acb7feff699118a613cc4f5f4b1988c2d3d727e9a45fd8ad5bcd33d702",
    4: "56732dac5450bc2d3749449e18d507f97e4b324f726869c8642c25f98087937b",
    5: "731f667788be7c8c46fc5e124569374bbb19e6c4c870e26144413ba7c9764c50",
    6: "c39617d1c6dcd1c3261f5e6b7250ac32076e34c472ef2e13b4a29a36fa7d2317",
    7: "6fe55929f065fa59736198a3276c0ac2ccd2612cc986bbe5cd5e71e697752d7a",
    8: "5d1aeb7a46660adaa27ec7d43f6be247ccce86c42b4a9987f3374e0ce66a8a5a",
    9: "d32895b1ba76390610b2af82da394a2d8851300d0030f11700b9671ae15ae54c",
    10: "0f6a84f92d76db3b0e5202fa7d945fa295a15eec3807bead248ea4f67aa8b819",
    11: "e854154b2fdfc740a50bbb06e897230d1aa1dafebc13dca7f85d418f2d97f4f7",
    12: "45e79359818662a845585eb04db3a812ffefb053ffacdb7bc781cce72b12c575",
    13: "d124cc571e49e9975825f4fa6da5f6f9b695aac0b3eed2667cbe38a25cc3a291",
    14: "1c0eab53fa6822d9a617bed10173ae3d264ffa10c501f3482286d70c46699d0e",
    15: "f4feca05e0ddd541e1d92693ae9239b2a9fb287091c1f176209a1f2faec5222c",
    16: "548ba270bb0705eb287342e409a2d89004b2905f70a406a37a3bf318db544180",
}


def _tables_digest(quadrature):
    digest = hashlib.sha256()
    for tables in (zk.get_tables(quadrature), gn.get_tables(quadrature)):
        for field in dataclasses.fields(tables):
            value = getattr(tables, field.name)
            if isinstance(value, np.ndarray):
                digest.update(f"{field.name}{value.shape}".encode())
                digest.update(np.ascontiguousarray(value).tobytes())
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
