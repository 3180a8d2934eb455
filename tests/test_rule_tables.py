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
                   gauss_stokes_load, random_shape_regular_triangle)
from ratfem import guzman_neilan as gn
from ratfem import zienkiewicz as zk
from ratfem.experiments import stokes_load, stokes_mesh
from ratfem.fecore import lagrange_basis, moment_tensor
from ratfem.mesh import refine_uniform, unit_square_mesh

RULES = (1, 2, 5, 11, 16)
REL = 1e-13


def _triangles(seed, count=3):
    rng = np.random.default_rng(seed)
    return [random_shape_regular_triangle(rng) for _ in range(count)]


def _rel(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def stokes_vector_load(x, y):
    return np.cos(y) + x, 1.0 + x * x * y


@pytest.mark.parametrize("n", RULES)
def test_zienkiewicz_rule_tables_match_pointwise_rule(n):
    tables = zk.get_tables(n)
    for tri in _triangles(100 + n):
        _, area, G = tri.geometry_arrays()
        GG = np.einsum("eic,ejc->eij", G, G)
        A_ref, M_ref = gauss_reference_zienkiewicz(tri, n)
        assert _rel(zk.local_stiffness(area, GG, tables.Ahat)[0], A_ref) <= REL
        assert _rel(area[0] * tables.Mhat, M_ref) <= REL


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


def random_p2_field(seed):
    """A vector field whose components are random quadratics in x and y."""
    a, c = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, 6))

    def field(x, y):
        monomials = (1.0, x, y, x * x, x * y, y * y)
        return (sum(k * m for k, m in zip(a, monomials)),
                sum(k * m for k, m in zip(c, monomials)))
    return field


@pytest.mark.parametrize("n", RULES)
def test_stokes_rule_load_of_a_p2_field_is_the_sampled_rule(n):
    # interpolation at the P2 nodes is the identity on P2, so for every load
    # a command passes the rule-n load is the rule applied to f itself
    tables = gn.get_tables(n)
    for load in (stokes_load, random_p2_field(300 + n)):
        for tri in _triangles(400 + n):
            G = tri.geometry_arrays()[2]
            b_T = gn.local_load(load, tri, G, tables)[0]
            sampled = gauss_stokes_load(tri, n, load, interpolate=False)
            assert _rel(b_T, sampled) <= REL


@pytest.mark.parametrize("rule", [2.5, 3.9, 3.0, "3", True, False])
def test_a_rule_that_is_no_integer_is_rejected(rule):
    # truncating would hand 2.5 rule 2's system and 3.9 rule 3's, silently,
    # and a bool is an int: True would be rule 1
    mesh = unit_square_mesh()
    with pytest.raises(TypeError):
        zk.assemble_biharmonic(mesh, quadrature=rule)
    with pytest.raises(TypeError):
        gn.assemble_stokes(mesh, quadrature=rule)
    with pytest.raises(TypeError):
        moment_tensor(lagrange_basis(1), lagrange_basis(1), rule)


def test_rule_tables_are_cached_and_share_the_exact_point_tables():
    assert zk.get_tables(3) is zk.get_tables(3)
    assert gn.get_tables(3) is gn.get_tables(np.int64(3))
    basis = lagrange_basis(1)
    assert moment_tensor(basis, basis, np.int64(3)).tobytes() == moment_tensor(
        basis, basis, 3).tobytes()
    exact, rule = gn.get_tables(), gn.get_tables(3)
    assert rule.That_gv is exact.That_gv and rule.val_mid is exact.val_mid
    zexact, zrule = zk.get_tables(), zk.get_tables(3)
    for name in ("That_v", "That_gv", "That_ge"):
        assert getattr(zrule, name) is getattr(zexact, name)
    # the potentials' point tables are views of the Zienkiewicz ones
    assert np.shares_memory(exact.That_gv, zexact.That_gv)
    assert np.shares_memory(exact.That_ge, zexact.That_ge)
    # a rule has its own means; the rest are the exact ones
    assert [{field.name for field in dataclasses.fields(r)
             if getattr(r, field.name) is not getattr(e, field.name)}
            for r, e in ((zrule, zexact), (rule, exact))] == [
        {"Ahat", "Mhat", "bhat", "Hmean"},
        {"Rhat", "Mhat", "bhat1", "bhat2"}]
    # the Guzman-Neilan curl tensors are the Zienkiewicz ones, transposed
    for quadrature in ("exact", 3):
        ahat = zk.get_tables(quadrature).Ahat[6:, 6:]
        rhat = gn.get_tables(quadrature).Rhat
        assert np.array_equal(rhat, ahat.transpose(0, 1, 2, 4, 3, 5))


#: One SHA-256 per quadrature over every array field (name, shape, bytes) of
#: both elements' tables.  The rule-n tables feed every lambda_bar and
#: grad_err, so a refactor must leave their bytes alone.
TABLE_DIGESTS = {
    "exact": "c6d3a858ba9fd66489fd51b14f1d4d224b1ee845ffe0e1b0356fe80b71ffd53f",
    1: "c540c73329773f247b04da94de26ceb6ec7f217bcfa55e751f4bd65dc75637c8",
    2: "179e602c30d508fe96a1dac8cfab8958109a0e33513308ce90aafbb9b5b1c61d",
    3: "c668611e013822472b2945b458b33037dabc9dcbbe380e4b3c6e1094a27c1c42",
    4: "c1fa0ee9ed24f78da0175298caf49fcfdb00f3e6dc9a305f0998988d4b15544d",
    5: "c866b0dbee749df49f8c4ad89912aa41cb4b7a16d25fe602edb87ec0831253a2",
    6: "e9bc1bda3ddc1fbadc55813c2199a28e6c4bbc6b21ae67ed610a32351808faae",
    7: "3b91717b4b7796edf1b28c5d6dbde8889c627a9c4e37821099fd187450953eb0",
    8: "fdd1231a14639f08d12c86167289bd22f942b5eeebdb33570aa4aa4450553a07",
    9: "209a9a5be3597b36a8304fd83fa96c45aa5c166158196dcef16d4de4d5da708f",
    10: "83f76591dfdc42eaaefe194645edd11cdccebd0afc0d69d66c61b16b5a32ee4f",
    11: "08002c548c7e53f37b64e30461fa5e569fc09417ddac6c0e5b7411cb8821f393",
    12: "bbffc0b72974fe798e64d754e197cdf500e092c84cd1b78d84eb35e664f1fcfa",
    13: "f3c67d7d6bffce3c95550c36213ea47fe2906e3b60f49f29d086695599b11ab7",
    14: "0c0bbad4b1cc213ed3a3a1042886ae1569c9f705cb902a287bc19f2b14635555",
    15: "a9e156c59c1222cc7a00c315b898d647da2410e6e77e1ab1c14c46a5d4a11c6e",
    16: "0ed27b75674804c74341c10251798b531e232d896f01d75a3772417621145e2d",
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
    stokes = Recorder(stokes_vector_load)
    gn.assemble_stokes(mesh, f=stokes, quadrature=quadrature)
    # the load is taken at the six P2 nodes under every quadrature
    assert len(stokes.calls) == 1
    x, y = stokes.calls[0]
    assert isinstance(x, np.ndarray)
    assert x.shape == y.shape == (mesh.num_elements, 6)


def test_constant_loads_broadcast():
    mesh = refine_uniform(unit_square_mesh())
    for quadrature in ("exact", 3):
        const = gn.assemble_stokes(mesh, f=lambda x, y: (0.5, 2.0),
                                   quadrature=quadrature)
        full = gn.assemble_stokes(
            mesh, f=lambda x, y: (np.full_like(x, 0.5), np.full_like(x, 2.0)),
            quadrature=quadrature)
        assert np.array_equal(const.b_T, full.b_T)


@pytest.mark.parametrize("bad", [
    lambda x, y: math.sin(x) + y,               # math needs scalars
    lambda x, y: 1.0 if x < 0.5 else 0.0,       # branch on a scalar
    lambda x, y: float(x) * 2.0,
])
def test_scalar_only_callbacks_raise_type_error(bad):
    mesh = refine_uniform(unit_square_mesh())
    with pytest.raises(TypeError, match="coordinate arrays"):
        gn.assemble_stokes(mesh, f=bad)
    with pytest.raises(TypeError, match="coordinate arrays"):
        gn.assemble_stokes(mesh, f=lambda x, y: (bad(x, y), 0.0),
                           quadrature=2)


def test_malformed_load_values_raise_type_error():
    mesh = refine_uniform(unit_square_mesh())
    with pytest.raises(TypeError, match="broadcast"):
        gn.assemble_stokes(mesh, f=lambda x, y: (np.ones(7), y))
    with pytest.raises(TypeError, match="returned 3 components, expected 2"):
        gn.assemble_stokes(mesh, f=lambda x, y: (x, y, x))
    # a scalar is one component, not an iterable that fails to unpack
    with pytest.raises(TypeError, match="returned 1 components, expected 2"):
        gn.assemble_stokes(mesh, f=lambda x, y: 1.0)


@pytest.mark.parametrize("quadrature", ["exact", 2])
def test_complex_load_values_raise_type_error(quadrature):
    # a cast to float would drop the imaginary part behind a warning
    mesh = stokes_mesh(8)
    for f in (lambda x, y: (0 * x + 1j, 0 * y), lambda x, y: (x, complex(1, 0))):
        with pytest.raises(TypeError, match="real, not complex"):
            gn.assemble_stokes(mesh, f=f, quadrature=quadrature)
