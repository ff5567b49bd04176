import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sr3d.algebra import (
    A_PLUS_R,
    H3,
    SL2,
    SU2,
    LieAlgebra3,
    ad_matrix,
    bracket,
    change_basis,
    check_jacobi,
    identify_algebra,
    is_unimodular,
    killing_form,
)
from sr3d.classify import catalog_entry

from conftest import brute_force_jacobi_residual, random_well_conditioned_matrix

E = np.eye(3)

HEISENBERG = LieAlgebra3.from_brackets({(0, 1): (0, 0, 1)})
ABELIAN = LieAlgebra3(np.zeros((3, 3, 3)))
APLUS_ALG = LieAlgebra3.from_brackets({(0, 1): (1, 0, 0)})
SU2_ALG = LieAlgebra3.from_brackets(
    {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (2, 0): (0, 1, 0)}
)
SL2_ALG = catalog_entry("sl2_elliptic_killing").structure.algebra


def sl2_matrices():
    g1 = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])
    g2 = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    g3 = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return g1, g2, g3


class TestConstruction:
    def test_rejects_non_antisymmetric(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0  # no compensating c[1,0,2]
        with pytest.raises(ValueError, match="antisymmetric"):
            LieAlgebra3(c)

    def test_rejects_conflicting_duplicates(self):
        with pytest.raises(ValueError, match="conflicting"):
            LieAlgebra3.from_brackets({(0, 1): (0, 0, 1), (1, 0): (0, 0, 1)})

    def test_tensor_is_readonly(self):
        with pytest.raises(ValueError):
            HEISENBERG.c[0, 1, 2] = 2.0


class TestBracket:
    def test_heisenberg_defining_relation(self):
        assert np.allclose(bracket(HEISENBERG, E[0], E[1]), E[2])

    def test_bracket_of_vector_with_itself_vanishes(self):
        x = np.array([0.3, -1.2, 2.5])
        assert np.allclose(bracket(SL2_ALG, x, x), 0.0)

    def test_sl2_bracket_against_matrix_commutator(self):
        # Oracle: commute the explicit 2x2 matrices, then read coefficients
        # off by solving in the matrix basis.
        g1, g2, g3 = sl2_matrices()
        comm = g1 @ g2 - g2 @ g1
        basis = np.column_stack([g.ravel() for g in (g1, g2, g3)])
        coeffs, *_ = np.linalg.lstsq(basis, comm.ravel(), rcond=None)
        assert np.allclose(coeffs, [0.0, 0.0, 1.0], atol=1e-14)
        assert np.allclose(bracket(SL2_ALG, E[0], E[1]), coeffs, atol=1e-14)

    def test_bilinear_antisymmetric_on_random_triples(self, rng):
        algebra = SL2_ALG
        for _ in range(1000):
            x, y, z = rng.normal(size=(3, 3))
            a, b = rng.normal(size=2)
            left = bracket(algebra, a * x + b * y, z)
            right = a * bracket(algebra, x, z) + b * bracket(algebra, y, z)
            assert np.max(np.abs(left - right)) <= 1e-12 * (
                1 + np.max(np.abs([left, right]))
            )
            swap = bracket(algebra, z, x) + bracket(algebra, x, z)
            assert np.max(np.abs(swap)) <= 1e-12


class TestJacobi:
    def test_abelian_passes_with_zero_residual(self):
        report = check_jacobi(ABELIAN)
        assert report.passed and report.max_residual == 0.0

    def test_heisenberg_passes_with_zero_residual(self):
        report = check_jacobi(HEISENBERG)
        assert report.passed and report.max_residual == 0.0

    def test_violating_tensor_matches_brute_force_expansion(self):
        # [e1,e2] = e1 and [e2,e3] = e2 break Jacobi: the cyclic sum on
        # (e1,e2,e3) comes out to -e1.
        algebra = LieAlgebra3.from_brackets({(0, 1): (1, 0, 0), (1, 2): (0, 1, 0)})
        report = check_jacobi(algebra)
        oracle = brute_force_jacobi_residual(algebra)
        assert not report.passed
        assert report.max_residual == pytest.approx(oracle, abs=1e-15)
        assert oracle == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("alg", [HEISENBERG, APLUS_ALG, SU2_ALG, SL2_ALG])
    def test_report_agrees_with_brute_force(self, alg):
        assert check_jacobi(alg).max_residual == pytest.approx(
            brute_force_jacobi_residual(alg), abs=1e-14
        )


    def test_residual_is_bit_identical_to_the_three_einsum_sum(self, entries, rng):
        tensors = [e.structure.algebra.c for e in entries]
        for _ in range(500):
            c = rng.normal(size=(3, 3, 3))
            tensors.append(c - np.swapaxes(c, 0, 1))
        for c in tensors:
            reference = (
                np.einsum("ijm,mkl->ijkl", c, c)
                + np.einsum("jkm,mil->ijkl", c, c)
                + np.einsum("kim,mjl->ijkl", c, c)
            )
            assert check_jacobi(LieAlgebra3(c)).max_residual == float(np.max(np.abs(reference)))


class TestKillingForm:
    def test_matches_traces_of_adjoint_products(self, entries, rng):
        # Jacobi holds on the catalog and its basis changes, and fails on
        # the random tensors.
        algebras = [e.structure.algebra for e in entries]
        algebras += [change_basis(a, random_well_conditioned_matrix(rng)) for a in algebras]
        for _ in range(100):
            c = rng.normal(size=(3, 3, 3))
            algebras.append(LieAlgebra3(c - np.swapaxes(c, 0, 1)))
        for algebra in algebras:
            ads = [ad_matrix(algebra, e) for e in E]
            reference = np.array([[np.trace(a @ b) for b in ads] for a in ads])
            gap = np.max(np.abs(killing_form(algebra) - reference))
            # Relative to the size of the entries, which are quadratic in c.
            assert gap <= 1e-12 * algebra.scale**2

    def test_abelian_is_zero(self):
        assert np.allclose(killing_form(ABELIAN), 0.0)

    def test_heisenberg_is_zero(self):
        # ad(e_i) are strictly triangular in a suitable order, so every
        # product of two of them is traceless.
        assert np.allclose(killing_form(HEISENBERG), 0.0)

    def test_sl2_signature(self):
        # Direct trace computation gives diag(2, 2, -2) in this basis.
        k = killing_form(SL2_ALG)
        assert np.allclose(k, np.diag([2.0, 2.0, -2.0]), atol=1e-14)
        eigs = np.linalg.eigvalsh(k)
        assert (eigs > 0).sum() == 2 and (eigs < 0).sum() == 1

    def test_congruence_under_basis_change(self, rng):
        for alg in (SU2_ALG, SL2_ALG, APLUS_ALG):
            k = killing_form(alg)
            for _ in range(20):
                b = random_well_conditioned_matrix(rng)
                k_new = killing_form(change_basis(alg, b))
                assert np.max(np.abs(k_new - b.T @ k @ b)) <= 1e-10


class TestIdentify:
    def test_heisenberg(self):
        assert identify_algebra(HEISENBERG) == H3

    def test_affine_line_plus_center(self):
        assert identify_algebra(APLUS_ALG) == A_PLUS_R

    def test_su2_cyclic(self):
        assert identify_algebra(SU2_ALG) == SU2
        assert np.all(np.linalg.eigvalsh(killing_form(SU2_ALG)) < 0)
        assert is_unimodular(SU2_ALG)

    def test_abelian_is_other(self):
        assert identify_algebra(ABELIAN) == "other"

    def test_catalog_algebras(self, entries):
        base = {"sl_e(2)": SL2, "sl_h(2)": SL2}
        for entry in entries:
            expected = base.get(entry.algebra, entry.algebra)
            assert identify_algebra(entry.structure.algebra) == expected, entry.name

    def test_label_invariant_under_basis_change(self, entries, rng):
        for entry in entries:
            algebra = entry.structure.algebra
            expected = identify_algebra(algebra)
            for _ in range(100):
                changed = change_basis(algebra, random_well_conditioned_matrix(rng))
                assert check_jacobi(changed).passed
                assert identify_algebra(changed) == expected, entry.name


class TestUnimodular:
    def test_heisenberg_true(self):
        assert is_unimodular(HEISENBERG)

    def test_affine_false(self):
        assert not is_unimodular(APLUS_ALG)

    def test_sl2_true(self):
        assert is_unimodular(SL2_ALG)
        # trace of every ad matrix vanishes identically on this basis
        for i in range(3):
            assert abs(np.trace(ad_matrix(SL2_ALG, E[i]))) <= 1e-14


@given(
    coeffs=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=6, max_size=6
    )
)
@settings(max_examples=200, deadline=None)
def test_ad_matrix_consistent_with_bracket(coeffs):
    x = np.array(coeffs[:3])
    y = np.array(coeffs[3:])
    got = ad_matrix(SL2_ALG, x) @ y
    want = bracket(SL2_ALG, x, y)
    assert np.max(np.abs(got - want)) <= 1e-9 * (1 + np.max(np.abs(want)))
