"""Shared fixtures and oracle helpers for the test suite."""

import warnings

import numpy as np
import pytest

from sr3d.algebra import LieAlgebra3, bracket, change_basis, check_jacobi
from sr3d.classify import catalog, catalog_entry
from sr3d.frames import SRStructure
from sr3d.geodesics import IntegrationBlowUpError


@pytest.fixture(scope="session")
def entries():
    return catalog()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def frame_algebra(c01_1=0.0, c01_2=0.0, c02_1=0.0, c02_2=0.0,
                  c12_1=0.0, c12_2=0.0) -> LieAlgebra3:
    """Algebra whose basis (e1, e2, e3) realizes the given frame constants.

    (e1, e2) play the orthonormal pair, e3 the transverse vector:
    [e1,e3] = c01_1 e1 + c01_2 e2, [e2,e3] = c02_1 e1 + c02_2 e2,
    [e2,e1] = c12_1 e1 + c12_2 e2 + e3.  Callers must supply constants that
    satisfy the Jacobi identity (verified here): c01_1 = -c02_2,
    c02_2 c12_1 = c02_1 c12_2 and c01_1 c12_2 = c01_2 c12_1.
    """
    algebra = LieAlgebra3.from_brackets({
        (0, 2): (c01_1, c01_2, 0.0),
        (1, 2): (c02_1, c02_2, 0.0),
        (0, 1): (-c12_1, -c12_2, -1.0),
    })
    report = check_jacobi(algebra)
    assert report.passed, f"test constants violate Jacobi: {report.max_residual}"
    return algebra


def frame_structure(**constants) -> SRStructure:
    """SRStructure presenting the frame-constants algebra on span{e1, e2}."""
    return SRStructure(
        frame_algebra(**constants), np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.eye(2)
    )


def random_well_conditioned_matrix(rng, n=3, scale_range=(0.5, 2.0)):
    """Random invertible matrix with singular values in ``scale_range``."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(*scale_range, size=n)) @ q2


def re_present(structure: SRStructure, rng, mix_span=True,
               change_algebra_basis=True) -> SRStructure:
    """The same geometric structure in a random presentation.

    Optionally changes the algebra basis (transforming span coordinates
    accordingly) and re-generates the plane with a random invertible mix of
    the generators (transforming the gram matrix congruently).
    """
    algebra = structure.algebra
    span = structure.span.copy()
    gram = structure.gram.copy()
    if change_algebra_basis:
        b = random_well_conditioned_matrix(rng)
        algebra = change_basis(algebra, b)
        b_inv = np.linalg.inv(b)
        span = span @ b_inv.T
    if mix_span:
        m = random_well_conditioned_matrix(rng, n=2)
        span = m @ span
        gram = m @ gram @ m.T
    return SRStructure(algebra, span, gram)


# Abelian 2-planes span(e_i, e_j), [e_i, e_j] = 0, of catalog algebras.  After
# a basis change their bracket is rounding noise of the constants' size.
ABELIAN_PLANES = (("h3", (0, 2)), ("se2", (0, 1)), ("aplus", (1, 2)), ("solv_plus", (1, 2)))


def abelian_plane(name: str, pair) -> SRStructure:
    """The plane span(e_i, e_j) of the named catalog algebra, unit gram."""
    return SRStructure(catalog_entry(name).structure.algebra, np.eye(3)[list(pair)], np.eye(2))


def brute_force_jacobi_residual(algebra: LieAlgebra3) -> float:
    """Independent Jacobi oracle: expand all triple brackets of basis vectors."""
    basis = [algebra.basis_vector(i) for i in range(3)]
    worst = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                total = (
                    bracket(algebra, bracket(algebra, basis[i], basis[j]), basis[k])
                    + bracket(algebra, bracket(algebra, basis[j], basis[k]), basis[i])
                    + bracket(algebra, bracket(algebra, basis[k], basis[i]), basis[j])
                )
                worst = max(worst, float(np.max(np.abs(total))))
    return worst


def finite_or_documented(call):
    """Oracle of the non-finite input properties: ``call()`` returns values
    that are all finite, or raises IntegrationBlowUpError or ValueError, and
    emits no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = call()
        except (IntegrationBlowUpError, ValueError):
            return
    for x in result:
        assert np.all(np.isfinite(x))
