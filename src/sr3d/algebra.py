"""Core arithmetic for real 3-dimensional Lie algebras.

An algebra is stored as its full antisymmetric structure-constant tensor
``c`` with ``[e_i, e_j] = sum_k c[i, j, k] e_k``.  On top of that the module
provides the bracket, a Jacobi-identity verifier, the Killing form, basis
changes, and a coarse identification of the algebra among the isomorphism
classes that admit left-invariant contact structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Tuple

import numpy as np

from .config import rel_tol

Vector3 = np.ndarray

# Coarse isomorphism labels.  "a(R)+R" is the direct sum of the affine
# algebra of the line with a 1-dimensional center; "solv+"/"solv-" are the
# solvable families with 2-dimensional derived algebra split by the sign of
# the determinant of the adjoint action on it.
H3 = "h3"
A_PLUS_R = "a(R)+R"
SE2 = "se(2)"
SH2 = "sh(2)"
SOLV_PLUS = "solv+"
SOLV_MINUS = "solv-"
SL2 = "sl(2)"
SU2 = "su(2)"
OTHER = "other"


def as_vector3(coeffs: Iterable[float]) -> Vector3:
    """Coerce to a finite float vector of length 3."""
    v = np.asarray(tuple(coeffs), dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected 3 coefficients, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError("vector coefficients must be finite")
    return v


@dataclass(frozen=True)
class LieAlgebra3:
    """A 3D real Lie algebra in a fixed basis.

    ``c[i, j, k]`` is the ``e_k`` coefficient of ``[e_i, e_j]``.  The tensor
    must be exactly antisymmetric in (i, j); construction rejects anything
    else rather than symmetrizing.  The Jacobi identity is *not* enforced at
    construction (see :func:`check_jacobi`) so that deliberately broken
    tensors can be built and reported on.
    """

    c: np.ndarray
    # Largest absolute structure constant (0 for the abelian algebra): the
    # one scale of every zero test on the algebra, set at construction.
    scale: float = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (3, 3, 3):
            raise ValueError(f"structure tensor must be 3x3x3, got {c.shape}")
        size = float(np.max(np.abs(c)))
        if not math.isfinite(size):
            raise ValueError("structure constants must be finite")
        # The Jacobi sums and the Killing form add up to 18 products of two
        # constants each, so those sums must stay floats.
        if not math.isfinite(18.0 * size * size):
            raise ValueError(f"structure constants too large: 18 max|c|^2 overflows a float "
                             f"(max|c| = {size:.3g})")
        if not np.array_equal(c, -np.swapaxes(c, 0, 1)):
            raise ValueError("structure tensor is not antisymmetric in (i, j)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "scale", size)

    @classmethod
    def from_brackets(
        cls, brackets: Mapping[Tuple[int, int], Iterable[float]]
    ) -> "LieAlgebra3":
        """Build the tensor from the nonzero brackets ``{(i, j): [e_i, e_j]}``.

        The antisymmetric completion ``c[j, i] = -c[i, j]`` is filled in
        automatically.  Conflicting duplicate entries are rejected.
        """
        c = np.zeros((3, 3, 3))
        seen = {}
        for (i, j), coeffs in brackets.items():
            if i == j:
                raise ValueError(f"bracket ({i},{i}) must vanish by antisymmetry")
            key = (min(i, j), max(i, j))
            v = as_vector3(coeffs)
            signed = v if (i, j) == key else -v
            if key in seen and not np.array_equal(seen[key], signed):
                raise ValueError(f"conflicting values for bracket {key}")
            seen[key] = signed
            c[key] = signed
        return cls(c - np.swapaxes(c, 0, 1))

    def basis_vector(self, i: int) -> Vector3:
        e = np.zeros(3)
        e[i] = 1.0
        return e


def bracket(algebra: LieAlgebra3, x: Vector3, y: Vector3) -> Vector3:
    """Lie bracket [x, y] of two coefficient vectors."""
    return np.einsum("i,j,ijk->k", np.asarray(x, float), np.asarray(y, float), algebra.c)


def ad_matrix(algebra: LieAlgebra3, x: Vector3) -> np.ndarray:
    """Matrix of ad(x): y -> [x, y] in the algebra basis."""
    # (ad x)[k, j] = sum_i x_i c[i, j, k]
    return np.einsum("i,ijk->kj", np.asarray(x, float), algebra.c)


@dataclass(frozen=True)
class JacobiReport:
    max_residual: float
    tolerance: float
    passed: bool


def jacobi_tolerance(algebra: LieAlgebra3) -> float:
    # The Jacobi sum is quadratic in the constants, so its rounding error is
    # relative to max|c|^2: constants scaled by any factor get the same verdict.
    return 1e-12 * algebra.scale**2


def check_jacobi(algebra: LieAlgebra3) -> JacobiReport:
    """Verify the Jacobi identity; returns the worst residual and a verdict.

    Residual for indices (i, j, k, l):
    ``sum_m c[i,j,m] c[m,k,l] + c[j,k,m] c[m,i,l] + c[k,i,m] c[m,j,l]``.
    """
    # The second and third terms are the first with (i, j, k) cycled.
    t = np.einsum("ijm,mkl->ijkl", algebra.c, algebra.c)
    s = t + t.transpose(2, 0, 1, 3) + t.transpose(1, 2, 0, 3)
    residual = float(np.max(np.abs(s)))
    tol = jacobi_tolerance(algebra)
    return JacobiReport(residual, tol, residual <= tol)


def killing_form(algebra: LieAlgebra3) -> np.ndarray:
    """Killing form K[i, j] = trace(ad e_i . ad e_j) = sum c[i,l,k] c[j,k,l]."""
    k = np.einsum("ilk,jkl->ij", algebra.c, algebra.c)
    return 0.5 * (k + k.T)


def is_unimodular(algebra: LieAlgebra3) -> bool:
    """True iff trace(ad x) = 0 for every x, within tolerance."""
    traces = np.einsum("ijj->i", algebra.c)
    return bool(np.max(np.abs(traces)) <= rel_tol() * algebra.scale)


def change_basis(algebra: LieAlgebra3, b: np.ndarray) -> LieAlgebra3:
    """Structure constants in the new basis e'_i = sum_j b[j, i] e_j.

    Columns of ``b`` are the new basis vectors in old coordinates.
    """
    b = np.asarray(b, float)
    b_inv = np.linalg.inv(b)
    c_new = np.einsum("ki,lj,klm,nm->ijn", b, b, algebra.c, b_inv)
    # Exact antisymmetry can be lost to rounding; restore it explicitly.
    c_new = 0.5 * (c_new - np.swapaxes(c_new, 0, 1))
    return LieAlgebra3(c_new)


def derived_subalgebra(algebra: LieAlgebra3) -> np.ndarray:
    """Orthonormal basis (rows) of the span of all brackets [e_i, e_j]."""
    gens = np.array(
        [algebra.c[0, 1], algebra.c[0, 2], algebra.c[1, 2]]
    )
    u, s, vt = np.linalg.svd(gens)
    rank = int(np.sum(s > rel_tol() * algebra.scale))
    return vt[:rank]


def identify_algebra(algebra: LieAlgebra3) -> str:
    """Coarse isomorphism label of the algebra.

    Discriminates on the dimension of the derived algebra, then on the
    adjoint action / Killing signature:

    * dim 0: abelian, not one of the contact-admitting classes -> "other";
    * dim 1: Heisenberg when the derived line is central, else a(R)+R;
    * dim 2: the adjoint action A of a complementary vector on the derived
      plane decides -- det A > 0 with trace 0 gives se(2), det A < 0 with
      trace 0 gives sh(2), nonzero trace gives solv+/solv- by sign of det;
    * dim 3: semisimple; Killing form definite gives su(2), else sl(2).

    Never raises: anything that fits no pattern is labelled "other".
    """
    eps = rel_tol()
    tol = eps * algebra.scale
    derived = derived_subalgebra(algebra)
    dim = derived.shape[0]

    if dim == 0:
        return OTHER

    if dim == 1:
        # Central derived line <=> ad(d) = 0.
        central = np.max(np.abs(ad_matrix(algebra, derived[0]))) <= tol
        return H3 if central else A_PLUS_R

    if dim == 2:
        # Pick the unit vector orthogonal to the derived plane as the
        # complement; ad of it preserves the plane (an ideal).  The rank-2
        # test keeps that action nonzero; it is read divided by its largest entry.
        a_op = derived @ ad_matrix(algebra, np.cross(*derived)) @ derived.T
        a_op /= np.max(np.abs(a_op))
        det = float(np.linalg.det(a_op))
        trace = float(np.trace(a_op))
        if abs(det) <= eps:
            return OTHER
        if abs(trace) <= eps:
            return SE2 if det > 0 else SH2
        return SOLV_PLUS if det > 0 else SOLV_MINUS

    # dim == 3: semisimple.
    eigs = np.linalg.eigvalsh(killing_form(algebra))
    if np.max(np.abs(eigs)) <= tol**2:
        return OTHER
    if np.all(eigs < 0):
        return SU2
    if np.all(eigs > 0):  # impossible for a real form, but do not crash
        return OTHER
    return SL2

