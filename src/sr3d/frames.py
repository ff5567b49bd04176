"""Adapted frames for left-invariant rank-2 distributions on 3D Lie algebras.

Given a 2-plane with an inner product inside a 3D Lie algebra, this module
orthonormalizes the plane, checks that it is bracket generating (equivalently
a contact distribution), constructs the transverse Reeb vector ``f0``, and
extracts the six frame constants

    [f1, f0] = c01_1 f1 + c01_2 f2
    [f2, f0] = c02_1 f1 + c02_2 f2
    [f2, f1] = c12_1 f1 + c12_2 f2 + f0

that drive everything downstream.  One contact rule, relative to the size of
the algebra's constants, decides whether a bracket leaves the plane; the
plane's own bracket is taken once.  For left-invariant data the Reeb
conditions are linear, and one 3x3 solve in the basis (f1, f2, [f2, f1])
yields all six constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .algebra import LieAlgebra3, Vector3, as_vector3, bracket
from .config import rel_tol


class NotBracketGeneratingError(ValueError):
    """The distribution is a subalgebra, hence not bracket generating."""


_SUBALGEBRA = "distribution is a subalgebra - not bracket generating"


def _sym2_eigenvalues(a: float, b: float, c: float) -> Tuple[float, float]:
    """(lower, higher) eigenvalue of the symmetric matrix [[a, b], [b, c]].

    Above zero the lower one is det / higher, which stays accurate when it
    is small against the higher.
    """
    mean, radius = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    high = mean + radius
    return ((a * c - b * b) / high if high > 0.0 else mean - radius), high


def _span_sigma2(x1, y1, z1, x2, y2, z2) -> float:
    """Smaller singular value of the 2x3 matrix with rows v1, v2 (entries <= 1
    in size, one of them 1): |v1 x v2| over the larger singular value."""
    sigma1 = math.sqrt(_sym2_eigenvalues(
        x1 * x1 + y1 * y1 + z1 * z1, x1 * x2 + y1 * y2 + z1 * z2, x2 * x2 + y2 * y2 + z2 * z2,
    )[1])
    return math.hypot(y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2) / sigma1


@dataclass(frozen=True)
class SRStructure:
    """A 2D distribution with inner product inside a 3D Lie algebra.

    ``span`` holds the two generating coefficient vectors as rows; ``gram``
    is the inner product matrix of those generators.  Generators must be
    linearly independent and the gram matrix positive definite.  Whether the
    plane is bracket generating is *not* checked here (see
    :func:`check_contact`) so degenerate inputs can still be reported on.
    """

    algebra: LieAlgebra3
    span: np.ndarray
    gram: np.ndarray

    def __post_init__(self):
        # Rank, symmetry and definiteness are closed forms on plain floats,
        # since on 2x3 and 2x2 inputs numpy's per-call cost is most of the
        # work.  Each threshold is 1e-12 relative to the largest entry, and
        # entries are divided by it: the verdict is blind to scaling and
        # nothing can overflow.
        span = np.asarray(self.span, dtype=float)
        if span.shape != (2, 3):
            raise ValueError(f"span must hold two 3-vectors, got shape {span.shape}")
        entries = span.ravel().tolist()
        if not all(map(math.isfinite, entries)):
            raise ValueError("span coefficients must be finite")
        m = max(map(abs, entries))
        if m == 0.0 or _span_sigma2(*(x / m for x in entries)) <= 1e-12:
            raise ValueError("span vectors are linearly dependent")
        gram = np.asarray(self.gram, dtype=float)
        if gram.shape != (2, 2):
            raise ValueError(f"gram must be 2x2, got shape {gram.shape}")
        (g00, g01), (g10, g11) = gram.tolist()
        if not all(map(math.isfinite, (g00, g01, g10, g11))):
            raise ValueError("gram entries must be finite")
        m = max(abs(g00), abs(g01), abs(g10), abs(g11))
        if not abs(g01 - g10) <= 1e-12 * m:
            raise ValueError("gram matrix must be symmetric")
        if m == 0.0:
            raise ValueError("gram matrix must be positive definite")
        low, high = _sym2_eigenvalues(g00 / m, 0.5 * (g01 / m + g10 / m), g11 / m)
        if low <= 1e-12 * high:
            raise ValueError("gram matrix must be positive definite")
        span = span.copy()
        span.flags.writeable = False
        # Halving before adding is exact on normal floats and cannot overflow.
        g01 = 0.5 * g01 + 0.5 * g10
        gram = np.array([[g00, g01], [g01, g11]])
        gram.flags.writeable = False
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "gram", gram)

    @property
    def v1(self) -> Vector3:
        return self.span[0]

    @property
    def v2(self) -> Vector3:
        return self.span[1]


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal pair (f1, f2) plus Reeb vector f0 and frame constants.

    A dilation scales the c0i_j by lambda^2, and the c12_j and |f0| / |f1| by
    lambda.  ``unit`` is the power of two nearest |f0| / |f1|, and ``scale``
    = unit^2 + max(|c0i_j|, unit |c12_j|) the frame's one degree-2 scale for
    zero tests (c12 is tested against scale / unit), both set at construction.
    """

    algebra: LieAlgebra3
    f1: Vector3
    f2: Vector3
    f0: Vector3
    c01_1: float
    c01_2: float
    c02_1: float
    c02_2: float
    c12_1: float
    c12_2: float
    unit: float = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self):
        for name in ("f1", "f2", "f0"):
            v = np.asarray(getattr(self, name), dtype=float).copy()
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        mant, exp = math.frexp(math.hypot(*self.f0.tolist()) / math.hypot(*self.f1.tolist()))
        u = math.ldexp(1.0, exp - (mant * mant < 0.5))
        object.__setattr__(self, "unit", u)
        object.__setattr__(self, "scale", u * u + max(
            abs(self.c01_1), abs(self.c01_2), abs(self.c02_1), abs(self.c02_2),
            u * abs(self.c12_1), u * abs(self.c12_2)))

    @property
    def constants(self) -> Tuple[float, float, float, float, float, float]:
        return (self.c01_1, self.c01_2, self.c02_1, self.c02_2, self.c12_1, self.c12_2)


def orthonormalize(structure: SRStructure) -> Tuple[Vector3, Vector3]:
    """Gram-Schmidt orthonormalization of the generators, starting from v1.

    Deterministic: f1 is the normalized first generator, f2 the normalized
    component of the second orthogonal to it, all in the metric encoded by
    the gram matrix.
    """
    g = structure.gram
    n1 = math.sqrt(g[0, 0])
    f1 = structure.v1 / n1
    # <v2, f1> = g12 / n1; subtract the projection, then normalize with the
    # induced norm of the remainder.
    w = structure.v2 - (g[0, 1] / g[0, 0]) * structure.v1
    n2_sq = g[1, 1] - g[0, 1] ** 2 / g[0, 0]
    f2 = w / math.sqrt(n2_sq)
    return f1, f2


def check_contact(structure: SRStructure) -> bool:
    """True iff [v1, v2] passes the contact rule every frame applies (:func:`_transverse`)."""
    return _plane_bracket(structure)[0] != 0.0


def _transverse(v: Vector3, a: Vector3, b: Vector3, scale: float) -> Tuple[float, tuple]:
    """(v . n, n) for n = a x b under the contact rule: v . n is set to 0.0
    when |v . n| <= tol |v| |n| (v is tangent to the plane) or when
    |v| <= tol scale |a| |b| (v is at rounding size of constants of size
    ``scale``, as the bracket of an abelian plane is), for tol = rel_tol()."""
    (a1, a2, a3), (b1, b2, b3) = a.tolist(), b.tolist()
    n = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    v = v.tolist()
    vn = v[0] * n[0] + v[1] * n[1] + v[2] * n[2]
    tol, size = rel_tol(), math.hypot(*v)
    if (abs(vn) <= tol * size * math.hypot(*n)
            or size <= tol * scale * math.hypot(a1, a2, a3) * math.hypot(b1, b2, b3)):
        vn = 0.0
    return vn, n


def _plane_bracket(structure: SRStructure) -> Tuple[float, tuple]:
    """:func:`_transverse` of [v1, v2] and v1 x v2 on the generators divided by
    their largest entries: the rule is blind to rescaling, and nothing overflows."""
    v1, v2 = (v / max(map(abs, v.tolist())) for v in structure.span)
    return _transverse(bracket(structure.algebra, v1, v2), v1, v2, structure.algebra.scale)


def frame_from_orthonormal(algebra: LieAlgebra3, f1: Vector3, f2: Vector3) -> AdaptedFrame:
    """Adapted frame for a given *ordered* orthonormal pair.

    No reordering or sign normalization is applied: the Reeb vector is the
    one with ``[f2, f1] = c12_1 f1 + c12_2 f2 + f0`` for this exact pair.
    One solve gives all six constants: [f_i, v] = q_i1 f1 + q_i2 f2 + p_i v
    in the basis (f1, f2, v), for v = [f2, f1].  As [f1, f2] = -v, f0 =
    v - a f1 - b f2 has [f1, f0] = [f1, v] + b v and [f2, f0] = [f2, v] - a v,
    so the Reeb conditions give (c12_1, c12_2) = (a, b) = (p2, -p1), and
    (c0i_1, c0i_2) = (q_i1, q_i2).  Raises :class:`NotBracketGeneratingError`
    when v fails the contact rule of :func:`_transverse` or the basis is
    numerically singular.
    """
    f1, f2 = as_vector3(f1), as_vector3(f2)
    v = bracket(algebra, f2, f1)
    if _transverse(v, f1, f2, algebra.scale)[0] == 0.0:
        raise NotBracketGeneratingError(_SUBALGEBRA)
    try:
        w = np.linalg.solve(np.column_stack([f1, f2, v]),
                            np.column_stack([bracket(algebra, f1, v), bracket(algebra, f2, v)]))
    except np.linalg.LinAlgError as err:
        raise NotBracketGeneratingError(
            "frame basis is numerically singular - not bracket generating") from err
    (c01_1, c02_1), (c01_2, c02_2), (p1, p2) = w.tolist()
    a, b = p2, -p1
    return AdaptedFrame(algebra, f1, f2, v - a * f1 - b * f2, c01_1, c01_2, c02_1, c02_2, a, b)


def reeb_frame(structure: SRStructure) -> AdaptedFrame:
    """Orthonormalize, orient, and build the adapted frame of a structure.

    Orientation convention: the pair is ordered so the transverse part of
    [f2, f1] points toward positive first significant coordinate.  This
    makes the output independent of the order and of any constant rotation
    of the input generators, so f0 is well defined by the structure alone.
    Gram-Schmidt keeps the orientation of (v1, v2), so [f2, f1] and f1 x f2
    are positive multiples of [v2, v1] and v1 x v2: the one bracket [v1, v2]
    decides contact and order, and the pair is swapped when [v1, v2] . n
    times the first significant coordinate of n = v1 x v2 is positive.
    """
    vn, n = _plane_bracket(structure)
    if vn == 0.0:
        raise NotBracketGeneratingError(_SUBALGEBRA)
    f1, f2 = orthonormalize(structure)
    if vn * _first_significant(n) > 0:
        f1, f2 = f2, f1
    return frame_from_orthonormal(structure.algebra, f1, f2)


def _first_significant(v) -> float:
    threshold = rel_tol() * max(abs(x) for x in v)
    return next((float(x) for x in v if abs(x) > threshold), 0.0)


def rotate_frame(frame: AdaptedFrame, theta: float) -> AdaptedFrame:
    """Rotate the orthonormal pair by a constant angle; f0 is unchanged.

    New pair: ``f1' = cos(theta) f1 + sin(theta) f2``,
    ``f2' = -sin(theta) f1 + cos(theta) f2``.  Constants are recomputed from
    the actual brackets of the rotated pair.
    """
    c, s = math.cos(theta), math.sin(theta)
    f1 = c * frame.f1 + s * frame.f2
    f2 = -s * frame.f1 + c * frame.f2
    rotated = frame_from_orthonormal(frame.algebra, f1, f2)
    # Rotations have determinant one, so [f2', f1'] = [f2, f1] and the Reeb
    # vector must come back unchanged.
    atol = 1e-9 * float(np.linalg.norm(frame.f0))
    if not np.allclose(rotated.f0, frame.f0, atol=atol, rtol=0):
        raise AssertionError("rotation changed the Reeb vector")
    return rotated
