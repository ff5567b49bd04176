"""The two metric invariants of a 3D contact sub-Riemannian structure.

From an adapted frame the vertical Poisson bracket {h, h0} restricts to a
traceless quadratic form on the distribution.  Its positive eigenvalue is
the first invariant ``chi``; the second invariant ``kappa`` combines the
in-plane frame constants with the antisymmetric part of the c0* block:

    chi   = sqrt(c01_1^2 + ((c01_2 + c02_1) / 2)^2)
    kappa = -c12_1^2 - c12_2^2 + (c01_2 - c02_1) / 2

These formulas are the constant-structure-constant specialization valid for
left-invariant frames (the derivative terms of the general definition
vanish).  Both invariants scale as lambda^2 under a dilation of the frame
by lambda, which is what :func:`normalize` exploits to land every structure
on chi = kappa = 0 or chi^2 + kappa^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import rel_tol
from .frames import AdaptedFrame, frame_from_orthonormal


@dataclass(frozen=True)
class Invariants:
    """Normalized invariant pair plus the dilation factor used to get there."""

    chi: float
    kappa: float
    dilation: float


def bracket_form(frame: AdaptedFrame) -> np.ndarray:
    """Quadratic form of the vertical Poisson bracket on the frame basis.

    q = [[c01_1, (c01_2 + c02_1)/2], [(c01_2 + c02_1)/2, c02_2]]; traceless
    whenever the frame constants are consistent (c01_1 + c02_2 = 0).
    """
    off = 0.5 * (frame.c01_2 + frame.c02_1)
    q = np.array([[frame.c01_1, off], [off, frame.c02_2]])
    if abs(np.trace(q)) > 1e-10 * frame.scale:
        raise AssertionError("bracket form is not traceless; frame is inconsistent")
    return q


def compute_chi(frame: AdaptedFrame) -> float:
    """First invariant: sqrt of minus the determinant of the bracket form.

    For a traceless symmetric form [[a, b], [b, -a]] this is sqrt(a^2 + b^2),
    hence always >= 0.
    """
    a = frame.c01_1
    b = 0.5 * (frame.c01_2 + frame.c02_1)
    return math.hypot(a, b)


def compute_kappa(frame: AdaptedFrame) -> float:
    """Second invariant (constant-frame specialization)."""
    return (
        -frame.c12_1**2
        - frame.c12_2**2
        + 0.5 * (frame.c01_2 - frame.c02_1)
    )


def normalize(chi: float, kappa: float, scale: float | None = None) -> Invariants:
    """Dilate so that either chi = kappa = 0 exactly or chi^2 + kappa^2 = 1.

    Both invariants are homogeneous of degree 2 under dilations, so the
    factor is lambda = (chi^2 + kappa^2)^(-1/4) and the normalized pair is
    (lambda^2 chi, lambda^2 kappa).  Pairs at or below rel_tol() times
    ``scale`` (a frame's :attr:`~sr3d.frames.AdaptedFrame.scale`; with none,
    the pair's own size, so only (0, 0)) map to exact zeros so
    classification stays branch-stable.
    """
    size = max(abs(chi), abs(kappa))
    if size <= rel_tol() * (size if scale is None else scale):
        return Invariants(0.0, 0.0, 1.0)
    r = math.hypot(chi, kappa)
    lam = r**-0.5
    return Invariants(chi / r, kappa / r, lam)


class ChiZeroError(ValueError):
    """Canonical rotation is undefined when the bracket form vanishes."""


def canonical_frame(frame: AdaptedFrame) -> AdaptedFrame:
    """Rotation (plus sign fixes) bringing the bracket form to [[0, x], [x, 0]].

    Only defined for chi > 0.  The traceless form [[a, b], [b, -a]] rotates
    at double angle under frame rotations, so theta = (-atan2(a, b)/2) mod pi
    is the smallest non-negative angle giving an off-diagonal form with
    positive entry chi.  The leftover sign freedom (flipping f1 or f2
    together with f0) is fixed by forcing c12_1 >= 0 and c12_2 >= 0;
    neither flip touches c01_2, c02_1 or the invariants.  Rotating turns
    (c12_1, c12_2) by -theta, flipping f2 negates c12_1 and flipping f1
    negates c12_2, so theta and both signs are read off the input frame and
    the frame is built once.  A rotated c12 component at rounding level
    leaves the matching sign to that rounding.

    In the resulting frame the consistency relations c02_1 * c12_2 = 0 and
    c01_2 * c12_1 = 0 hold automatically (they are the Jacobi identity of
    the frame algebra); :func:`sr3d.classify.classify` reads them off the
    zero pattern of the constants.
    """
    a = frame.c01_1
    b = 0.5 * (frame.c01_2 + frame.c02_1)
    chi = math.hypot(a, b)
    if chi <= rel_tol() * frame.scale:
        raise ChiZeroError("chi = 0: no canonical rotation; classify by kappa")

    theta = (-0.5 * math.atan2(a, b)) % math.pi
    c, s = math.cos(theta), math.sin(theta)
    s1 = -1.0 if c * frame.c12_2 - s * frame.c12_1 < 0 else 1.0
    s2 = -1.0 if c * frame.c12_1 + s * frame.c12_2 < 0 else 1.0
    f1 = s1 * (c * frame.f1 + s * frame.f2)
    f2 = s2 * (c * frame.f2 - s * frame.f1)
    canon = frame_from_orthonormal(frame.algebra, f1, f2)

    q = bracket_form(canon)
    if abs(q[0, 0]) > rel_tol() * canon.scale or q[0, 1] <= 0:
        raise AssertionError("canonical rotation failed to produce the target form")
    return canon
