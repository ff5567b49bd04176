"""Decision procedure for left-invariant sub-Riemannian structures in 3D.

Pipeline: adapted frame -> invariants (chi, kappa) -> dilation
normalization -> case analysis on the canonical-frame constants.  When
chi = 0 the normalized kappa in {-1, 0, 1} decides the local isometry class
outright, and for sl(2) the sign of the Killing form on the distribution
separates the elliptic and hyperbolic metrics.  When chi > 0 the pattern of
the canonical constants selects one of the seven classes below, the sl(2)
split included: in case (i) that form is diag(-2 c01_2, 2 c02_1), definite
in (i)(d) and indefinite in (i)(e).

The module also carries the catalog of standard structures (exact integer
structure constants) that the classification must reproduce, and exports
their normalized invariant pairs as plot data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import algebra as alg
from .algebra import LieAlgebra3, identify_algebra, killing_form
from .config import rel_tol
from .frames import AdaptedFrame, SRStructure, reeb_frame
from .invariants import canonical_frame, compute_chi, compute_kappa, normalize

SL2_ELLIPTIC = "sl_e(2)"
SL2_HYPERBOLIC = "sl_h(2)"


class UnclassifiableError(RuntimeError):
    """Canonical-frame constants violate the structural relations.

    This cannot happen for a genuine Lie algebra input; it signals a bug or
    a Jacobi-violating tensor smuggled past validation.
    """


@dataclass(frozen=True)
class ClassLabel:
    """Classification outcome.

    ``algebra`` is the isomorphism label (with the elliptic/hyperbolic split
    for sl(2)); (chi, kappa) are the normalized invariants; labels with equal
    ``isometry_class_id`` are locally isometric.  The chi = 0, kappa = -1
    class deliberately carries two algebra labels (sl_e(2) and a(R)+R) under
    the single id "chi0.kappa-1".
    """

    algebra: str
    chi: float
    kappa: float
    isometry_class_id: str
    case: str
    dilation: float
    raw_chi: float
    raw_kappa: float
    frame: Optional[AdaptedFrame] = None


def _fmt_id(x: float) -> str:
    # Class ids must be stable under re-presentation noise (~1e-10 through
    # random basis changes), so quantize to 6 significant digits and snap
    # numerical dust to an exact zero.
    if abs(x) <= 1e-9:
        x = 0.0
    s = format(x, ".6g")
    return "0" if s == "-0" else s


def _class_id(chi: float, kappa: float, algebra_label: str) -> str:
    if chi == 0.0:
        return f"chi0.kappa{_fmt_id(kappa)}"
    return f"chi{_fmt_id(chi)}.kappa{_fmt_id(kappa)}.{algebra_label}"


def _sl2_metric_split(structure: SRStructure) -> str:
    """Elliptic vs hyperbolic sl(2): sign-definiteness of Killing on the plane,
    on constants and generators divided by their largest entries, so that
    the determinant neither underflows nor overflows."""
    algebra = LieAlgebra3(structure.algebra.c / structure.algebra.scale)
    v = structure.span / np.max(np.abs(structure.span), axis=1, keepdims=True)
    det = float(np.linalg.det(v @ killing_form(algebra) @ v.T))
    return SL2_ELLIPTIC if det > 0 else SL2_HYPERBOLIC


def classify(structure: SRStructure) -> ClassLabel:
    """Classify a structure up to local isometry and dilation."""
    frame = reeb_frame(structure)
    raw_chi = compute_chi(frame)
    raw_kappa = compute_kappa(frame)

    if raw_chi <= rel_tol() * frame.scale:
        label, case = identify_algebra(structure.algebra), "chi=0"
        if label == alg.SL2:
            label = _sl2_metric_split(structure)
        # With chi snapped to 0 the normalized pair is exactly (0, 0) or (0, +-1).
        inv = normalize(0.0, raw_kappa, frame.scale)
    else:
        frame = canonical_frame(frame)
        inv = normalize(compute_chi(frame), compute_kappa(frame), frame.scale)
        label, case = _chi_positive_case(frame)

    return ClassLabel(
        algebra=label,
        chi=inv.chi,
        kappa=inv.kappa,
        isometry_class_id=_class_id(inv.chi, inv.kappa, label),
        case=case,
        dilation=inv.dilation,
        raw_chi=raw_chi,
        raw_kappa=raw_kappa,
        frame=frame,
    )


def _chi_positive_case(canon: AdaptedFrame) -> Tuple[str, str]:
    """(label, case) from the zero pattern of the canonical-frame constants."""
    ctol = rel_tol() * canon.scale
    c01_2, c02_1 = canon.c01_2, canon.c02_1
    z12_1 = abs(canon.c12_1) <= ctol / canon.unit
    z12_2 = abs(canon.c12_2) <= ctol / canon.unit
    z01_2 = abs(c01_2) <= ctol
    z02_1 = abs(c02_1) <= ctol

    if z12_1 and z12_2:
        if z02_1:
            return alg.SE2, "(i)(a)"
        if z01_2:
            return alg.SH2, "(i)(b)"
        if c01_2 > 0 > c02_1:
            return alg.SU2, "(i)(c)"
        if c01_2 < 0 < c02_1:
            return SL2_ELLIPTIC, "(i)(d)"
        if c01_2 > 0 and c02_1 > 0:
            return SL2_HYPERBOLIC, "(i)(e)"
        # chi > 0 forbids both c01_2 and c02_1 non-positive.
        raise UnclassifiableError("sign pattern impossible for chi > 0")
    if (not z12_2) and z02_1 and z12_1:
        return alg.SOLV_PLUS, "(ii)"
    if (not z12_1) and z01_2 and z12_2:
        return alg.SOLV_MINUS, "(iii)"
    raise UnclassifiableError("canonical constants violate the structural relations")


def solvable_ratio_check(frame: AdaptedFrame, label: str) -> float:
    """Residual of the solvable trace/determinant relation.

    For a canonical solv+ frame the adjoint action A of f1 on span{f0, f2}
    has trace -c12_2 and determinant c01_2, and 2 trace(A)^2 / det(A) must
    equal 1 - kappa/chi.  For solv- the action of f2 on span{f0, f1} obeys
    the mirrored relation with 1 + kappa/chi.  Returns the absolute gap.
    The f1 and f2 coordinates tested for zero have degrees 2 and 1, and
    det(A) degree 2, each against the frame's scale of that degree.
    """
    if label not in (alg.SOLV_PLUS, alg.SOLV_MINUS):
        raise ValueError(f"ratio check only applies to solvable labels, got {label}")
    basis = np.column_stack([frame.f1, frame.f2, frame.f0])
    chi = compute_chi(frame)
    kappa = compute_kappa(frame)
    tol = rel_tol() * frame.scale

    def coords(actor, target):
        return np.linalg.solve(basis, alg.bracket(frame.algebra, actor, target))

    if label == alg.SOLV_PLUS:
        w_f0 = coords(frame.f1, frame.f0)
        w_f2 = coords(frame.f1, frame.f2)
        if abs(w_f0[0]) > tol or abs(w_f2[0]) > tol / frame.unit:
            raise ValueError("frame is not canonical for solv+")
        a = np.array([[w_f0[2], w_f2[2]], [w_f0[1], w_f2[1]]])
        expected = 1.0 - kappa / chi
    else:
        w_f0 = coords(frame.f2, frame.f0)
        w_f1 = coords(frame.f2, frame.f1)
        if abs(w_f0[1]) > tol or abs(w_f1[1]) > tol / frame.unit:
            raise ValueError("frame is not canonical for solv-")
        a = np.array([[w_f0[2], w_f1[2]], [w_f0[0], w_f1[0]]])
        expected = 1.0 + kappa / chi

    det = float(np.linalg.det(a))
    if abs(det) <= tol:
        raise ValueError("adjoint action on the derived plane is degenerate")
    ratio = 2.0 * float(np.trace(a)) ** 2 / det
    return abs(ratio - expected)


@dataclass(frozen=True)
class CatalogEntry:
    """A named standard structure with its expected classification."""

    name: str
    structure: SRStructure
    algebra: str
    chi: float
    kappa: float
    isometry_class_id: str
    case: str
    model: Optional[str] = None


def _structure(brackets, span, gram=None) -> SRStructure:
    algebra = LieAlgebra3.from_brackets(brackets)
    g = np.eye(2) if gram is None else np.asarray(gram, float)
    return SRStructure(algebra, np.asarray(span, float), g)


_SQ2 = math.sqrt(0.5)
_SQ5 = math.sqrt(5.0)
_SQ10 = math.sqrt(10.0)


# Exact small-integer structure constants throughout; expected labels and
# normalized invariants are frozen here and double as the regression oracle
# for :func:`classify`.
_CATALOG: Tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "h3",
        _structure({(0, 1): (0, 0, 1)}, [(1, 0, 0), (0, 1, 0)]),
        alg.H3, 0.0, 0.0, "chi0.kappa0", "chi=0", model="heisenberg",
    ),
    CatalogEntry(
        "su2_killing",
        _structure(
            {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (2, 0): (0, 1, 0)},
            [(1, 0, 0), (0, 1, 0)],
        ),
        alg.SU2, 0.0, 1.0, "chi0.kappa1", "chi=0", model="su2",
    ),
    CatalogEntry(
        "sl2_elliptic_killing",
        _structure(
            {(0, 1): (0, 0, 1), (1, 2): (-1, 0, 0), (2, 0): (0, -1, 0)},
            [(1, 0, 0), (0, 1, 0)],
        ),
        SL2_ELLIPTIC, 0.0, -1.0, "chi0.kappa-1", "chi=0", model="sl2",
    ),
    CatalogEntry(
        "aplus",
        _structure({(0, 1): (1, 0, 0)}, [(0, 1, 0), (1, 0, 1)]),
        alg.A_PLUS_R, 0.0, -1.0, "chi0.kappa-1", "chi=0", model="a_plus_r",
    ),
    CatalogEntry(
        "se2",
        _structure(
            {(2, 0): (0, 1, 0), (2, 1): (-1, 0, 0)},
            [(1, 0, 0), (0, 0, 1)],
        ),
        alg.SE2, _SQ2, _SQ2, _class_id(_SQ2, _SQ2, alg.SE2), "(i)(a)",
    ),
    CatalogEntry(
        "sh2",
        _structure(
            {(2, 0): (0, 1, 0), (2, 1): (1, 0, 0)},
            [(1, 0, 0), (0, 0, 1)],
        ),
        alg.SH2, _SQ2, -_SQ2, _class_id(_SQ2, -_SQ2, alg.SH2), "(i)(b)",
    ),
    CatalogEntry(
        "su2_round",
        _structure(
            {(0, 2): (0, 2, 0), (1, 2): (-1, 0, 0), (0, 1): (0, 0, -1)},
            [(1, 0, 0), (0, 1, 0)],
        ),
        alg.SU2, 1 / _SQ10, 3 / _SQ10,
        _class_id(1 / _SQ10, 3 / _SQ10, alg.SU2), "(i)(c)",
    ),
    CatalogEntry(
        "sl2_elliptic_skew",
        _structure(
            {(0, 2): (0, -1, 0), (1, 2): (3, 0, 0), (0, 1): (0, 0, -1)},
            [(1, 0, 0), (0, 1, 0)],
        ),
        SL2_ELLIPTIC, 1 / _SQ5, -2 / _SQ5,
        _class_id(1 / _SQ5, -2 / _SQ5, SL2_ELLIPTIC), "(i)(d)",
    ),
    CatalogEntry(
        "sl2_hyperbolic",
        _structure(
            {(0, 2): (0, 3, 0), (1, 2): (1, 0, 0), (0, 1): (0, 0, -1)},
            [(1, 0, 0), (0, 1, 0)],
        ),
        SL2_HYPERBOLIC, 2 / _SQ5, 1 / _SQ5,
        _class_id(2 / _SQ5, 1 / _SQ5, SL2_HYPERBOLIC), "(i)(e)",
    ),
    CatalogEntry(
        "sl2_hyperbolic_balanced",
        _structure(
            {(0, 2): (0, 1, 0), (1, 2): (1, 0, 0), (0, 1): (0, 0, -1)},
            [(1, 0, 0), (0, 1, 0)],
        ),
        SL2_HYPERBOLIC, 1.0, 0.0,
        _class_id(1.0, 0.0, SL2_HYPERBOLIC), "(i)(e)",
    ),
    CatalogEntry(
        "solv_plus",
        _structure(
            {(0, 1): (0, -1, -1), (0, 2): (0, 2, 0)},
            [(1, 0, 0), (0, 1, 0)],
        ),
        alg.SOLV_PLUS, 1.0, 0.0,
        _class_id(1.0, 0.0, alg.SOLV_PLUS), "(ii)",
    ),
    CatalogEntry(
        "solv_minus",
        _structure(
            {(0, 1): (-1, 0, -1), (1, 2): (2, 0, 0)},
            [(1, 0, 0), (0, 1, 0)],
        ),
        alg.SOLV_MINUS, 1 / _SQ5, -2 / _SQ5,
        _class_id(1 / _SQ5, -2 / _SQ5, alg.SOLV_MINUS), "(iii)",
    ),
)


def catalog() -> Tuple[CatalogEntry, ...]:
    """The built-in regression catalog of standard structures (one shared tuple)."""
    return _CATALOG


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


def figure1_data() -> List[Tuple[str, float, float]]:
    """Normalized (name, kappa, chi) rows for every catalog entry."""
    return [(entry.name, entry.kappa, entry.chi) for entry in catalog()]
