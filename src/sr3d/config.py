"""Global numerical tolerance handling.

Every "is this zero" decision of the classification is ``rel_tol()`` times
one scale of the object it is made on, and that scale has the degree of the
quantity tested, with no absolute floor: ``LieAlgebra3.scale`` (max|c|) for
the algebra, and for an adapted frame ``AdaptedFrame.scale``, of degree 2 as
chi and kappa are (c12 is tested against ``scale / unit``).  Scaling the
metric or the constants by any factor therefore gives the same label.  The
default is 1e-9 and can be overridden through the SR3D_TOL environment
variable, the only tolerance setting.
"""

import os

DEFAULT_REL_TOL = 1e-9


def rel_tol() -> float:
    """Relative tolerance used for rank / zero decisions.

    Reads SR3D_TOL from the environment on every call so tests and CLI runs
    can override it without re-importing.
    """
    raw = os.environ.get("SR3D_TOL")
    if raw is None:
        return DEFAULT_REL_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"SR3D_TOL must be a float, got {raw!r}") from exc
    if not value > 0.0:
        raise ValueError(f"SR3D_TOL must be positive, got {value}")
    return value
