"""Normal geodesics of left-invariant structures on matrix-group models.

The Hamiltonian system splits into a vertical covector subsystem driven by
the frame constants, hk' = sum_i hi <lambda, [fi, fk]> (i = 1, 2) with
hk = <lambda, fk>,

    h1' =  (c12_1 h1 + c12_2 h2 + h0) h2
    h2' = -(c12_1 h1 + c12_2 h2 + h0) h1
    h0' =  (c01_1 h1 + c01_2 h2) h1 + (c02_1 h1 + c02_2 h2) h2

and a horizontal subsystem g' = g (h1 A1 + h2 A2) on a matrix (or unit
quaternion) realization of the group.  Both are integrated jointly with
fixed-step classical Runge-Kutta; no adaptive stepping, so the order-4
convergence is directly testable.

The coupled RK4 step is taken in three stages.  Each stage slope of
g' = g M(h) is g times a matrix, linear in g, so the step from (g, h) ends
at g P, where the propagator P is the same step from (identity, h): the
split is the same RK4 map, to rounding.  A flight (:func:`integrate_geodesic`)
therefore (1) steps the autonomous covector subsystem alone on three Python
floats, (2) builds every step's propagator in one call on numpy arrays
(:func:`_array_rhs`), in blocks of ``_BLOCK`` steps, and (3) composes
g_{n+1} = g_n P_n in step order, unit quaternions by the Hamilton product on
Python floats, renormalized after every step.  Every three-float flow (this
covector, the affine chart of :func:`sr3d.isometry.integrate_chart`) runs
the one loop :func:`_rk4_floats`, its stages written out on three locals;
arrays take the one step :func:`_rk4_step`, with the same float operations
in the same order.  :func:`vertical_rhs` alone holds the covector
equations, on floats or arrays.  :func:`integrate_controls` flies no RK4: a
constant control's flow is exactly g exp(t M), one closed form per segment.

Shooting (:func:`shoot_distance`) flies no RK4.  The four models are the
chi = 0 classes, whose normal geodesics have closed forms, written out entry
by entry in the exact endpoint map :func:`_geodesic_ends` on arrays; its
best grid starts are refined by Levenberg-Marquardt (:func:`minimize`).

Four models are provided: the 3x3 unipotent realization of the Heisenberg
group, the 3x3 affine realization of A+(R) x R, SL(2) as 2x2 matrices, and
SU(2) as unit quaternions (kept in real arithmetic on purpose).  The runtime
needs numpy only.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from typing import IO, List, NamedTuple, Sequence, Tuple

import numpy as np

from .classify import catalog_entry
from .frames import AdaptedFrame, frame_from_orthonormal, reeb_frame

MODEL_IDS = ("heisenberg", "a_plus_r", "sl2", "su2")


class IntegrationBlowUpError(RuntimeError):
    """A flow reached a non-finite state.  The message reads ``when`` and
    ``step``: "at step" n (the first non-finite step), "by step" n (the last
    step of a flow or segment checked once it ends), or "in segment" k (the
    first non-finite product of :func:`integrate_controls`, k from 1)."""

    def __init__(self, step: int, when: str = "at step"):
        super().__init__(f"state became non-finite {when} {step}")
        self.step = step


def _hamilton(w1, x1, y1, z1, w2, x2, y2, z2):
    """Hamilton product (w1, x1, y1, z1)(w2, x2, y2, z2), on floats or arrays."""
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _over(num, x):
    """num / x, read as 1 where x = 0 by adding 1 to both: num is sin, sinh or expm1 of x."""
    zero = x == 0
    return (num + zero) / (x + zero)


def _cosh_sinhc(q):
    """(cosh s, sinh s / s) for s^2 = q, or (cos s, sin s / s) for s^2 = -q < 0:
    each branch is evaluated at 0 off its side, where its factors are 1."""
    s = np.sqrt(np.abs(q))
    hyperbolic = s * (q > 0)
    elliptic = s - hyperbolic
    return (np.cosh(hyperbolic) * np.cos(elliptic),
            _over(np.sinh(hyperbolic), hyperbolic) * _over(np.sin(elliptic), elliptic))


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions stored as (w, x, y, z) on the last axis."""
    return np.array(_hamilton(*np.asarray(p).T, *np.asarray(q).T)).T


@dataclass(frozen=True)
class GroupModel:
    """A matrix (or quaternion) realization of one catalog group.

    ``a1, a2, a0`` realize the adapted frame (f1, f2, f0); their commutators
    reproduce the frame constants to rounding, which is asserted at build
    time.  ``kind`` is "matrix" or "quaternion".
    """

    id: str
    kind: str
    frame: AdaptedFrame
    a1: np.ndarray
    a2: np.ndarray
    a0: np.ndarray
    identity: np.ndarray

    def __post_init__(self):
        # Read-only copies: a frozen model's generators do not change.
        for name in ("a1", "a2", "a0", "identity"):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    def mul(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        if self.kind == "quaternion":
            return quat_mul(g, h)
        return g @ h

    def commutator(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.mul(a, b) - self.mul(b, a)

    def exp(self, u1, u2, u0) -> np.ndarray:
        """exp(u1 A1 + u2 A2 + u0 A0) in closed form.

        The coefficients broadcast to a shape S; the result has shape
        S + ``identity.shape``.  Non-finite values are carried, not checked,
        and raise no warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            m = sum(np.multiply.outer(u, a)
                    for u, a in ((u1, self.a1), (u2, self.a2), (u0, self.a0)))
            if self.id == "heisenberg":  # M is nilpotent: M^3 = 0
                return self.identity + m + 0.5 * (m @ m)
            if self.id == "a_plus_r":  # M = [[a, 0, b], [0, 0, c], [0, 0, 0]]
                a = m[..., 0, 0]
                g = self.identity + m
                g[..., 0, 0] = np.exp(a)
                g[..., 0, 2] *= _over(np.expm1(a), a)
                return g
            if self.kind == "quaternion":  # M = (0, v): exp = (cos |v|, sin |v| v / |v|)
                r = np.sqrt(np.sum(m * m, axis=-1))
                g = _over(np.sin(r), r)[..., None] * m
                g[..., 0] = np.cos(r)
                return g
            # sl2: M^2 = q I with q = -det M.
            c, d = _cosh_sinhc(m[..., 0, 0] * m[..., 0, 0] + m[..., 0, 1] * m[..., 1, 0])
            return c[..., None, None] * self.identity + d[..., None, None] * m

    def group_defect(self, g: np.ndarray) -> float:
        """Largest distance from the model's group manifold over ``g`` or a
        stack of elements (structural, not projected)."""
        g = np.asarray(g)
        if self.id == "sl2":
            return float(np.max(np.abs(np.linalg.det(g) - 1.0)))
        if self.id == "su2":
            return float(np.max(np.abs(np.linalg.norm(g, axis=-1) - 1.0)))
        if self.id == "heisenberg":
            rows, cols, want = (0, 1, 2, 1, 2, 2), (0, 1, 2, 0, 0, 1), (1, 1, 1, 0, 0, 0)
        else:
            # a_plus_r: [[a, 0, b], [0, 1, c], [0, 0, 1]] with a > 0.
            rows, cols, want = (0, 1, 1, 2, 2, 2), (1, 0, 1, 0, 1, 2), (0, 0, 1, 0, 0, 1)
        return float(np.max(np.abs(g[..., rows, cols] - want)))


@dataclass(frozen=True)
class GeodesicState:
    g: np.ndarray
    h1: float
    h2: float
    h0: float


# --- basis realizations -----------------------------------------------------

def _heisenberg_basis() -> List[np.ndarray]:
    e1 = np.zeros((3, 3)); e1[0, 1] = 1.0
    e2 = np.zeros((3, 3)); e2[1, 2] = 1.0
    e3 = np.zeros((3, 3)); e3[0, 2] = 1.0
    return [e1, e2, e3]


def _a_plus_r_basis() -> List[np.ndarray]:
    e1 = np.zeros((3, 3)); e1[0, 2] = 1.0
    e2 = np.zeros((3, 3)); e2[0, 0] = -1.0
    e3 = np.zeros((3, 3)); e3[1, 2] = 1.0
    return [e1, e2, e3]


def sl2_basis() -> List[np.ndarray]:
    g1 = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])
    g2 = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    g3 = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return [g1, g2, g3]


def _su2_basis() -> List[np.ndarray]:
    return [
        0.5 * np.array([0.0, 1.0, 0.0, 0.0]),
        0.5 * np.array([0.0, 0.0, 1.0, 0.0]),
        0.5 * np.array([0.0, 0.0, 0.0, 1.0]),
    ]


def build_model(model_id: str) -> GroupModel:
    """Build a model whose generators realize the catalog entry's frame."""
    if model_id == "heisenberg":
        frame = reeb_frame(catalog_entry("h3").structure)
        basis, kind, identity = _heisenberg_basis(), "matrix", np.eye(3)
    elif model_id == "a_plus_r":
        frame = reeb_frame(catalog_entry("aplus").structure)
        basis, kind, identity = _a_plus_r_basis(), "matrix", np.eye(3)
    elif model_id == "sl2":
        entry = catalog_entry("sl2_elliptic_killing")
        # Fix the frame order to the 2x2 realization used by the isometry
        # maps: (g1, g2) with Reeb vector -g3.
        frame = frame_from_orthonormal(
            entry.structure.algebra, np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        )
        basis, kind, identity = sl2_basis(), "matrix", np.eye(2)
    elif model_id == "su2":
        frame = reeb_frame(catalog_entry("su2_killing").structure)
        basis, kind, identity = _su2_basis(), "quaternion", np.array([1.0, 0, 0, 0])
    else:
        raise KeyError(f"unknown model {model_id!r}; choose from {MODEL_IDS}")

    def realize(vec):
        return sum(float(vec[j]) * basis[j] for j in range(3))

    model = GroupModel(
        model_id, kind, frame, realize(frame.f1), realize(frame.f2), realize(frame.f0),
        identity,
    )
    _assert_model_matches_frame(model)
    return model


def _assert_model_matches_frame(model: GroupModel) -> None:
    f = model.frame
    pairs = [
        (model.commutator(model.a1, model.a0), f.c01_1, f.c01_2, 0.0),
        (model.commutator(model.a2, model.a0), f.c02_1, f.c02_2, 0.0),
        (model.commutator(model.a2, model.a1), f.c12_1, f.c12_2, 1.0),
    ]
    for got, k1, k2, k0 in pairs:
        want = k1 * model.a1 + k2 * model.a2 + k0 * model.a0
        if float(np.max(np.abs(got - want))) > 1e-12:
            raise AssertionError(
                f"model {model.id}: generator commutators do not realize the frame"
            )


# --- vertical subsystem -----------------------------------------------------

def vertical_rhs(
    frame: AdaptedFrame, h1: float, h2: float, h0: float
) -> Tuple[float, float, float]:
    """Covector equations of the normal geodesic flow for this frame."""
    w = frame.c12_1 * h1 + frame.c12_2 * h2 + h0
    dh1 = w * h2
    dh2 = -w * h1
    dh0 = (frame.c01_1 * h1 + frame.c01_2 * h2) * h1 + (
        frame.c02_1 * h1 + frame.c02_2 * h2
    ) * h2
    return dh1, dh2, dh0


# --- coupled integration ----------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    model_id: str
    times: np.ndarray
    covectors: np.ndarray  # shape (n+1, 3): columns h1, h2, h0
    elements: np.ndarray   # shape (n+1, ...) group elements
    max_group_defect: float

    @property
    def endpoint(self) -> np.ndarray:
        return self.elements[-1]

    @property
    def final_covector(self) -> Tuple[float, float, float]:
        h = self.covectors[-1]
        return float(h[0]), float(h[1]), float(h[2])

    def hamiltonian(self) -> np.ndarray:
        return 0.5 * (self.covectors[:, 0] ** 2 + self.covectors[:, 1] ** 2)

    def hamiltonian_drift(self) -> float:
        h = self.hamiltonian()
        return float(np.max(np.abs(h - h[0])))


def _rk4_step(rhs, state, dt):
    """One classical RK4 step of x' = rhs(x).

    ``state`` is a flat list of numpy arrays with one leading batch axis;
    ``rhs`` maps such a list to one of the same layout.  Returns the new
    state without projecting or checking it; three-float flows run
    :func:`_rk4_floats` instead.
    """
    half = 0.5 * dt
    k1 = rhs(state)
    k2 = rhs([x + half * k for x, k in zip(state, k1)])
    k3 = rhs([x + half * k for x, k in zip(state, k2)])
    k4 = rhs([x + dt * k for x, k in zip(state, k3)])
    sixth = dt / 6.0
    return [x + sixth * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(state, k1, k2, k3, k4)]


def _rk4_floats(rhs, param, a, b, c, dt, steps):
    """``steps`` RK4 steps of (a, b, c)' = rhs(param, a, b, c), every step's
    state returned flat in one ``array("d")``.  :func:`_rk4_step`'s float
    operations in its order, on three locals: no list is built per step, and
    non-finite values are carried, not checked."""
    half, sixth = 0.5 * dt, dt / 6.0
    flat = array("d")
    for _ in range(steps):
        k1a, k1b, k1c = rhs(param, a, b, c)
        k2a, k2b, k2c = rhs(param, a + half * k1a, b + half * k1b, c + half * k1c)
        k3a, k3b, k3c = rhs(param, a + half * k2a, b + half * k2b, c + half * k2c)
        k4a, k4b, k4c = rhs(param, a + dt * k3a, b + dt * k3b, c + dt * k3c)
        a = a + sixth * (k1a + 2 * k2a + 2 * k3a + k4a)
        b = b + sixth * (k1b + 2 * k2b + 2 * k3b + k4b)
        c = c + sixth * (k1c + 2 * k2c + 2 * k3c + k4c)
        flat.extend((a, b, c))
    return flat


def _array_rhs(model, frame):
    """Coupled right-hand side on [g stack, h1, h2, h0], one path per row."""

    def rhs(x):
        gs, h1, h2, h0 = x
        m = np.multiply.outer(h1, model.a1) + np.multiply.outer(h2, model.a2)
        return [model.mul(gs, m), *vertical_rhs(frame, h1, h2, h0)]

    return rhs


# Steps per propagator batch: bounds the batch's temporaries, and how far a
# flight runs on past a non-finite step before it is checked.
_BLOCK = 2048


def _split_flight(model, frame, hs, gs, dt):
    """Fill rows 1..n of covectors ``hs`` (n+1, 3) and elements ``gs``
    (n+1, ...) by n RK4 steps of the coupled system from their row 0.

    The three stages of the module docstring; quaternions are renormalized
    after every step.  Returns the largest pre-projection defect of those
    steps (0.0 for matrices).  Non-finite values are carried, not checked.
    """
    steps = len(hs) - 1
    flat = _rk4_floats(vertical_rhs, frame, *hs[0].tolist(), dt, steps)
    hs[1:] = np.frombuffer(flat).reshape(steps, 3)
    eye = np.broadcast_to(model.identity, (steps,) + model.identity.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        props = _rk4_step(_array_rhs(model, frame), [eye, *hs[:-1].T], dt)[0]
        if model.kind != "quaternion":
            for g, p, out in zip(gs[:-1], props, gs[1:]):
                np.dot(g, p, out=out)
            return 0.0
    # One quaternion a step on Python floats: numpy's per-call dispatch
    # would cost more than the product.
    (w, x, y, z), defect = gs[0].tolist(), 0.0
    flat = array("d")
    for pw, px, py, pz in props.tolist():
        w, x, y, z = _hamilton(w, x, y, z, pw, px, py, pz)
        norm = math.hypot(w, x, y, z)
        w, x, y, z = w / norm, x / norm, y / norm, z / norm
        flat.extend((w, x, y, z))
        defect = max(defect, abs(norm - 1.0))
    gs[1:] = np.frombuffer(flat).reshape(steps, 4)
    return defect


def integrate_geodesic(
    model: GroupModel,
    frame: AdaptedFrame,
    initial: GeodesicState,
    t_final: float,
    steps: int,
) -> Trajectory:
    """Fixed-step RK4 on the coupled horizontal + vertical system.

    Flown in blocks of ``_BLOCK`` steps by :func:`_split_flight`: the same
    RK4 map as stepping the coupled state, since each stage slope is linear
    in g.  Each block is checked once it is flown, and the first non-finite
    step raises :class:`IntegrationBlowUpError`.  Quaternion states are
    renormalized after every step; the pre-projection defect is what
    :attr:`Trajectory.max_group_defect` reports.  Matrix states are never
    projected; their defect is taken block by block, so it allocates no
    temporary the size of the trajectory.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = float(t_final) / steps
    g0 = np.array(initial.g, dtype=float)
    covectors = np.empty((steps + 1, 3))
    elements = np.empty((steps + 1,) + g0.shape)
    covectors[0] = initial.h1, initial.h2, initial.h0
    elements[0] = g0
    max_defect = model.group_defect(g0)
    for n0 in range(0, steps, _BLOCK):
        hs, gs = covectors[n0 : n0 + _BLOCK + 1], elements[n0 : n0 + _BLOCK + 1]
        defect = _split_flight(model, frame, hs, gs, dt)
        finite = np.isfinite(hs[1:]).all(axis=1)
        finite &= np.isfinite(gs[1:].reshape(len(finite), -1)).all(axis=1)
        if not finite.all():
            raise IntegrationBlowUpError(n0 + 1 + int(np.argmin(finite)))
        if model.kind != "quaternion":
            defect = model.group_defect(gs[1:])
        max_defect = max(max_defect, defect)
    times = np.linspace(0.0, t_final, steps + 1)
    return Trajectory(model.id, times, covectors, elements, max_defect)


def integrate_controls(
    model: GroupModel,
    controls: Sequence[Tuple[float, float, float]],
    t_final: float,
) -> np.ndarray:
    """Endpoint of g' = g (u1 A1 + u2 A2 + u0 A0) for piecewise-constant u.

    Each triple acts for an equal share t of ``t_final`` and moves g exactly
    to g exp(t M): the product, in segment order, of one broadcast
    :meth:`GroupModel.exp`.  A bad schedule raises ValueError; a non-finite
    partial product, :class:`IntegrationBlowUpError` "in segment" k (from 1).
    """
    if len(controls) == 0:  # an array schedule has no truth value
        raise ValueError("control schedule must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        u = (t_final / len(controls)) * np.array(controls, dtype=float)
        if u.shape != (len(controls), 3):
            raise ValueError(f"each control must be a triple (u1, u2, u0); got shape {u.shape}")
        g = model.identity
        for segment, factor in enumerate(model.exp(*u.T), start=1):
            g = model.mul(g, factor)
            if not np.all(np.isfinite(g)):
                raise IntegrationBlowUpError(segment, "in segment")
    return g


# --- shooting ---------------------------------------------------------------

@dataclass(frozen=True)
class ShootingResult:
    """Heuristic distance estimate; never a claim of optimality."""

    distance: float
    covector: Tuple[float, float, float]
    endpoint_error: float
    converged: bool


HIT_TOLERANCE = 1e-6
# The shooting grid's flight times, i.e. candidate lengths, span [0.15, 2];
# its h0 values span [-3, 3].
_GRID_T_MAX = 2.0
_GRID_H0_MAX = 3.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)  # minimize's difference step over max(1, |x_i|)


def _shoot_steps(t: float) -> int:
    # Validates a shooting time t and numbers blow-ups: a non-finite endpoint
    # is reported "by" this step, 80 per unit time.  Shooting flies no RK4.
    steps = 80.0 * float(t)
    if not math.isfinite(steps):
        raise ValueError(f"flight time must be finite and 80 t must not overflow; got {t!r}")
    return max(40, int(math.ceil(steps)))


def _geodesic_ends(model, alphas, h0s, t):
    """Exact endpoints at time t of the normal geodesics from the identity
    with covectors (cos alpha, sin alpha, h0); the arguments broadcast to a
    shape S and the result has shape S + ``identity.shape``.  Non-finite
    values are carried, not checked, and raise no warning.

    The chi = 0 classes' closed forms (Boscain and Rossi, SIAM J. Control
    Optim. 47, 2008), written out entry by entry with no matrix product:

    * ``sl2`` and ``su2`` (kappa = -1, +1): exp(t (h1 A1 + h2 A2 + kappa h0
      A0)) = c + d M (:func:`_cosh_sinhc`; cos r, sin r / r for r = |M| on
      su2), turned by exp(-kappa t h0 A0), a rotation by half of t h0;
    * ``heisenberg``: I + W + W^2 / 2, the Magnus series ending at second
      order: W = I1 A1 + I2 A2 + t^2 xi(x) / 2 A0 with x = h0 t, I1 = t (h1
      sinc x + h2 c(x)), I2 = t (h2 sinc x - h1 c(x)), c(x) = (1 - cos x) / x
      = sin(x/2) sinc(x/2) and xi(x) = (x - sin x) / x^2;
    * ``a_plus_r``: Psi carries its geodesics onto sl2's with the same
      covector, so the endpoint is Psi^-1 of the ``sl2`` one.  The turn, a
      rotation on the right, keeps |row 1|^2 = 1 / (rho cos theta) and
      row 1 . row 2 = tan theta, and adds -t h0 / 2 to phi, the arg of row 1
      (0 at t = 0).  Unturned, row 1 is w = c + a h1 + i a (h2 + h0).  If
      q < 0, w = cos s + beta sin s (s = sqrt(-q); Im beta has the sign sigma
      of t (h2 + h0), as |h2| <= 1 < |h0|) is (-1)^m at s = m pi and Im w has
      one sign between, so arg w = m pi sigma + atan2((-1)^m Im w, (-1)^m Re
      w), m = rint(s / pi); if q >= 0, Im w keeps one sign and m = 0.
    """
    with np.errstate(all="ignore"):
        # [()] reads 0-d arrays as numpy scalars, whose arithmetic is cheap.
        t, h0 = np.asarray(t, dtype=float)[()], np.asarray(h0s, dtype=float)[()]
        h1, h2 = np.cos(alphas), np.sin(alphas)
        if model.id == "heisenberg":
            x = h0 * t
            sinc, half = _over(np.sin(x), x), 0.5 * x
            c = np.sin(half) * _over(np.sin(half), half)
            # xi(x) from its series below |x| = 0.1, where x - sin x would
            # cancel; the first omitted term is under 3e-17.
            x2 = x * x
            xi = np.where(np.abs(x) < 0.1,
                          x * (1 / 6 - x2 * (1 / 120 - x2 * (1 / 5040 - x2 / 362880))),
                          (x - np.sin(x)) / x2)
            i1, i2 = t * (h1 * sinc + h2 * c), t * (h2 * sinc - h1 * c)
            ends = np.zeros(np.shape(i1) + (3, 3)) + model.identity
            ends[..., 0, 1], ends[..., 1, 2], ends[..., 0, 2] = i2, i1, 0.5 * (t * t * xi + i1 * i2)
            return ends
        turn = t * h0
        if model.id != "su2":  # sl2 before the turn: c I + a [[h1, h2 + h0], [h2 - h0, -h1]]
            q = 0.25 * (t - turn) * (t + turn)
            c, d = _cosh_sinhc(q)
            a = 0.5 * t * d
            re, im = c + a * h1, a * (h2 + h0)  # row 1, w
        if model.id == "a_plus_r":  # (rho cos theta, rho sin theta, 2 phi)
            m = np.rint(np.sqrt(np.maximum(-q, 0.0)) / math.pi)
            flip = 1.0 - 2.0 * (m % 2.0)  # (-1)^m
            sigma = np.sign(t * (h2 + h0))
            phi = m * math.pi * sigma + np.arctan2(flip * im, flip * re) - 0.5 * turn
            # a and c over |w| before squaring: |w|^2 overflows on long
            # hyperbolic flights, while entry (0, 2) tends to a finite limit.
            size = np.hypot(re, im)
            a, c = a / size, c / size
            ends = np.zeros(np.shape(phi) + (3, 3))
            ends[..., 0, 0], ends[..., 0, 2] = 1.0 / size / size, 2.0 * a * (c * h2 - a * h1 * h0)
            ends[..., 1, 1], ends[..., 1, 2], ends[..., 2, 2] = 1.0, 2.0 * phi, 1.0
            return ends
        cos_half, sin_half = np.cos(0.5 * turn), np.sin(0.5 * turn)

        def turned(u, v):  # (u, v) [[cos, -sin], [sin, cos]], for half the turn
            return u * cos_half + v * sin_half, v * cos_half - u * sin_half
        if model.id == "su2":  # (cos r, b h2, b h1, b h0) (cos, 0, 0, -sin): (w, z), (y, x) turn
            r = 0.5 * np.hypot(t, turn)
            cos_r, b = np.cos(r), 0.5 * t * _over(np.sin(r), r)
            ends = np.empty(np.shape(b * h1) + (4,))
            ends[..., 0], ends[..., 3] = turned(cos_r, b * h0)
            ends[..., 2], ends[..., 1] = turned(b * h1, b * h2)
            return ends
        # sl2: the rows above, turned
        g = np.empty(np.shape(a * h1) + (2, 2))
        g[..., 0, 0], g[..., 0, 1] = turned(re, im)
        g[..., 1, 0], g[..., 1, 1] = turned(a * (h2 - h0), c - a * h1)
        return g


def _shoot_endpoint(model, alpha, h0, t):
    """Endpoint only, for use inside optimizers: the exact map
    :func:`_geodesic_ends` at one covector (cos alpha, sin alpha, h0).

    A non-finite endpoint raises :class:`IntegrationBlowUpError` "by"
    ``_shoot_steps(t)``; a time t for which 80 t is not finite raises
    ValueError.
    """
    steps = _shoot_steps(t)
    end = _geodesic_ends(model, alpha, h0, float(t))
    if not np.all(np.isfinite(end)):
        raise IntegrationBlowUpError(steps, "by step")
    return end


def _batched_endpoints(model, alphas, h0s, t, scale=1.0):
    """Endpoints at a common time t for a batch of covectors
    scale * (cos alpha, sin alpha, h0), ``scale`` a scalar or one per path.

    H is quadratic in the covector, so each path is the unit covector's
    exact map (:func:`_geodesic_ends`) at time scale * t.  The endpoints are
    checked as in :func:`_shoot_endpoint`.
    """
    steps = _shoot_steps(t)
    ends = _geodesic_ends(model, alphas, h0s, np.multiply(scale, t))
    if not np.all(np.isfinite(ends)):
        raise IntegrationBlowUpError(steps, "by step")
    return ends


class MinimizeResult(NamedTuple):
    """What :func:`minimize` returns."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool
    message: str


def _det3(a, b, c):  # the determinant of the 3x3 matrix with columns a, b, c
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a, b, c
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


def _damped_step(a, grad, lam, cap):
    """dx solving (a + lam diag a) dx = -grad (``a`` 3x3 nested lists) by
    Cramer's rule on floats; None if the determinant is 0 or not finite or
    some |dx_i| > cap_i, NaN included.  Its error can grow faster than
    cond * eps; in :func:`minimize` a poor step only fails the cost test."""
    (d0, m01, m02), (m10, d1, m12), (m20, m21, d2) = a
    c0, c1, c2 = (d0 + lam * d0, m10, m20), (m01, d1 + lam * d1, m21), (m02, m12, d2 + lam * d2)
    det, rhs = _det3(c0, c1, c2), (-grad[0], -grad[1], -grad[2])
    if det == 0.0 or not math.isfinite(det):
        return None
    dx = _det3(rhs, c1, c2) / det, _det3(c0, rhs, c2) / det, _det3(c0, c1, rhs) / det
    return dx if abs(dx[0]) <= cap[0] and abs(dx[1]) <= cap[1] and abs(dx[2]) <= cap[2] else None


def minimize(fun, x0, maxiter=200) -> MinimizeResult:
    """Levenberg-Marquardt: damped Gauss-Newton on a residual, its 3-vector
    algebra on Python floats.

    ``fun`` broadcasts over a leading axis: x = (alpha, h0, t) gives r of
    shape (m,), X of shape (k, 3) rows of shape (k, m).  Each iteration takes
    a forward-difference Jacobian J from one call on 3 shifted points, forms
    A = J^T J and J^T r by one numpy product each, and tries steps dx solving
    (A + lam diag A) dx = -J^T r (:func:`_damped_step`).  A step is rejected,
    and lam raised tenfold, when that system is singular (its determinant 0
    or not finite), when dx leaves the cap |dalpha|, |dh0| <= 1, |dt| <= t/2
    (so t stays > 0 if it starts so), or when it does not reduce |r|; an
    accepted step lowers lam tenfold.  Stops when |r| <= 1e-14, when
    no damped step reduces |r| (lam above 1e8), after 5 accepted steps in a
    row each cutting |r|^2 by under 1%, or after ``maxiter`` iterations;
    fails at once when |r|^2 or J is NaN or inf.  ``fun`` of the result is
    |r| at ``x``; ``nfev`` counts the points evaluated.
    """
    x = tuple(np.asarray(x0, dtype=float).tolist())
    r = np.asarray(fun(np.array(x)), dtype=float)
    cost = float(np.vdot(r, r))  # an overflowing |r|^2 is inf, and vdot does not warn
    nfev, nit, lam, slow = 1, 0, 1e-3, 0

    def result(success, message):
        return MinimizeResult(np.array(x), math.sqrt(cost), nit, nfev, success, message)
    while True:
        if not math.isfinite(cost):
            return result(False, "|r|^2 is NaN or inf")
        if math.sqrt(cost) <= 1e-14:
            return result(True, "residual norm at most 1e-14")
        if slow == 5:
            return result(False, "5 accepted steps in a row each cut |r|^2 by under 1%")
        if nit == maxiter:
            return result(False, "maximum number of iterations reached")
        nit += 1
        shifted = [v + _SQRT_EPS * max(1.0, abs(v)) for v in x]
        points = np.array([x] * 3)
        points.flat[::4] = shifted  # point i moves coordinate i alone
        rows = (np.asarray(fun(points), dtype=float) - r) / np.subtract(shifted, x)[:, None]
        nfev += 3
        if not np.isfinite(rows).all():
            return result(False, "the Jacobian is NaN or inf")
        a, grad, cap = (rows @ rows.T).tolist(), (rows @ r).tolist(), (1.0, 1.0, 0.5 * x[2])
        while lam <= 1e8:
            step = _damped_step(a, grad, lam, cap)
            if step is not None:
                trial = tuple(v + dv for v, dv in zip(x, step))
                r_trial = np.asarray(fun(np.array(trial)), dtype=float)
                nfev += 1
                cost_trial = float(np.vdot(r_trial, r_trial))
                if cost_trial < cost:
                    slow = slow + 1 if cost_trial > 0.99 * cost else 0
                    x, r, cost = trial, r_trial, cost_trial
                    lam = max(lam / 10.0, 1e-12)
                    break
            lam *= 10.0
        else:
            return result(True, "no damped step reduces the residual")


def shoot_distance(
    model: GroupModel,
    target: np.ndarray,
    budget: int = 200,
) -> ShootingResult:
    """Estimate the path-length distance from the identity to ``target``.

    Initial covectors are arc-length normalized (h1^2 + h2^2 = 1, free h0)
    so the time of flight is the candidate length.  A coarse deterministic
    grid over (direction angle, h0, t) is evaluated as one unit-time batch
    by the scaling law: each t is a covector scale, since the flow from
    t (cos alpha, sin alpha, h0) over time 1 ends where the unit covector's
    flow ends over time t.  Its three best points are refined by
    Levenberg-Marquardt on the endpoint residual (:func:`minimize`, at most
    ``budget`` iterations of one batch of 3 Jacobian endpoints plus one
    endpoint per trial step), each evaluated at its own t.  Returns the
    shortest refined hit whose endpoint error is below 1e-6, else the best
    found with its error.  Candidates are reduced in grid-index order, so
    the result is schedule-independent.
    A budget below 1, or a target of the wrong shape, with a non-finite
    entry, whose squared norm overflows (so would the residual's), or that
    no endpoint can reach raises ValueError before the grid: on ``a_plus_r``
    entry (0, 0) <= 0, or a group defect above h (1 + |target|)^2, h =
    ``HIT_TOLERANCE`` (within h of the target |det - 1| moves by under
    (|target| + h) h, other defects by h, and det rounds by ~1e-16
    |target|^2).  A non-finite endpoint met during the
    search raises :class:`IntegrationBlowUpError`.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    target = np.asarray(target, dtype=float)
    if target.shape != model.identity.shape:
        raise ValueError(f"target shape {target.shape} does not match the model's {model.identity.shape}")
    if not np.all(np.isfinite(target)):
        raise ValueError("target entries must be finite")
    with np.errstate(all="ignore"):
        size, defect = np.linalg.norm(target), model.group_defect(target)
    if not math.isfinite(size):
        raise ValueError("target squared norm overflows a float, as the residual's would")
    if defect / (1.0 + size) > HIT_TOLERANCE * (1.0 + size):  # so no product overflows
        raise ValueError(f"target is off the {model.id} group: defect {defect:.3g}")
    if model.id == "a_plus_r" and not target[0, 0] > 0:
        raise ValueError("a_plus_r target entry (0, 0) must be positive")
    if float(np.max(np.abs(target - model.identity))) <= 1e-12:
        return ShootingResult(0.0, (0.0, 0.0, 0.0), 0.0, True)

    def residual(params):  # one point (alpha, h0, t), or a batch of them as rows
        if params.ndim == 1:
            return (_shoot_endpoint(model, *params) - target).ravel()
        alpha, h0, t = params.T
        return (_batched_endpoints(model, alpha, h0, 1.0, scale=t) - target).reshape(len(t), -1)

    alphas = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    h0s = np.linspace(-_GRID_H0_MAX, _GRID_H0_MAX, 9)
    ts = np.linspace(0.15, _GRID_T_MAX, 10)
    # Path p flies the covector ts[k] * (cos alpha, sin alpha, h0) over unit
    # time, with k, idx = divmod(p, 108): idx is its (alpha, h0) index.
    grid_t, grid_a, grid_h = (x.ravel() for x in np.meshgrid(ts, alphas, h0s, indexing="ij"))
    ends = _batched_endpoints(model, grid_a, grid_h, 1.0, scale=grid_t)
    errs = np.linalg.norm(ends.reshape(grid_t.size, -1) - target.ravel(), axis=1)
    k, idx = np.divmod(np.arange(grid_t.size), alphas.size * h0s.size)
    results = []
    for p in np.lexsort((k, idx, errs))[:3]:  # error first, then grid indices
        res = minimize(residual, np.array([grid_a[p], grid_h[p], grid_t[p]]), maxiter=budget)
        alpha, h0, t = res.x.tolist()
        cov = (math.cos(alpha), math.sin(alpha), h0)
        results.append(ShootingResult(t, cov, res.fun, res.fun < HIT_TOLERANCE))
    return min(results, key=lambda r: (not r.converged,  # the shortest hit, else the best
                                       r.distance if r.converged else r.endpoint_error))


# --- export -----------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, stream: IO[str]) -> None:
    """CSV rows "t,h1,h2,h0,g00,g01,..." with row-major group entries."""
    cols = traj.elements[0].shape[-1]
    header = ["t", "h1", "h2", "h0"] + [
        f"g{i // cols}{i % cols}" for i in range(traj.elements[0].size)
    ]
    writer = csv.writer(stream)
    writer.writerow(header)
    for t, h, g in zip(traj.times, traj.covectors, traj.elements):
        writer.writerow(
            [repr(float(t))]
            + [repr(float(x)) for x in h]
            + [repr(float(x)) for x in g.ravel()]
        )
