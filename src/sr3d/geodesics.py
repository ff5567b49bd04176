"""Normal geodesics of left-invariant structures on matrix-group models.

The Hamiltonian system splits into a vertical covector subsystem driven by
the frame constants,

    h1' = -(c12_1 h1 + c12_2 h2 + h0) h2
    h2' =  (c12_1 h1 + c12_2 h2 + h0) h1
    h0' = -(c01_1 h1 + c01_2 h2) h1 - (c02_1 h1 + c02_2 h2) h2

and a horizontal subsystem g' = g (h1 A1 + h2 A2) on a matrix (or unit
quaternion) realization of the group.  Both are integrated jointly with
fixed-step classical Runge-Kutta; no adaptive stepping, so the order-4
convergence is directly testable.

:func:`_rk4_step` is the package's one RK4 step; callers keep their own
loops and checks.  :func:`vertical_rhs` alone holds the covector equations,
on floats or arrays.  One path at a time (:func:`integrate_geodesic`, the
shooting refinement) steps a flat list of Python floats, g's entries then
h1, h2, h0, since on these small states numpy's per-call dispatch costs
more than the arithmetic; the shooting grid (:func:`_batched_endpoints`)
steps [g stack, h1, h2, h0] as numpy arrays.  A control flow g' = g M is
linear, so :func:`integrate_controls` steps g -> g R(dt M) with RK4's
stability function R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.

Four models are provided: the 3x3 unipotent realization of the Heisenberg
group, the 3x3 affine realization of A+(R) x R, SL(2) as 2x2 matrices, and
SU(2) as unit quaternions (kept in real arithmetic on purpose).

Importing this module does not import scipy: ``scipy.optimize.minimize``
(the shooting refinement's Nelder-Mead) is loaded the first time
:func:`shoot_distance` refines a start, or ``geodesics.minimize`` is read,
and is then bound as the module attribute ``minimize``.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from typing import IO, List, Sequence, Tuple

import numpy as np

from .classify import catalog_entry
from .frames import AdaptedFrame, frame_from_orthonormal, reeb_frame

MODEL_IDS = ("heisenberg", "a_plus_r", "sl2", "su2")


def __getattr__(name):
    # PEP 562: ``minimize`` is scipy's, imported on first use and then kept
    # in the module globals, where a wrapper or monkeypatch can replace it.
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class IntegrationBlowUpError(RuntimeError):
    """A fixed-step flow reached a non-finite state.

    ``step`` is the first non-finite step, or with ``when="by"`` the last
    step of a flow that checks its state only once it has finished.
    """

    def __init__(self, step: int, when: str = "at"):
        super().__init__(f"state became non-finite {when} step {step}")
        self.step = step


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions stored as (w, x, y, z) on the last axis."""
    w1, x1, y1, z1 = np.asarray(p).T
    w2, x2, y2, z2 = np.asarray(q).T
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    ).T


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
    # _right_mul_terms(a1, a2), for :func:`_geodesic_rhs`.
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Read-only copies, so that ``_terms`` (from a1 and a2) cannot go stale.
        for name in ("a1", "a2", "a0", "identity"):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_terms", self._right_mul_terms(self.a1, self.a2))

    def _right_mul_terms(self, *ms: np.ndarray) -> tuple:
        """Nonzero terms (out, in, coef for each m) of g -> g m on g's flat entries."""
        size = self.identity.size
        unit = np.eye(size).reshape((size,) + self.identity.shape)
        maps = [np.array([self.mul(e, m).ravel() for e in unit]).T for m in ms]
        return tuple(
            (out, col) + tuple(float(lm[out, col]) for lm in maps)
            for out in range(size) for col in range(size)
            if any(lm[out, col] for lm in maps)
        )

    def mul(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        if self.kind == "quaternion":
            return quat_mul(g, h)
        return g @ h

    def commutator(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.mul(a, b) - self.mul(b, a)

    def combo(self, u1: float, u2: float, u0: float) -> np.ndarray:
        return u1 * self.a1 + u2 * self.a2 + u0 * self.a0

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
    dh1 = -w * h2
    dh2 = w * h1
    dh0 = -(frame.c01_1 * h1 + frame.c01_2 * h2) * h1 - (
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

    ``state`` is a flat list whose entries are floats, or numpy arrays of
    one shape for a batch; ``rhs`` maps such a list to one of the same
    layout.  Returns the new state without projecting or checking it.
    """
    half = 0.5 * dt
    k1 = rhs(state)
    k2 = rhs([x + half * k for x, k in zip(state, k1)])
    k3 = rhs([x + half * k for x, k in zip(state, k2)])
    k4 = rhs([x + dt * k for x, k in zip(state, k3)])
    sixth = dt / 6.0
    return [x + sixth * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(state, k1, k2, k3, k4)]


def _geodesic_rhs(model, frame):
    """Coupled right-hand side on the flat float state [g entries, h1, h2, h0]."""
    terms = model._terms
    size = model.identity.size

    def rhs(x):
        h1, h2, h0 = x[size:]
        dx = [0.0] * size
        for out, col, c1, c2 in terms:
            dx[out] += (c1 * h1 + c2 * h2) * x[col]
        dx.extend(vertical_rhs(frame, h1, h2, h0))
        return dx

    return rhs


def _unit_quaternion(state):
    """Norm of the quaternion in ``state[:4]``, and the state with it unit."""
    norm = math.sqrt(sum(x * x for x in state[:4]))
    return norm, [x / norm for x in state[:4]] + state[4:]


def integrate_geodesic(
    model: GroupModel,
    frame: AdaptedFrame,
    initial: GeodesicState,
    t_final: float,
    steps: int,
) -> Trajectory:
    """Fixed-step RK4 on the coupled horizontal + vertical system.

    Quaternion states are renormalized after every step; the pre-projection
    defect is what :attr:`Trajectory.max_group_defect` reports.  Matrix
    states are never projected.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = float(t_final) / steps
    g0 = np.array(initial.g, dtype=float)
    state = g0.ravel().tolist() + [float(initial.h1), float(initial.h2), float(initial.h0)]
    flat = array("d", state)
    max_defect = model.group_defect(g0)
    quaternion = model.kind == "quaternion"
    rhs = _geodesic_rhs(model, frame)
    for n in range(steps):
        state = _rk4_step(rhs, state, dt)
        if not all(map(math.isfinite, state)):
            raise IntegrationBlowUpError(n + 1)
        if quaternion:
            norm, state = _unit_quaternion(state)
            max_defect = max(max_defect, abs(norm - 1.0))
        flat.extend(state)
    states = np.frombuffer(flat).reshape(steps + 1, -1)
    elements = states[:, :-3].reshape((steps + 1,) + g0.shape)
    if not quaternion:
        max_defect = model.group_defect(elements)
    times = np.linspace(0.0, t_final, steps + 1)
    return Trajectory(model.id, times, states[:, -3:], elements, max_defect)


def integrate_controls(
    model: GroupModel,
    controls: Sequence[Tuple[float, float, float]],
    t_final: float,
    steps: int = 1000,
) -> np.ndarray:
    """Endpoint of g' = g (u1 A1 + u2 A2 + u0 A0) for piecewise-constant u.

    Each control triple acts for an equal share of ``t_final``; ``steps`` is
    the total RK4 step count, split evenly across segments.
    """
    if not controls:
        raise ValueError("control schedule must be nonempty")
    seg_steps = max(1, steps // len(controls))
    seg_t = t_final / len(controls)
    g = model.identity.ravel().tolist()
    quaternion = model.kind == "quaternion"
    for segment, (u1, u2, u0) in enumerate(controls):
        z = (seg_t / seg_steps) * model.combo(u1, u2, u0)
        # q = R(z) - 1 for RK4's stability function R; stepping g + g q
        # rather than g R(z) keeps each step's rounding at the step's size.
        with np.errstate(over="ignore", invalid="ignore"):
            q = z + model.mul(z, z / 2.0 + model.mul(z, z / 6.0 + model.mul(z, z / 24.0)))
            terms = model._right_mul_terms(q)
        for n in range(seg_steps):
            dg = [0.0] * len(g)
            for out, col, coef in terms:
                dg[out] += coef * g[col]
            g = [x + d for x, d in zip(g, dg)]
            if not all(map(math.isfinite, g)):
                raise IntegrationBlowUpError(segment * seg_steps + n + 1)
            if quaternion:
                g = _unit_quaternion(g)[1]
    return np.array(g).reshape(model.identity.shape)


# --- shooting ---------------------------------------------------------------

@dataclass(frozen=True)
class ShootingResult:
    """Heuristic distance estimate; never a claim of optimality."""

    distance: float
    covector: Tuple[float, float, float]
    endpoint_error: float
    converged: bool


HIT_TOLERANCE = 1e-6


def _shoot_steps(t: float) -> int:
    # Order-4 steps: error ~ (1/80)^4 * t stays two decades under the hit
    # tolerance for desk-scale times.
    return max(40, int(math.ceil(80.0 * t)))


def _shoot_endpoint(model, alpha, h0, t):
    """Endpoint only; no trajectory storage, for use inside optimizers.

    The finished state is checked once: a non-finite one raises
    :class:`IntegrationBlowUpError` (NaN and inf never turn finite again).
    """
    state = model.identity.ravel().tolist() + [math.cos(alpha), math.sin(alpha), float(h0)]
    steps = _shoot_steps(t)
    dt = float(t) / steps
    quaternion = model.kind == "quaternion"
    rhs = _geodesic_rhs(model, model.frame)
    for _ in range(steps):
        state = _rk4_step(rhs, state, dt)
        if quaternion:
            state = _unit_quaternion(state)[1]
    if not all(map(math.isfinite, state)):
        raise IntegrationBlowUpError(steps, "by")
    return np.array(state[:-3]).reshape(model.identity.shape)


def _batched_endpoints(model, alphas, h0s, t):
    """Endpoints for a whole batch of unit covectors at a common time t."""
    g = np.tile(model.identity, (alphas.size,) + (1,) * model.identity.ndim)
    state = [g, np.cos(alphas), np.sin(alphas), np.asarray(h0s, dtype=float)]
    quaternion = model.kind == "quaternion"

    def rhs(x):
        gs, h1, h2, h0 = x
        m = np.multiply.outer(h1, model.a1) + np.multiply.outer(h2, model.a2)
        return [model.mul(gs, m), *vertical_rhs(model.frame, h1, h2, h0)]

    steps = _shoot_steps(t)
    dt = t / steps
    for _ in range(steps):
        state = _rk4_step(rhs, state, dt)
        if quaternion:
            state[0] = state[0] / np.linalg.norm(state[0], axis=1, keepdims=True)
    return state[0]


def shoot_distance(
    model: GroupModel,
    target: np.ndarray,
    budget: int = 200,
    t_max: float = 2.0,
    h0_max: float = 3.0,
) -> ShootingResult:
    """Estimate the path-length distance from the identity to ``target``.

    Initial covectors are arc-length normalized (h1^2 + h2^2 = 1, free h0)
    so the time of flight is the candidate length.  A coarse deterministic
    grid over (direction angle, h0, t) is refined with Nelder-Mead simplex
    (reflection 1, expansion 2, contraction 1/2, shrink 1/2, at most
    ``budget`` iterations).  Returns the shortest refined hit whose endpoint
    error is below 1e-6, else the best found with its error.  Candidates are
    reduced in grid-index order, so the result is schedule-independent.
    A budget below 1, or a target of the wrong shape, with a non-finite
    entry or whose norm overflows raises ValueError; a non-finite endpoint
    met during the search raises :class:`IntegrationBlowUpError`.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    target = np.asarray(target, dtype=float)
    if target.shape != model.identity.shape:
        raise ValueError(f"target shape {target.shape} does not match the model's {model.identity.shape}")
    if not np.all(np.isfinite(target)):
        raise ValueError("target entries must be finite")
    with np.errstate(over="ignore"):
        if not math.isfinite(np.linalg.norm(target)):
            raise ValueError("target norm overflows a float")
    if float(np.max(np.abs(target - model.identity))) <= 1e-12:
        return ShootingResult(0.0, (0.0, 0.0, 0.0), 0.0, True)

    def objective(params):
        alpha, h0, t = params
        if t <= 0.0:
            return 10.0 + abs(t)
        end = _shoot_endpoint(model, alpha, h0, t)
        return float(np.linalg.norm(end - target))

    alphas = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    h0s = np.linspace(-h0_max, h0_max, 9)
    ts = np.linspace(0.15, t_max, 10)
    grid_a, grid_h = np.meshgrid(alphas, h0s, indexing="ij")
    grid_a, grid_h = grid_a.ravel(), grid_h.ravel()
    candidates = []
    for k, t in enumerate(ts):
        ends = _batched_endpoints(model, grid_a, grid_h, float(t))
        errs = np.linalg.norm(
            ends.reshape(ends.shape[0], -1) - target.ravel(), axis=1
        )
        for idx in range(errs.size):
            candidates.append(
                (float(errs[idx]), int(idx), k, float(grid_a[idx]),
                 float(grid_h[idx]), float(t))
            )
    candidates.sort()  # lexicographic: error first, then grid indices

    # Read at call time, so that a replaced ``geodesics.minimize`` is used.
    minimize = globals().get("minimize") or __getattr__("minimize")
    hits = []
    best = None
    for err, _, _, alpha, h0, t in candidates[:3]:
        res = minimize(
            objective,
            x0=np.array([alpha, h0, t]),
            method="Nelder-Mead",
            options={
                "maxiter": budget,
                "xatol": 1e-10,
                "fatol": 1e-12,
            },
        )
        alpha_r, h0_r, t_r = res.x
        err_r = float(res.fun)
        cov = (math.cos(alpha_r), math.sin(alpha_r), float(h0_r))
        result = ShootingResult(float(t_r), cov, err_r, err_r < HIT_TOLERANCE)
        if result.converged:
            hits.append(result)
        if best is None or err_r < best.endpoint_error:
            best = result
    if hits:
        return min(hits, key=lambda r: r.distance)
    return best


# --- export -----------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, stream: IO[str]) -> None:
    """CSV rows "t,h1,h2,h0,g00,g01,..." with row-major group entries."""
    flat0 = traj.elements[0].ravel()
    header = ["t", "h1", "h2", "h0"] + [f"g{i//_cols(traj)}{i%_cols(traj)}" for i in range(flat0.size)]
    writer = csv.writer(stream)
    writer.writerow(header)
    for t, h, g in zip(traj.times, traj.covectors, traj.elements):
        writer.writerow(
            [repr(float(t))]
            + [repr(float(x)) for x in h]
            + [repr(float(x)) for x in g.ravel()]
        )


def _cols(traj: Trajectory) -> int:
    shape = traj.elements[0].shape
    return shape[1] if len(shape) == 2 else shape[0]
