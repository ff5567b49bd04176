"""Explicit isometry between the affine-line group model and SL(2).

The group A+(R) x R is realized as 3x3 matrices [[-y, 0, x], [0, 1, z],
[0, 0, 1]] with y < 0, carrying the left-invariant structure spanned by
(e2, e1 + e3) with Reeb vector -e3.  In these coordinates a point-dependent
rotation of the horizontal frame produces the coordinate frame

    fhat1 = ( y sin z, -y cos z, -sin z)
    fhat2 = (-y cos z, -y sin z,  cos z)

whose bracket relations match those of the canonical SL(2) frame
(g1, g2, g0 = -g3).  Flowing both control systems with equal controls
therefore intertwines endpoints; composing the resulting endpoint maps
gives the closed-form diffeomorphism

    Psi(rho, theta, phi) = (rho cos theta)^(-1/2) [[cos phi, sin phi],
                           [rho sin(theta - phi), rho cos(theta - phi)]]

in half-plane polar coordinates (x = rho sin theta, y = -rho cos theta,
phi = z / 2).  The coordinates (x, y, z) are global and Psi is 4 pi-periodic
in z, so the flows here run for any z, with no chart guard.  Everything here
is a verbatim transcription of those closed forms plus the redundancy checks
that certify them numerically: endpoint-map consistency, control-flow
(Nagano) intertwining of the chart's RK4 flow with the exact SL(2) flow (one
closed-form exponential per segment) and a step-doubling estimate of the
chart's RK4 error, pushforward of the frame, the kernel / centrality facts
that make Psi well defined on the quotient by z -> z + 4 pi, and the
closed-form inverse (phi = atan2(m12, m11), theta - phi = atan2(m21, m22),
rho = cos theta (m21^2 + m22^2)), whose round trip on a grid of the
fundamental domain certifies that Psi is injective there.

The closed forms (chart points, ``polar``, ``map_F``, ``map_F_inv``, ``map_G``,
Psi, ``psi_consistency``) take floats or arrays.  The randomized rows of
:func:`run_certification` draw in row order, one array each but for the Nagano
schedules; the three Psi rows check their shared draw in one array pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .geodesics import (GroupModel, IntegrationBlowUpError, _rk4_floats, build_model,
                        integrate_controls, sl2_basis)

TWO_PI = 2.0 * math.pi

# Chart RK4 steps per Nagano schedule.  The step-doubling row runs N and
# N / 2; 240 is a multiple of 120, so both split evenly over 1-5 segments.
NAGANO_STEPS = 240

# Fixed settings of the other certification rows: the central-difference
# step of the frame brackets and of the pushforward gram, the RK4 steps of
# one short frame-field flow, and the points per axis of the round-trip grid.
_FD_STEP = 1e-4
_FLOW_STEPS = 8
_ROUND_TRIP_GRID = 50

# The (lo, hi) box of (x, y, z) that random chart points are drawn from.
_POINT_BOX = ((-2.0, 2.0), (-2.5, -0.4), (-2.5, 2.5))


def _draw(rng: np.random.Generator, n: int, box) -> np.ndarray:
    """n rows, column j uniform on box[j] = (lo, hi) as lo + (hi - lo) u: bit
    for bit n rounds of sequential ``rng.uniform(lo, hi)``, one per column,
    and ``rng`` is left in the same state."""
    lo, hi = np.array(box).T
    return lo + (hi - lo) * rng.random((n, len(box)))


@dataclass(frozen=True)
class APoint:
    """Cartesian coordinates on the affine model, floats or arrays of one
    shape; y < 0 strictly, entrywise."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not np.all(self.y < 0):  # a NaN fails too
            raise ValueError(f"APoint requires y < 0, got y = {self.y}")


def polar(p: APoint):
    """(rho, theta) with x = rho sin(theta), y = -rho cos(theta); theta is
    measured from the -y axis, so rho > 0 and |theta| < pi/2."""
    return np.hypot(p.x, p.y), np.arctan2(p.x, -p.y)


# --- group operations on the affine model -----------------------------------

IDENTITY_APOINT = APoint(0.0, -1.0, 0.0)


def a_mul(p: APoint, q: APoint) -> APoint:
    """Group law (x, y, z)(x', y', z') = (x - y x', -y y', z + z')."""
    return APoint(p.x - p.y * q.x, -p.y * q.y, p.z + q.z)


def matrix_to_apoint(g: np.ndarray) -> APoint:
    return APoint(float(g[0, 2]), -float(g[0, 0]), float(g[1, 2]))


# --- coordinate frame ----------------------------------------------------------

# The controls whose chart fields are f0, fhat1 and fhat2.
_UNIT_CONTROLS = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def _chart_rhs(u, x, y, z):
    """u1 fhat1 + u2 fhat2 + u0 f0 at (x, y, z), for the control u = (u1, u2, u0)."""
    u1, u2, u0 = u
    s, c = math.sin(z), math.cos(z)
    return u1 * y * s - u2 * y * c, -u1 * y * c - u2 * y * s, -u1 * s + u2 * c - u0


def frame_hat(p: APoint) -> Tuple[np.ndarray, np.ndarray]:
    """The rotated orthonormal frame in (dx, dy, dz): :func:`_chart_rhs` at unit controls."""
    return tuple(np.array(_chart_rhs(u, p.x, p.y, p.z)) for u in _UNIT_CONTROLS[1:])


def f0_chart() -> np.ndarray:
    """The Reeb field -d/dz in chart components (constant: read at the identity)."""
    return np.array(_chart_rhs(_UNIT_CONTROLS[0], 0.0, -1.0, 0.0))


# --- endpoint maps ------------------------------------------------------------

def map_F(t1, t2, t0) -> APoint:
    """Endpoint of the composed frame flows (rescaled by 2) on the affine model."""
    tau = np.tanh(t2)
    s = np.exp(-2.0 * t1)
    d = 1.0 + tau * tau
    return APoint(2.0 * s * tau / d, -s * (1.0 - tau * tau) / d, 2.0 * (np.arctan(tau) - t0))


def map_F_inv(p: APoint):
    """Closed-form inverse of :func:`map_F`; defined on the whole half-space."""
    rho, theta = polar(p)
    return -0.5 * np.log(rho), np.arctanh(np.tan(0.5 * theta)), 0.5 * (theta - p.z)


def _matrix(m11, m12, m21, m22) -> np.ndarray:
    """The 2x2 matrices, shape (..., 2, 2), of four broadcasting entries."""
    out = np.empty(np.broadcast(m11, m12, m21, m22).shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m11, m12, m21, m22
    return out


def map_G(t1, t2, t0) -> np.ndarray:
    """Product of the three exponential factors on the SL(2) side, written out.

    diag(e^t1, e^-t1) . [[cosh t2, sinh t2], [sinh t2, cosh t2]]
    . [[cos t0, -sin t0], [sin t0, cos t0]]; each factor has determinant 1.
    """
    up, down, ch, sh = np.exp(t1), np.exp(-t1), np.cosh(t2), np.sinh(t2)
    a, b, d, e = up * ch, up * sh, down * sh, down * ch  # the first two factors' product
    c, s = np.cos(t0), np.sin(t0)
    return _matrix(a * c + b * s, b * c - a * s, d * c + e * s, e * c - d * s)


def psi_entries(rho, theta, phi, signs=(1.0, 1.0, 1.0, 1.0), arg_sign=1.0):
    """Entries of Psi; broadcasts over array inputs.

    ``signs`` and ``arg_sign`` exist solely as a mutation hook for the
    certification tests; production callers leave them at +1.
    """
    pref = 1.0 / np.sqrt(rho * np.cos(theta))
    delta = arg_sign * (theta - phi)
    return (
        signs[0] * pref * np.cos(phi),
        signs[1] * pref * np.sin(phi),
        signs[2] * pref * rho * np.sin(delta),
        signs[3] * pref * rho * np.cos(delta),
    )


PsiFn = Callable[..., Tuple[float, float, float, float]]


def map_Psi(rho, theta, phi, psi: PsiFn = psi_entries) -> np.ndarray:
    """The global isometry: the 2x2 matrices of the entries ``psi`` gives."""
    return _matrix(*psi(rho, theta, phi))


def psi_of_apoint(p: APoint, psi: PsiFn = psi_entries) -> np.ndarray:
    """Psi evaluated on a chart point, converting z to phi = z / 2."""
    return map_Psi(*polar(p), 0.5 * p.z, psi)


def psi_inverse(m11, m12, m21, m22):
    """Closed-form inverse of Psi: (rho, theta, phi) from the four entries.

    With p = (rho cos theta)^(-1/2) the rows are p (cos phi, sin phi) and
    p rho (sin(theta - phi), cos(theta - phi)), so det = p^2 rho cos theta = 1
    gives rho = cos theta |row 2|^2; theta is wrapped into (-pi, pi].
    Broadcasts like :func:`psi_entries`.
    """
    phi = np.arctan2(m12, m11)
    theta = phi + np.arctan2(m21, m22)
    theta = theta - TWO_PI * np.ceil((theta - math.pi) / TWO_PI)
    return np.cos(theta) * (m21 * m21 + m22 * m22), theta, phi


def psi_round_trip_gap() -> float:
    """Max |Psi^-1(Psi(x)) - x| over a 50^3 grid of the fundamental domain.

    A map with a left inverse is injective, so a gap at rounding level
    certifies injectivity at every grid point.
    """
    n = _ROUND_TRIP_GRID
    axes = (np.linspace(0.25, 3.0, n), np.linspace(-1.45, 1.45, n),
            np.linspace(-math.pi + TWO_PI / n, math.pi, n))
    x = np.meshgrid(*axes, indexing="ij")
    back = psi_inverse(*psi_entries(*x))
    return float(np.max([np.max(np.abs(b - a)) for a, b in zip(x, back)]))


def psi_consistency(t1, t2, t0, psi: PsiFn = psi_entries) -> float:
    """Max-norm gap between Psi(polar(F(t))) and G(t) over every t given; zero analytically."""
    lhs = psi_of_apoint(map_F(t1, t2, t0), psi)
    return float(np.max(np.abs(lhs - map_G(t1, t2, t0))))


# --- control flows on both sides ----------------------------------------------

def integrate_chart(
    controls: Sequence[Tuple[float, float, float]],
    t_final: float,
    steps: int,
    start: APoint = IDENTITY_APOINT,
) -> APoint:
    """RK4 flow of u1 fhat1 + u2 fhat2 + u0 f0 in (x, y, z), on three floats
    by the covector's loop ``_rk4_floats``.  An empty schedule raises
    ValueError; a segment that ends non-finite raises
    :class:`IntegrationBlowUpError` "by" its last step, as does one whose z
    turns infinite inside it."""
    if len(controls) == 0:  # an array schedule has no truth value
        raise ValueError("control schedule must be nonempty")
    state = [start.x, start.y, start.z]
    seg_steps = max(1, steps // len(controls))
    # Plain floats: numpy scalars step ~3x slower and warn on overflow.
    dt = float(t_final) / len(controls) / seg_steps
    for segment, (u1, u2, u0) in enumerate(controls):
        u = (float(u1), float(u2), float(u0))
        try:
            state = _rk4_floats(_chart_rhs, u, *state, dt, seg_steps)[-3:]
        except ValueError:  # math.sin of an infinite z
            state = [math.inf]
        if not all(map(math.isfinite, state)):
            raise IntegrationBlowUpError((segment + 1) * seg_steps, "by step")
    return APoint(*state)


@functools.cache
def _sl2_model() -> GroupModel:
    # Built on first use, not at import: building reads SR3D_TOL.
    return build_model("sl2")


def integrate_sl2(
    controls: Sequence[Tuple[float, float, float]],
    t_final: float,
    steps: int,
) -> np.ndarray:
    """Exact flow of the matching left-invariant system on SL(2), one
    closed-form exponential per segment (:func:`integrate_controls`).

    The exact flow ignores ``steps``.  The argument stays because the
    benchmark's layer trace reads it from this call to count Nagano steps.
    """
    return integrate_controls(_sl2_model(), controls, t_final)


def nagano_check(
    controls: Sequence[Tuple[float, float, float]],
    t_final: float,
    steps: int = NAGANO_STEPS,
    psi: PsiFn = psi_entries,
) -> float:
    """Endpoint intertwining: Psi(chart endpoint) vs SL(2) endpoint.

    Both systems are driven by the same piecewise-constant control from
    their identities; the max-norm endpoint gap is the residual.  The SL(2)
    side is exact, so only the chart's RK4 error and ``psi``'s error add.
    """
    q_end = integrate_chart(controls, t_final, steps)
    x_end = integrate_sl2(controls, t_final, steps)
    return float(np.max(np.abs(psi_of_apoint(q_end, psi) - x_end)))


# --- pushforward of the frame ---------------------------------------------------

def _flow_frame_field(p: APoint, index: int, eps: float) -> APoint:
    return integrate_chart([_UNIT_CONTROLS[index]], eps, _FLOW_STEPS, start=p)


def pushforward_check(p: APoint, eps: float, psi: PsiFn = psi_entries) -> float:
    """Forward-difference pushforward against the left-invariant generators.

    residual = max_i || (Psi(flow_i(eps, p)) - Psi(p)) / eps - Psi(p) G_i ||;
    expected O(eps) by Taylor expansion.
    """
    g1, g2, _ = sl2_basis()
    base = psi_of_apoint(p, psi)
    gaps = []
    for index, gen in ((1, g1), (2, g2)):
        moved = psi_of_apoint(_flow_frame_field(p, index, eps), psi)
        diff = (moved - base) / eps
        gaps.append(np.abs(diff - base @ gen))
    return float(np.max(gaps))


def pushforward_gram(p: APoint, psi: PsiFn = psi_entries) -> np.ndarray:
    """Gram matrix of the pushed-forward frame in the SL(2) metric.

    Central differences give the image vectors; left translation back to
    the identity expresses them in the (g1, g2, g3) basis, where the metric
    makes (g1, g2) orthonormal.  Should be the 2x2 identity up to O(eps^2)
    for the step eps = 1e-4; a singular Psi(p) gives NaN entries.
    """
    base = psi_of_apoint(p, psi)
    try:
        base_inv = np.linalg.inv(base)
    except np.linalg.LinAlgError:
        base_inv = np.full((2, 2), np.nan)
    horizontal = []
    for index in (1, 2):
        plus = psi_of_apoint(_flow_frame_field(p, index, _FD_STEP), psi)
        minus = psi_of_apoint(_flow_frame_field(p, index, -_FD_STEP), psi)
        v = base_inv @ (plus - minus) / (2.0 * _FD_STEP)
        # Decompose v = a g1 + b g2 + c g3.
        a = float(v[0, 0] - v[1, 1])
        b = float(v[0, 1] + v[1, 0])
        horizontal.append((a, b))
    return np.array(
        [[hi[0] * hj[0] + hi[1] * hj[1] for hj in horizontal] for hi in horizontal]
    )


# --- quotient behaviour ----------------------------------------------------------

def kernel_point(k: int) -> APoint:
    """The k-th preimage of the identity, (0, -1, -4 k pi); k may be an array."""
    return APoint(0.0, -1.0, -4.0 * math.pi * k)


def quotient_check(k_range: Sequence[int], rng: Optional[np.random.Generator] = None,
                   psi: PsiFn = psi_entries) -> bool:
    """Kernel points map to the identity and are central in the group."""
    rng = np.random.default_rng(0) if rng is None else rng
    for k in k_range:
        center = kernel_point(k)
        gap = float(np.max(np.abs(psi_of_apoint(center, psi) - np.eye(2))))
        if not gap <= 1e-12:  # a NaN gap fails too
            return False
        q = APoint(*_draw(rng, 100, ((-3.0, 3.0), (-3.0, -0.1), (-3.0, 3.0))).T)
        left, right = a_mul(center, q), a_mul(q, center)
        if not np.array_equal([left.x, left.y, left.z], [right.x, right.y, right.z]):
            return False
    return True


# --- finite-difference bracket certification -------------------------------------

def finite_difference_bracket(index_a: int, index_b: int, p: APoint) -> np.ndarray:
    """Central-difference Lie bracket [X_a, X_b](p) of the chart fields.

    [X, Y] = dY[X] - dX[Y] evaluated with symmetric differences of the
    coefficient functions along straight coordinate shifts.
    """
    coords = np.array([p.x, p.y, p.z])

    def field(idx, c):  # on plain floats: numpy scalars make _chart_rhs ~3x slower
        return np.array(_chart_rhs(_UNIT_CONTROLS[idx], *c.tolist()))

    def directional(idx, direction):
        step = _FD_STEP * direction
        return (field(idx, coords + step) - field(idx, coords - step)) / (2.0 * _FD_STEP)

    return (directional(index_b, field(index_a, coords))
            - directional(index_a, field(index_b, coords)))


# --- certification driver ----------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool


def _result(name: str, samples: int, residuals, tol: float) -> CheckResult:
    """A row whose residual is the largest entry of ``residuals`` (a float,
    an array or a list of them); a NaN entry makes it NaN, so the row fails."""
    residual = float(np.max(residuals))
    return CheckResult(name, samples, residual, tol, residual <= tol)


NON_HOMOMORPHISM_PRODUCT = np.array([[2.0, 0.0], [0.5, 0.5]])


def run_certification(
    samples: int = 50,
    seed: int = 42,
    psi: PsiFn = psi_entries,
) -> List[CheckResult]:
    """Run the whole certification battery; deterministic for a fixed seed.

    ``samples`` scales the randomized rows, which draw from one generator in
    row order: 100 points per kernel point (centrality); 2x samples chart
    points (finite-difference brackets); one (20x samples, 6) array of times
    (t1, t2, t0) and chart points (endpoint-map consistency, round trip and
    determinant, checked in one array pass); per schedule, 1x samples, a
    segment count and its controls (intertwining and its step-doubling
    estimate, flown at ``NAGANO_STEPS``, read at call time, and at half
    that); 0.4x samples chart points (pushforward).  Only the schedules are
    not one array; rows that fly the float RK4 loop over plain floats.
    With samples = 0 only the exact fixed-point checks run; samples < 0
    raises ValueError.  Floating-point errors are ignored where ``psi`` is
    evaluated, and only there: a degenerate or non-finite ``psi`` carries NaN
    or inf into its rows, which then fail, while the rows that do not call
    ``psi`` still warn.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    rng = np.random.default_rng(seed)
    results: List[CheckResult] = []

    # Exact fixed points.
    half = math.sqrt(0.5)
    with np.errstate(all="ignore"):
        identity_gap = float(np.max(np.abs(map_Psi(1.0, 0.0, 0.0, psi) - np.eye(2))))
        prod = map_Psi(half, 0.25 * math.pi, math.pi, psi) @ map_Psi(
            half, -0.25 * math.pi, -math.pi, psi
        )
        prod_gap = float(np.max(np.abs(prod - NON_HOMOMORPHISM_PRODUCT)))
        central = quotient_check(range(-2, 3), rng, psi)
    results.append(_result("psi_identity_fixed_point", 1, identity_gap, 1e-12))
    results.append(_result("psi_nonhomomorphism_product", 1, prod_gap, 1e-12))

    ks = np.arange(-2, 3)
    p, expect = map_F(0.0, 0.0, 2.0 * math.pi * ks), kernel_point(ks)
    kernel_gaps = np.abs(np.broadcast_arrays(p.x - expect.x, p.y - expect.y, p.z - expect.z))
    results.append(_result("kernel_points", len(ks), kernel_gaps, 1e-12))
    results.append(_result("kernel_centrality", 5, 0.0 if central else 1.0, 0.0))

    if samples <= 0:
        return results

    # Matrix-side commutators are exact integer combinations.
    g1, g2, g3 = sl2_basis()
    g0 = -g3
    comm_gaps = [
        np.abs((g1 @ g0 - g0 @ g1) - (-g2)),
        np.abs((g2 @ g0 - g0 @ g2) - g1),
        np.abs((g2 @ g1 - g1 @ g2) - g0),
    ]
    results.append(_result("matrix_commutators", 3, comm_gaps, 1e-14))

    # Finite-difference brackets of the chart frame, at plain-float points.
    fd_gaps = []
    n_fd = 2 * samples
    for p in map(APoint, *_draw(rng, n_fd, _POINT_BOX).T.tolist()):
        f1, f2 = frame_hat(p)
        fd_gaps += [
            np.abs(finite_difference_bracket(1, 0, p) - (-f2)),
            np.abs(finite_difference_bracket(2, 0, p) - f1),
            np.abs(finite_difference_bracket(2, 1, p) - f0_chart()),
        ]
    results.append(_result("frame_commutators_fd", n_fd, fd_gaps, 1e-5))

    # Endpoint-map consistency and round trip, and the determinant identity:
    # one pass over one draw, each row a time t and a chart point.
    n_psi = 20 * samples
    draw = _draw(rng, n_psi, ((-1.5, 1.5), (-3.0, 3.0), (-1.5, 1.5)) + _POINT_BOX).T
    t, p = draw[:3], APoint(*draw[3:])
    back = map_F_inv(map_F(*t))
    round_gaps = [np.abs(b - a) for a, b in zip(t, back)]
    with np.errstate(all="ignore"):
        cons_gap = psi_consistency(*t, psi)
        det_gaps = np.abs(np.linalg.det(psi_of_apoint(p, psi)) - 1.0)
    results.append(_result("psi_consistency", n_psi, cons_gap, 1e-10))
    results.append(_result("endpoint_map_roundtrip", n_psi, round_gaps, 1e-10))
    results.append(_result("psi_determinant", n_psi, det_gaps, 1e-10))

    # Control-flow intertwining, and a step-doubling estimate of the chart's
    # RK4 error (the SL(2) side is exact): r(N) - r(N/2) ~ (1 - 2^4) C h^4,
    # so |r(N/2) - r(N)| / 15 approximates the discretisation part of r(N).
    # A wrong map makes both residuals large and nearly equal, leaving the
    # estimate small; the map error shows in the intertwining row alone.
    nag_gaps, disc_gaps = [], []
    for _ in range(samples):
        n_seg = int(rng.integers(1, 6))
        schedule = [tuple(rng.uniform(-1.0, 1.0, size=3)) for _ in range(n_seg)]
        with np.errstate(all="ignore"):
            fine = nagano_check(schedule, 1.0, NAGANO_STEPS, psi)
            coarse = nagano_check(schedule, 1.0, NAGANO_STEPS // 2, psi)
        nag_gaps.append(fine)
        disc_gaps.append(abs(coarse - fine) / 15.0)
    results.append(_result("nagano_intertwining", samples, nag_gaps, 1e-6))
    results.append(_result("nagano_discretisation", samples, disc_gaps, 1e-9))

    # Pushforward: first-order decay in eps and orthonormality transport.
    n_push = max(1, (2 * samples) // 5)
    ratio_gaps, gram_gaps = [], []
    for p in map(APoint, *_draw(rng, n_push, _POINT_BOX).T.tolist()):
        with np.errstate(all="ignore"):
            r1 = pushforward_check(p, 1e-3, psi)
            r2 = pushforward_check(p, 5e-4, psi)
            gram_gaps.append(np.abs(pushforward_gram(p, psi=psi) - np.eye(2)))
        # A map whose image does not move (r1 = 0) shows no decay: NaN fails.
        ratio_gaps.append(abs(r2 / r1 - 0.5) if r1 else math.nan)
    results.append(_result("pushforward_decay", n_push, ratio_gaps, 0.2))
    results.append(_result("pushforward_orthonormality", n_push, gram_gaps, 1e-6))

    return results
