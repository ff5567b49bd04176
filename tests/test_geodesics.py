import dataclasses
import hashlib
import io
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from sr3d import geodesics
from sr3d.classify import catalog, catalog_entry
from sr3d.frames import reeb_frame, rotate_frame
from sr3d.geodesics import (
    GeodesicState,
    IntegrationBlowUpError,
    MODEL_IDS,
    build_model,
    integrate_controls,
    integrate_geodesic,
    minimize,
    quat_mul,
    shoot_distance,
    trajectory_to_csv,
    vertical_rhs,
)
from sr3d.geodesics import (
    _BLOCK,
    _batched_endpoints,
    _damped_step,
    _geodesic_ends,
    _rk4_step,
    _shoot_endpoint,
    _shoot_steps,
    _split_flight,
)
from sr3d.isometry import matrix_to_apoint, psi_of_apoint

from conftest import finite_or_documented


@pytest.fixture(scope="module")
def models():
    return {mid: build_model(mid) for mid in MODEL_IDS}


def start(model, h1, h2, h0):
    return GeodesicState(model.identity, h1, h2, h0)


class TestVerticalRhs:
    def test_flat_direction_is_stationary(self, models):
        fr = models["heisenberg"].frame
        assert vertical_rhs(fr, 1.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_flat_vertical_rotation_rate(self, models):
        fr = models["heisenberg"].frame
        dh1, dh2, dh0 = vertical_rhs(fr, 1.0, 0.0, 1.0)
        assert (dh1, dh2, dh0) == (0.0, -1.0, 0.0)

    def test_zero_covector_is_stationary(self, models):
        for model in models.values():
            assert vertical_rhs(model.frame, 0.0, 0.0, 0.7) == (0.0, 0.0, 0.0)

    def test_matches_bracket_tensor_expansion(self, rng):
        # Independent oracle: dh_k = sum_i h_i <lambda, [f_i, f_k]> expanded
        # through the numeric coordinates of the frame brackets, on a frame
        # with all six constants nonzero.
        from sr3d.algebra import bracket

        fr = rotate_frame(reeb_frame(catalog_entry("solv_minus").structure), 0.3)
        assert min(abs(c) for c in fr.constants) > 0.1
        basis = np.column_stack([fr.f1, fr.f2, fr.f0])
        fields = [fr.f1, fr.f2, fr.f0]
        gamma = np.array(
            [
                [np.linalg.solve(basis, bracket(fr.algebra, fields[i], fields[k]))
                 for i in range(3)]
                for k in range(3)
            ]
        )
        for _ in range(50):
            h = rng.normal(size=3)
            expected = [
                sum(h[i] * float(gamma[k, i] @ h) for i in range(2))
                for k in range(3)
            ]
            got = vertical_rhs(fr, *h)
            assert np.max(np.abs(np.array(got) - expected)) <= 1e-12 * (
                1 + np.max(np.abs(expected))
            )


def ambient_flow(model, cov, t_final):
    """Oracle that assumes no sign convention: the Hamiltonian flow of
    H(g, p) = 1/2 sum_i <p, g A_i>^2 (i = 1, 2) on R^(n x n), by DOP853.

    p starts as the least-norm matrix with <p, A_k> = h_k.  Returns the
    endpoint g and the covector h_k = <p, g A_k> at ``t_final``.
    """
    from scipy.integrate import solve_ivp

    gens = [model.a1, model.a2, model.a0]
    n = model.identity.shape[0]
    gram = np.array([[np.sum(a * b) for b in gens] for a in gens])
    p0 = sum(c * a for c, a in zip(np.linalg.solve(gram, cov), gens))

    def rhs(_, y):
        g, p = y[: n * n].reshape(n, n), y[n * n :].reshape(n, n)
        u = [np.sum(p * (g @ a)) for a in gens[:2]]
        dg = sum(ui * g @ a for ui, a in zip(u, gens[:2]))
        dp = -sum(ui * p @ a.T for ui, a in zip(u, gens[:2]))
        return np.concatenate([dg.ravel(), dp.ravel()])

    y0 = np.concatenate([model.identity.ravel(), p0.ravel()])
    y = solve_ivp(rhs, (0.0, t_final), y0, method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]
    g, p = y[: n * n].reshape(n, n), y[n * n :].reshape(n, n)
    return g, np.array([np.sum(p * (g @ a)) for a in gens])


class TestSignOracles:
    """Checks of the covector equations that assume no sign convention."""

    @pytest.mark.parametrize("mid", ["heisenberg", "a_plus_r", "sl2"])
    def test_matches_ambient_hamiltonian_flow(self, models, mid):
        model = models[mid]
        g, cov = ambient_flow(model, np.array([0.6, 0.8, 0.3]), 1.5)
        traj = integrate_geodesic(model, model.frame, start(model, 0.6, 0.8, 0.3), 1.5, 3000)
        assert np.max(np.abs(traj.endpoint - g)) <= 1e-9
        assert np.max(np.abs(np.array(traj.final_covector) - cov)) <= 1e-9

    @pytest.mark.parametrize("cov", [(0.6, 0.8, 0.3), (1.0, 0.0, -0.7), (0.0, 1.0, 1.0)])
    def test_psi_carries_affine_geodesics_onto_sl2(self, models, cov):
        ma, ms = models["a_plus_r"], models["sl2"]
        affine = integrate_geodesic(ma, ma.frame, start(ma, *cov), 2.0, 2000)
        simple = integrate_geodesic(ms, ms.frame, start(ms, *cov), 2.0, 2000)
        for qa, gs in zip(affine.elements, simple.elements):
            assert np.max(np.abs(psi_of_apoint(matrix_to_apoint(qa)) - gs)) <= 1e-9

    @pytest.mark.parametrize("cov", [(0.6, 0.8, 0.3), (1.0, 0.0, -0.7), (0.0, 1.0, 1.0)])
    def test_affine_distance_at_unit_length(self, models, cov):
        # A unit-speed normal geodesic of length 1.0 that is still minimising.
        model = models["a_plus_r"]
        target, _ = ambient_flow(model, np.array(cov), 1.0)
        result = shoot_distance(model, target)
        assert result.converged
        assert abs(result.distance - 1.0) <= 1e-6


class TestModelRealizations:
    def test_commutators_reproduce_frame_constants(self, models):
        for model in models.values():
            f = model.frame
            want = {
                (1, 0): f.c01_1 * model.a1 + f.c01_2 * model.a2,
                (2, 0): f.c02_1 * model.a1 + f.c02_2 * model.a2,
                (2, 1): f.c12_1 * model.a1 + f.c12_2 * model.a2 + model.a0,
            }
            pairs = {
                (1, 0): model.commutator(model.a1, model.a0),
                (2, 0): model.commutator(model.a2, model.a0),
                (2, 1): model.commutator(model.a2, model.a1),
            }
            for key in want:
                assert np.max(np.abs(pairs[key] - want[key])) <= 1e-12, model.id

    def test_quaternion_product_convention(self):
        i = np.array([0.0, 1.0, 0.0, 0.0])
        j = np.array([0.0, 0.0, 1.0, 0.0])
        k = np.array([0.0, 0.0, 0.0, 1.0])
        assert np.allclose(quat_mul(i, j), k)
        assert np.allclose(quat_mul(j, i), -k)
        assert np.allclose(quat_mul(i, i), np.array([-1.0, 0, 0, 0]))


class TestIntegration:
    def test_zero_covector_constant_trajectory(self, models):
        for model in models.values():
            traj = integrate_geodesic(
                model, model.frame, start(model, 0.0, 0.0, 0.0), 2.0, 50
            )
            assert np.max(np.abs(traj.endpoint - model.identity)) == 0.0

    def test_flat_straight_line_hits_exponential(self, models):
        model = models["heisenberg"]
        traj = integrate_geodesic(model, model.frame, start(model, 1, 0, 0), 1.0, 100)
        assert np.max(np.abs(traj.endpoint - expm(model.a1))) <= 1e-10

    def test_flat_vertical_closed_form(self, models):
        model = models["heisenberg"]
        traj = integrate_geodesic(model, model.frame, start(model, 1, 0, 1), 5.0, 5000)
        t = traj.times
        assert np.max(np.abs(traj.covectors[:, 0] - np.cos(t))) <= 1e-9
        assert np.max(np.abs(traj.covectors[:, 1] + np.sin(t))) <= 1e-9
        assert np.max(np.abs(traj.covectors[:, 2] - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "mid,cov",
        [("heisenberg", (1, 0, 1)), ("a_plus_r", (0.8, 0.6, 0.7)),
         ("sl2", (0.8, 0.6, 0.7)), ("su2", (0.8, 0.6, 0.7))],
    )
    def test_step_halving_shows_order_four(self, models, mid, cov):
        model = models[mid]

        def end(n):
            return integrate_geodesic(
                model, model.frame, start(model, *cov), 5.0, n
            ).endpoint

        ref = end(3200)
        ratio = np.linalg.norm(end(100) - ref) / np.linalg.norm(end(200) - ref)
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2, (mid, ratio)

    def test_sl2_casimir_conserved(self, models):
        # The quadratic h1^2 + h2^2 - h0^2 is a conserved quantity of the
        # covector flow on the simple model (sign fixed by the verified
        # commutators).
        model = models["sl2"]
        traj = integrate_geodesic(
            model, model.frame, start(model, 0.8, 0.6, 0.7), 5.0, 5000
        )
        h = traj.covectors
        casimir = h[:, 0] ** 2 + h[:, 1] ** 2 - h[:, 2] ** 2
        assert np.max(np.abs(casimir - casimir[0])) <= 1e-9

    def test_left_invariance_of_endpoints(self, models):
        for model in models.values():
            base = integrate_geodesic(
                model, model.frame, start(model, 0.6, -0.8, 0.5), 2.0, 2000
            ).endpoint
            shift = integrate_controls(model, [(0.3, -0.2, 0.4)], 1.0)
            moved = integrate_geodesic(
                model, model.frame,
                GeodesicState(shift, 0.6, -0.8, 0.5), 2.0, 2000,
            ).endpoint
            assert np.max(np.abs(model.mul(shift, base) - moved)) <= 1e-9, model.id

    def test_blow_up_reports_step(self, models):
        with pytest.raises(IntegrationBlowUpError) as err:
            integrate_geodesic(
                models["a_plus_r"], models["a_plus_r"].frame,
                start(models["a_plus_r"], 1, 0, 0), 2000.0, 100,
            )
        assert err.value.step > 0


def numpy_rk4(model, frame, cov, t_final, steps):
    """Reference: classical RK4 on numpy arrays with the model's own products.

    Returns (covectors, elements, max pre-projection group defect) and raises
    IntegrationBlowUpError at the first non-finite step, like the library.
    """
    dt = t_final / steps
    g = np.array(model.identity, dtype=float)
    h = np.array(cov, dtype=float)
    covectors, elements = [h], [g]
    defect = model.group_defect(g)

    def rhs(gc, hc):
        dg = model.mul(gc, hc[0] * model.a1 + hc[1] * model.a2)
        return dg, np.array(vertical_rhs(frame, hc[0], hc[1], hc[2]))

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps):
            k1g, k1h = rhs(g, h)
            k2g, k2h = rhs(g + 0.5 * dt * k1g, h + 0.5 * dt * k1h)
            k3g, k3h = rhs(g + 0.5 * dt * k2g, h + 0.5 * dt * k2h)
            k4g, k4h = rhs(g + dt * k3g, h + dt * k3h)
            g = g + (dt / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
            h = h + (dt / 6.0) * (k1h + 2 * k2h + 2 * k3h + k4h)
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
                raise IntegrationBlowUpError(n + 1)
            defect = max(defect, model.group_defect(g))
            if model.kind == "quaternion":
                g = g / np.linalg.norm(g)
            covectors.append(h)
            elements.append(g)
    return np.array(covectors), np.array(elements), defect


def generic_covectors(rng, n):
    """Unit-speed covectors (cos a, sin a, h0) with generic a and h0."""
    return [
        (math.cos(a), math.sin(a), h0)
        for a, h0 in zip(rng.uniform(0.0, 2 * math.pi, n), rng.uniform(-1.5, 1.5, n))
    ]


@pytest.fixture(scope="module")
def rk4_ends(models):
    """Per model, (alpha, h0, t, endpoint) for 16000-step RK4 flights of the
    covector (cos alpha, sin alpha, h0), at h0 = 0, 1e-9, 0.03 (|h0 t| in
    the heisenberg map's series range) and U(-3, 3)."""
    rng = np.random.default_rng(16000)
    out = {}
    for mid, model in models.items():
        out[mid] = []
        for h0 in (0.0, 1e-9, 0.03, float(rng.uniform(-3.0, 3.0))):
            alpha, t = float(rng.uniform(0.0, 2 * math.pi)), float(rng.uniform(0.15, 2.0))
            cov = start(model, math.cos(alpha), math.sin(alpha), h0)
            end = integrate_geodesic(model, model.frame, cov, t, 16000).endpoint
            out[mid].append((alpha, h0, t, end))
    return out


def map_rk4_gap(cases, ends):
    """Largest gap between ``ends(alpha, h0, t)`` and the RK4 endpoints."""
    return max(float(np.max(np.abs(ends(a, h0, t) - end))) for a, h0, t, end in cases)


@pytest.mark.parametrize("mid", MODEL_IDS)
class TestPlainFloatStepAgainstNumpy:
    def test_integrate_geodesic(self, models, rng, mid):
        model = models[mid]
        for cov in generic_covectors(rng, 3):
            traj = integrate_geodesic(model, model.frame, start(model, *cov), 2.0, 400)
            covectors, elements, defect = numpy_rk4(model, model.frame, cov, 2.0, 400)
            assert np.max(np.abs(traj.covectors - covectors)) <= 1e-13
            assert np.max(np.abs(traj.elements - elements)) <= 1e-13
            assert abs(traj.max_group_defect - defect) <= 1e-13

    def test_shoot_endpoint(self, models, rk4_ends, mid):
        # _shoot_endpoint is the exact map, and the map is 16000-step RK4 to
        # its rounding.
        model = models[mid]
        for alpha, h0, t, _ in rk4_ends[mid]:
            got = _shoot_endpoint(model, alpha, h0, t)
            assert got.shape == model.identity.shape
            assert np.array_equal(got, _geodesic_ends(model, alpha, h0, t))
        assert map_rk4_gap(rk4_ends[mid], lambda a, h0, t: _geodesic_ends(model, a, h0, t)) <= 1e-11

    def test_batched_grid_matches_single_paths(self, models, rng, mid):
        model = models[mid]
        alphas = rng.uniform(0.0, 2 * math.pi, 5)
        h0s = rng.uniform(-3.0, 3.0, 5)
        ends = _batched_endpoints(model, alphas, h0s, 0.7)
        for k in range(5):
            single = _shoot_endpoint(model, alphas[k], h0s[k], 0.7)
            assert np.max(np.abs(ends[k] - single)) <= 1e-13
        # Per-path scale: path k flies the covector ts[k] (cos a, sin a, h0),
        # which ends where the unit covector's flow ends at time ts[k].
        ts = rng.uniform(0.15, 2.0, 5)
        ends = _batched_endpoints(model, alphas, h0s, 1.0, scale=ts)
        for k in range(5):
            single = _shoot_endpoint(model, alphas[k], h0s[k], ts[k])
            assert np.max(np.abs(ends[k] - single)) <= 1e-13
            cov = ts[k] * np.array([math.cos(alphas[k]), math.sin(alphas[k]), h0s[k]])
            flown = integrate_geodesic(model, model.frame, start(model, *cov), 1.0, 2000)
            assert np.max(np.abs(ends[k] - flown.endpoint)) <= 1e-11

    def test_scaling_law_at_equal_steps(self, models, rng, mid):
        # H is quadratic in the covector, so flying t h over time 1 is flying
        # h over time t, the covector scaled by t; RK4 at an equal step count
        # keeps this to rounding.
        model, steps = models[mid], _shoot_steps(1.0)
        for cov, t in zip(generic_covectors(rng, 4), rng.uniform(0.15, 2.0, 4)):
            scaled = [t * c for c in cov]
            unit = integrate_geodesic(model, model.frame, start(model, *scaled), 1.0, steps)
            timed = integrate_geodesic(model, model.frame, start(model, *cov), float(t), steps)
            assert np.max(np.abs(unit.endpoint - timed.endpoint)) <= 1e-12
            assert np.max(np.abs(
                np.array(unit.final_covector) - t * np.array(timed.final_covector)
            )) <= 1e-12

    def test_workload_size_flight(self, models, rng, mid):
        # The benchmark's trajectory op, T = 5 in 5000 steps, crosses block
        # ends.  The covectors are a plain RK4 flight of the vertical
        # subsystem to the bit; the elements agree with coupled RK4 to rounding.
        model, t_final, steps = models[mid], 5.0, 5000
        (cov,) = generic_covectors(rng, 1)
        traj = integrate_geodesic(model, model.frame, start(model, *cov), t_final, steps)
        h, plain = list(cov), [list(cov)]
        for _ in range(steps):
            h = _rk4_step(lambda x: vertical_rhs(model.frame, *x), h, t_final / steps)
            plain.append(h)
        assert np.array_equal(traj.covectors, np.array(plain))
        _, elements, _ = numpy_rk4(model, model.frame, cov, t_final, steps)
        scale = max(1.0, float(np.max(np.abs(elements))))
        assert np.max(np.abs(traj.elements - elements)) <= 1e-12 * scale
        assert traj.hamiltonian_drift() <= 1e-9
        assert traj.max_group_defect <= 1e-8


def expm_oracle(model, u1, u2, u0):
    """exp(u1 A1 + u2 A2 + u0 A0) by scipy's expm: of the matrix, or for
    quaternions of left multiplication by it, applied to 1."""
    m = u1 * model.a1 + u2 * model.a2 + u0 * model.a0
    if model.kind == "quaternion":
        return expm(np.array([quat_mul(m, e) for e in np.eye(4)]).T)[:, 0]
    return expm(m)


class TestExactMaps:
    """GroupModel.exp and the endpoint map against oracles that share no
    code with them: scipy's expm, and RK4 flights of the coupled system."""

    # expm itself is off by up to 5e-14 on a_plus_r's generators, against
    # 40-digit arithmetic; on the other models it keeps to rounding.
    @pytest.mark.parametrize("mid, tol", [("heisenberg", 1e-14), ("a_plus_r", 1e-13),
                                          ("sl2", 1e-14), ("su2", 1e-14)])
    def test_exp_matches_expm(self, models, rng, mid, tol):
        model = models[mid]
        u = rng.uniform(-2.0, 2.0, (40, 3))
        u[:4] = [(0.0, 0.0, 0.0), (1e-9, 0.0, 0.0), (0.0, 0.0, 1e-9), (0.0, 1.0, 1.0)]
        got = model.exp(u[:, 0], u[:, 1], u[:, 2])
        assert got.shape == (40,) + model.identity.shape
        for row, g in zip(u, got):
            want = expm_oracle(model, *row)
            assert np.max(np.abs(g - want)) <= tol * max(1.0, np.max(np.abs(want))), row

    @pytest.mark.parametrize(
        "mid,cov",
        [("heisenberg", (1, 0, 1)), ("a_plus_r", (0.8, 0.6, 0.7)),
         ("sl2", (0.8, 0.6, 0.7)), ("su2", (0.8, 0.6, 0.7))],
    )
    def test_rk4_error_against_the_map_is_order_four(self, models, mid, cov):
        model = models[mid]
        exact = _geodesic_ends(model, math.atan2(cov[1], cov[0]), cov[2], 5.0)

        def error(n):
            traj = integrate_geodesic(model, model.frame, start(model, *cov), 5.0, n)
            return np.linalg.norm(traj.endpoint - exact)

        assert 16.0 * 0.8 <= error(100) / error(200) <= 16.0 * 1.2

    def test_a_plus_r_map_unwraps_z_past_two_pi(self, models):
        # z = 2 phi leaves Psi's principal branch: RK4 ends at z = -8.114,
        # where the principal phi would give z = 4.452; here h0 < 1, so the
        # map's arg of row 1 stays principal and -t h0 / 2 carries z.
        model = models["a_plus_r"]
        flown = integrate_geodesic(model, model.frame, start(model, 0.0, 1.0, 0.9), 12.0, 16000)
        assert flown.endpoint[1, 2] < -2 * math.pi
        got = _geodesic_ends(model, math.pi / 2, 0.9, 12.0)
        assert np.max(np.abs(got - flown.endpoint)) <= 1e-10
        # In a batch, each path's phi is that of its own time.
        batch = _geodesic_ends(model, math.pi / 2, [0.9, 0.9, -0.4], [0.5, 12.0, -9.0])
        for k, (h0, t) in enumerate([(0.9, 0.5), (0.9, 12.0), (-0.4, -9.0)]):
            assert np.max(np.abs(batch[k] - _geodesic_ends(model, math.pi / 2, h0, t))) <= 1e-13

    def test_sign_flips_fail_the_rk4_check(self, models, rk4_ends):
        # test_shoot_endpoint's RK4 check rejects the sl2 and su2 maps with
        # kappa's sign flipped, and the heisenberg map with its second-order
        # Magnus term flipped.
        for mid, flipped_kappa in (("sl2", 1.0), ("su2", -1.0)):
            model = models[mid]

            def flipped(a, h0, t):
                first = model.exp(t * math.cos(a), t * math.sin(a), flipped_kappa * t * h0)
                return model.mul(first, model.exp(0.0, 0.0, -flipped_kappa * t * h0))

            assert map_rk4_gap(rk4_ends[mid], flipped) > 1e-3, mid
        model = models["heisenberg"]

        def flipped_magnus(a, h0, t):
            # g = I + W + W^2 / 2 for W = [[0, I2, w], [0, 0, I1], [0, 0, 0]],
            # so g02 = w + I1 I2 / 2; negate w.
            g = _geodesic_ends(model, a, h0, t).copy()
            g[0, 2] = g[0, 1] * g[1, 2] - g[0, 2]
            return g

        assert map_rk4_gap(rk4_ends["heisenberg"], flipped_magnus) > 1e-3


def reference_ends(model, alpha, h0, t):
    """The endpoint map as products of GroupModel.exp factors, the form
    _geodesic_ends had before its entries were written out: on sl2 and su2
    exp(t (h1 A1 + h2 A2 + kappa h0 A0)) exp(-kappa t h0 A0); on heisenberg
    the exp of the Magnus exponent, with xi(x) = (x - sin x) / x^2 from the
    cancellation-free quadrature (x / 2) int_0^1 s^2 sinc^2(x s / 2) ds; on
    a_plus_r Psi^-1 of the sl2 endpoint on the principal branch, which is
    the right one for |t| <= pi (there |z| <= |t|)."""
    alpha, h0, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, h0, t)))
    h1, h2 = np.cos(alpha), np.sin(alpha)
    if model.id == "heisenberg":
        x = h0 * t
        nodes, weights = np.polynomial.legendre.leggauss(40)
        s = 0.5 * (nodes + 1.0)
        xi = 0.25 * x * np.sum(weights * s * s * np.sinc(np.multiply.outer(x, s) / (2 * np.pi)) ** 2,
                               axis=-1)
        sinc, c = np.sinc(x / np.pi), np.sin(x / 2) * np.sinc(x / (2 * np.pi))
        return model.exp(t * (h1 * sinc + h2 * c), t * (h2 * sinc - h1 * c), 0.5 * t * t * xi)
    if model.id == "a_plus_r":
        from sr3d.isometry import psi_inverse

        g = reference_ends(build_model("sl2"), alpha, h0, t)
        rho, theta, phi = psi_inverse(g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1])
        ends = np.zeros(rho.shape + (3, 3))
        ends[..., 0, 0], ends[..., 0, 2] = rho * np.cos(theta), rho * np.sin(theta)
        ends[..., 1, 1], ends[..., 1, 2], ends[..., 2, 2] = 1.0, 2.0 * phi, 1.0
        return ends
    kappa = -1.0 if model.id == "sl2" else 1.0
    turn = kappa * t * h0
    return model.mul(model.exp(t * h1, t * h2, turn), model.exp(0.0 * t, 0.0 * t, -turn))


class TestWrittenOutKernels:
    """_geodesic_ends writes each model's endpoint out entry by entry; the
    products of GroupModel.exp it replaced (:func:`reference_ends`) and
    16000-step RK4 flights are its references, on seeded batches and at
    every branch edge of the written-out forms."""

    @staticmethod
    def assert_matches_reference(model, alpha, h0, t, tol=1e-14):
        got, want = _geodesic_ends(model, alpha, h0, t), reference_ends(model, alpha, h0, t)
        assert got.shape == want.shape
        gap = np.max(np.abs(got - want), axis=tuple(range(-model.identity.ndim, 0)))
        assert np.all(gap <= tol * np.maximum(1.0, np.max(np.abs(want)))), np.max(gap)

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_seeded_batch(self, models, mid):
        rng = np.random.default_rng(28)
        # a_plus_r's principal-branch reference holds for |t| <= pi.
        t_max = math.pi if mid == "a_plus_r" else 4.0
        alpha, h0 = rng.uniform(0.0, 2 * math.pi, 400), rng.uniform(-3.0, 3.0, 400)
        self.assert_matches_reference(models[mid], alpha, h0, rng.uniform(-t_max, t_max, 400))

    def test_a_plus_r_against_rk4(self, models, rk4_ends):
        model = models["a_plus_r"]
        assert map_rk4_gap(rk4_ends["a_plus_r"], lambda a, h0, t: _geodesic_ends(model, a, h0, t)) <= 1e-11

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_zero_time_and_zero_h0(self, models, mid):
        model = models[mid]
        alpha = np.linspace(0.0, 2 * math.pi, 7)
        assert np.array_equal(_geodesic_ends(model, alpha, 0.7, 0.0),
                              np.broadcast_to(model.identity, (7,) + model.identity.shape))
        self.assert_matches_reference(model, alpha, 0.0, np.linspace(-3.0, 3.0, 7))

    @pytest.mark.parametrize("h0", [1.0, 1.0 - 1e-9, 1.0 + 1e-9, -1.0, -1.0 + 1e-9, -1.0 - 1e-9])
    def test_sl2_where_cosh_meets_cos(self, models, h0):
        # q = t^2 (1 - h0^2) / 4 changes sign at |h0| = 1, where c = d = 1.
        alpha, t = np.linspace(0.0, 2 * math.pi, 9), np.linspace(-4.0, 4.0, 9)
        self.assert_matches_reference(models["sl2"], alpha, h0, t)

    @pytest.mark.parametrize("x", [0.1, 0.1 - 1e-12, 0.1 + 1e-12])
    def test_heisenberg_at_the_series_switch(self, models, x):
        alpha, t = np.linspace(0.0, 2 * math.pi, 8), np.array([0.5, -0.5, 2.0, -2.0] * 2)
        for sign in (1.0, -1.0):
            self.assert_matches_reference(models["heisenberg"], alpha, sign * x / t, t)

    @pytest.mark.parametrize("t", [math.pi - 1e-9, math.pi + 1e-9, -math.pi - 1e-9])
    def test_a_plus_r_where_one_sample_becomes_two(self, models, t):
        # At |t| = pi one principal-branch sample of phi stops being enough:
        # the reference reads phi on Psi's principal branch, which |z| <= |t|
        # keeps it on up to |t| = pi, and the map must meet it on both sides.
        # Here |h0| <= 3, so row 1 makes at most one half-turn (m <= 1).
        alpha, h0 = np.linspace(0.0, 2 * math.pi, 12), np.linspace(-3.0, 3.0, 12)
        self.assert_matches_reference(models["a_plus_r"], alpha, h0, t)
        single = [_geodesic_ends(models["a_plus_r"], a, h, t) for a, h in zip(alpha, h0)]
        assert np.array_equal(np.array(single), _geodesic_ends(models["a_plus_r"], alpha, h0, t))

    def test_a_plus_r_on_long_flights(self, models):
        # Past |t| = pi nothing keeps phi principal.  Three hyperbolic paths
        # (|h0| < 1: no conjugate point bounds t) at t in [24, 40], and one
        # elliptic path at negative t whose row 1 makes 13 half-turns, each
        # against 20000-step RK4.
        model, rng = models["a_plus_r"], np.random.default_rng(29)
        cases = [(rng.uniform(0.0, 2 * math.pi), rng.uniform(-1.0, 1.0), rng.uniform(24.0, 40.0))
                 for _ in range(3)]
        cases.append((rng.uniform(0.0, 2 * math.pi), rng.uniform(2.5, 3.0), -rng.uniform(28.0, 32.0)))
        for alpha, h0, t in cases:
            cov = start(model, math.cos(alpha), math.sin(alpha), h0)
            want = integrate_geodesic(model, model.frame, cov, t, 20000).endpoint
            gap = np.abs(_geodesic_ends(model, alpha, h0, t) - want) / (1.0 + np.abs(want))
            assert np.max(gap) <= 1e-9, (alpha, h0, t, np.max(gap))

    def test_a_plus_r_on_very_long_hyperbolic_flights(self, models):
        # At h0 = 0 entry (0, 2) tends to h2 / (1 + h1).  |row 1|^2 overflows
        # past t ~ 710, but the entry must stay at its limit, with no
        # warning, until cosh(t / 2) itself overflows.
        model, alpha = models["a_plus_r"], 0.7
        limit = math.sin(alpha) / (1.0 + math.cos(alpha))
        t = np.array([600.0, 710.0, 720.0, 1000.0, 1400.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = _geodesic_ends(model, alpha, 0.0, t)
            single = [_geodesic_ends(model, alpha, 0.0, s) for s in t]
        assert np.array_equal(np.array(single), ends)
        assert np.max(np.abs(ends[:, 0, 2] - limit)) <= 1e-12, ends[:, 0, 2]

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_a_plus_r_where_the_half_turn_count_switches(self, models, m):
        # m = rint(sqrt(-q) / pi) steps up at sqrt(-q) / pi = m + 1/2; the
        # endpoint moves by O(1e-8) across it, at either sign of t and of
        # h2 + h0, and single calls are the batch's to the bit.
        model = models["a_plus_r"]
        alpha = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
        h0 = np.array([1.5, -2.5, 3.0, -1.2, 1.05, -3.0, 2.0, -1.7])
        sign = np.array([1.0, 1.0, -1.0, -1.0] * 2)
        sides = []
        for offset in (-1e-9, 1e-9):
            t = sign * 2 * math.pi * (m + 0.5 + offset) / np.sqrt(h0 * h0 - 1.0)
            ends = _geodesic_ends(model, alpha, h0, t)
            single = [_geodesic_ends(model, a, h, s) for a, h, s in zip(alpha, h0, t)]
            assert np.array_equal(np.array(single), ends)
            sides.append(ends)
        assert np.max(np.abs(sides[1] - sides[0]) / (1.0 + np.abs(sides[0]))) <= 1e-7

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_non_finite_inputs_are_carried_without_warnings(self, models, mid):
        bad = [math.nan, math.inf, -math.inf]
        h0 = np.array(bad + [0.3, 0.3, 0.3, 0.3])
        t = np.array([0.5, 0.5, 0.5] + bad + [0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = _geodesic_ends(models[mid], 0.7, h0, t)
        finite = np.isfinite(ends.reshape(7, -1)).all(axis=1)
        assert not finite[:6].any() and finite[6]
        assert np.array_equal(ends[6], _geodesic_ends(models[mid], 0.7, 0.3, 0.5))


def test_a_plus_r_map_does_not_import_the_isometry():
    # geodesics sits wholly below isometry: the a_plus_r map reads Psi^-1
    # in closed form, so a fresh interpreter never loads sr3d.isometry.
    script = (
        "import sys\n"
        "from sr3d import geodesics\n"
        "model = geodesics.build_model('a_plus_r')\n"
        "geodesics._geodesic_ends(model, [0.3, 1.0], [0.7, 2.5], [1.2, 30.0])\n"
        "print('sr3d.isometry' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_written_out_covector_step_is_rk4_step_to_the_bit(models, rng):
    # _split_flight writes _rk4_step's stages out on three floats; on every
    # catalog frame, turned so that c12 != 0 occurs, the covectors must be
    # _rk4_step's to the bit.  test_workload_size_flight is the long oracle.
    model, steps, c12_seen = models["heisenberg"], 300, False
    for entry in catalog():
        for theta in rng.uniform(0.0, 2 * math.pi, 2):
            frame = rotate_frame(reeb_frame(entry.structure), theta)
            c12_seen |= frame.c12_1 != 0.0 or frame.c12_2 != 0.0
            cov, dt = rng.uniform(-1.5, 1.5, 3), float(rng.uniform(0.5, 3.0)) / steps
            hs = np.empty((steps + 1, 3))
            gs = np.empty((steps + 1,) + model.identity.shape)
            hs[0], gs[0] = cov, model.identity
            _split_flight(model, frame, hs, gs, dt)
            h, plain = cov.tolist(), [cov.tolist()]
            for _ in range(steps):
                h = _rk4_step(lambda x: vertical_rhs(frame, *x), h, dt)
                plain.append(h)
            assert np.array_equal(hs, np.array(plain)), (entry.name, theta)
    assert c12_seen


def test_integration_uses_the_frame_argument(models, rng):
    # a_plus_r is the model whose frame constants a rotation changes, so
    # propagators built from model.frame would leave the reference.
    model = models["a_plus_r"]
    frame = rotate_frame(model.frame, 0.7)
    assert frame.constants != model.frame.constants
    for cov in generic_covectors(rng, 2):
        traj = integrate_geodesic(model, frame, start(model, *cov), 2.0, 400)
        covectors, elements, _ = numpy_rk4(model, frame, cov, 2.0, 400)
        assert np.max(np.abs(traj.covectors - covectors)) <= 1e-13
        assert np.max(np.abs(traj.elements - elements)) <= 1e-13


def test_blow_up_stops_within_one_block(models, monkeypatch):
    # dt = 1e5 goes non-finite at step 3 of 10**6: the flight stops after
    # the block holding that step, four covector slopes a step.
    model, cov, t_final, steps = models["sl2"], (0.8, 0.6, 0.7), 1e11, 10**6
    with pytest.raises(IntegrationBlowUpError) as want:
        numpy_rk4(model, model.frame, cov, t_final, steps)
    scalar_calls = 0

    def counting(frame, h1, h2, h0):
        nonlocal scalar_calls
        scalar_calls += isinstance(h1, float)
        return vertical_rhs(frame, h1, h2, h0)

    monkeypatch.setattr(geodesics, "vertical_rhs", counting)
    with pytest.raises(IntegrationBlowUpError) as got:
        integrate_geodesic(model, model.frame, start(model, *cov), t_final, steps)
    assert got.value.step == want.value.step
    assert scalar_calls <= 4 * (got.value.step + _BLOCK)


def test_flights_call_the_module_vertical_rhs(models, monkeypatch):
    # vertical_rhs is the covector equations' one home and a mutation hook:
    # a flight must call it through the module global, so flipping the sign
    # of dh0 must move both the covectors and the endpoints.  On the four
    # models' own frames dh0 is 0, so the flights use se2's frame, on which
    # dh0 = -h1 h2.
    frame = reeb_frame(catalog_entry("se2").structure)
    model = dataclasses.replace(models["sl2"], frame=frame)
    state = start(model, 0.8, 0.6, 0.7)

    def flights():
        traj = integrate_geodesic(model, frame, state, 2.0, 400)
        return traj.covectors, traj.endpoint

    before = flights()

    def flipped(frame, h1, h2, h0):
        dh1, dh2, dh0 = vertical_rhs(frame, h1, h2, h0)
        return dh1, dh2, -dh0

    monkeypatch.setattr(geodesics, "vertical_rhs", flipped)
    for old, new in zip(before, flights()):
        assert np.max(np.abs(old - new)) > 1e-3


@pytest.mark.parametrize("mid", ["su2"])
def test_flight_memory_is_the_result_plus_a_block(models, mid):
    # 40 000 steps, not more, since tracemalloc slows the flight ~10x; an
    # unblocked flight already peaks at ~7x the result here.  The a_plus_r
    # flight is bounded more tightly by the group-defect test below.
    model = models[mid]
    tracemalloc.start()
    try:
        traj = integrate_geodesic(model, model.frame, start(model, 0.8, 0.6, 0.7), 5.0, 40000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (traj.covectors.nbytes + traj.elements.nbytes) + 8 * 10**6


def test_group_defect_adds_no_trajectory_sized_temporary(models):
    # The peak over the returned arrays is one block's working set (~1 MB
    # here), whatever the step count; a defect taken over the whole
    # trajectory at the end adds ~0.9x the elements on top.
    model = models["a_plus_r"]
    tracemalloc.start()
    try:
        traj = integrate_geodesic(model, model.frame, start(model, 0.8, 0.6, 0.7), 5.0, 40000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = traj.times.nbytes + traj.covectors.nbytes + traj.elements.nbytes
    assert peak <= result + 2 * 10**6
    assert traj.max_group_defect == model.group_defect(traj.elements)


@pytest.mark.parametrize(
    "mid,cov,t_final,steps",
    [("a_plus_r", (1.0, 0.0, 0.0), 2000.0, 100),
     ("sl2", (0.8, 0.6, 0.7), 1e6, 10),
     ("su2", (1e200, 1e200, 1e200), 1.0, 10)],
)
def test_blow_up_step_matches_numpy(models, mid, cov, t_final, steps):
    model = models[mid]
    with pytest.raises(IntegrationBlowUpError) as want:
        numpy_rk4(model, model.frame, cov, t_final, steps)
    with pytest.raises(IntegrationBlowUpError) as got:
        integrate_geodesic(model, model.frame, start(model, *cov), t_final, steps)
    assert got.value.step == want.value.step


class TestControls:
    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_matches_expm_product(self, models, rng, mid):
        # Each segment's flow is exactly its exponential; scipy's expm shares
        # no code with GroupModel.exp.
        model = models[mid]
        for _ in range(12):
            n_seg = int(rng.integers(1, 6))
            schedule = rng.uniform(-2.0, 2.0, (n_seg, 3))
            t_final = float(rng.uniform(0.5, 2.0))
            want = model.identity
            for row in schedule:
                want = model.mul(want, expm_oracle(model, *(t_final / n_seg * row)))
            got = integrate_controls(model, schedule, t_final)
            assert got.shape == model.identity.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 240, 1023])
    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_powered_segments_match_stepped_reference(self, models, rng, mid, steps):
        # A segment's flow exp(t M) is the power exp(t M / n)^n: each segment
        # flown as n equal ones, one after another, ends where it ends.
        model = models[mid]
        for n_seg in range(1, 6):
            schedule = [tuple(rng.uniform(-2.0, 2.0, size=3)) for _ in range(n_seg)]
            t_final = float(rng.uniform(0.5, 2.0))
            got = integrate_controls(model, schedule, t_final)
            want = integrate_controls(model, [u for u in schedule for _ in range(steps)], t_final)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), schedule

    def test_non_finite_factor_names_its_segment(self, models):
        schedule = [(0.0, 0.0, 0.0), (1e300, 1e300, 1e300), (0.0, 0.0, 0.0)]
        with pytest.raises(IntegrationBlowUpError) as err:
            integrate_controls(models["sl2"], schedule, 1.0)
        assert err.value.step == 2
        assert "in segment 2" in str(err.value)

    def test_overflowing_product_names_its_segment(self, models):
        # Each factor diag(e^500, e^-500) is finite; the product of the
        # first two is not.
        schedule = [(1000.0, 0.0, 0.0)] * 3
        with pytest.raises(IntegrationBlowUpError) as err:
            integrate_controls(models["sl2"], schedule, 3.0)
        assert err.value.step == 2
        assert "in segment 2" in str(err.value)

    def test_zero_controls_stay_at_identity(self, models):
        for model in models.values():
            end = integrate_controls(model, [(0.0, 0.0, 0.0)], 1.0)
            assert np.max(np.abs(end - model.identity)) == 0.0

    def test_pure_transverse_control_is_rotation_block(self, models):
        model = models["sl2"]
        end = integrate_controls(model, [(0.0, 0.0, 1.0)], 0.7)
        assert np.max(np.abs(end - expm(0.7 * model.a0))) <= 1e-12
        # a0 = -g3 generates a rotation at half speed
        expected = np.array(
            [[math.cos(0.35), -math.sin(0.35)], [math.sin(0.35), math.cos(0.35)]]
        )
        assert np.max(np.abs(end - expected)) <= 1e-12

    def test_sequential_controls_compose_exponentials_on_the_right(self, models):
        model = models["heisenberg"]
        end = integrate_controls(model, [(1, 0, 0), (0, 1, 0)], 2.0)
        assert np.max(np.abs(end - expm(model.a1) @ expm(model.a2))) <= 1e-12

    def test_empty_schedule_rejected(self, models):
        with pytest.raises(ValueError):
            integrate_controls(models["sl2"], [], 1.0)


class TestShooting:
    def test_identity_target(self, models):
        result = shoot_distance(models["heisenberg"], models["heisenberg"].identity)
        assert result.distance == 0.0 and result.converged

    def test_flat_one_parameter_subgroup(self, models):
        model = models["heisenberg"]
        result = shoot_distance(model, expm(model.a1))
        assert result.converged
        assert result.distance == pytest.approx(1.0, abs=1e-6)
        # Oracle: no arc of length <= 0.95 comes close to the target.
        alphas = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        h0s = np.linspace(-3, 3, 13)
        ga, gh = np.meshgrid(alphas, h0s, indexing="ij")
        target = expm(model.a1).ravel()
        for t in np.linspace(0.2, 0.95, 6):
            ends = _batched_endpoints(model, ga.ravel(), gh.ravel(), float(t))
            errs = np.linalg.norm(ends.reshape(ends.shape[0], -1) - target, axis=1)
            assert errs.min() > 5e-2

    @pytest.mark.parametrize("target", [[1.0, 0.0, 0.0], [[float("nan"), 0.0], [0.0, 1.0]],
                                        [[1.0, 0.0], [0.0, float("inf")]],
                                        [[1e300, 0.0], [0.0, 1e-300]],
                                        [[1.0, 2.0], [0.5, 1.0]], [[1.0, 0.0], [0.0, 1.001]]])
    def test_bad_target_fails_before_the_grid(self, models, monkeypatch, target):
        def grid(*args):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(geodesics, "_batched_endpoints", grid)
        with pytest.raises(ValueError):
            shoot_distance(models["sl2"], target)

    # No endpoint comes within HIT_TOLERANCE of these (sl2's are above): the
    # search would run and report no convergence.
    @pytest.mark.parametrize("mid, target, message", [
        ("su2", [0.0, 0.0, 0.0, 0.0], "off the su2 group"),
        ("heisenberg", [[1.0, 0.2, 0.1], [0.0, 1.0, 0.3], [0.0, 1e-3, 1.0]], "off the heisenberg"),
        ("a_plus_r", [[-1.0, 0.0, 0.2], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]], r"entry \(0, 0\)"),
        ("a_plus_r", [[0.0, 0.0, 0.2], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]], r"entry \(0, 0\)"),
    ])
    def test_off_group_target_fails_before_the_grid(self, models, monkeypatch, mid, target,
                                                     message):
        def grid(*args):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(geodesics, "_batched_endpoints", grid)
        with pytest.raises(ValueError, match=message):
            shoot_distance(models[mid], target)

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_targets_near_the_group_are_searched(self, models, mid):
        # A defect of 1e-8, far below the bound, is a reachable target: an
        # endpoint 1e-8 away is a hit.
        model = models[mid]
        target = np.array(_geodesic_ends(model, 0.7, 0.4, 0.3))
        target.flat[-1] += 1e-8
        assert 0.0 < model.group_defect(target) <= 2e-8
        result = shoot_distance(model, target)
        assert result.converged and abs(result.distance - 0.3) <= 1e-6

    @pytest.mark.parametrize("budget", [0, -3])
    def test_bad_budget_fails_before_the_target_check(self, models, monkeypatch, budget):
        def grid(*args):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(geodesics, "_batched_endpoints", grid)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            shoot_distance(models["sl2"], [1.0, 0.0, 0.0], budget=budget)

    def test_minimize_is_this_modules_levenberg_marquardt(self):
        assert minimize.__module__ == "sr3d.geodesics"
        with pytest.raises(AttributeError):
            geodesics.no_such_name
        res = minimize(lambda x: np.stack([x[..., 0] - 1.0, x[..., 1] + 2.0, x[..., 2] - 3.0], -1),
                       np.array([0.0, 0.0, 1.0]))
        assert res._fields == ("x", "fun", "nit", "nfev", "success", "message")
        assert res.success and res.fun <= 1e-14
        assert np.allclose(res.x, [1.0, -2.0, 3.0], rtol=0.0, atol=1e-14)

    def test_refinement_calls_the_module_minimize_once_per_start(self, models, monkeypatch):
        budgets = []

        def counting(*args, **kwargs):
            budgets.append(kwargs["maxiter"])
            return minimize(*args, **kwargs)

        monkeypatch.setattr(geodesics, "minimize", counting)
        model = models["heisenberg"]
        shoot_distance(model, expm(0.3 * model.a1), budget=5)
        assert budgets == [5, 5, 5]

    def test_refinement_evaluations_and_result_contract(self, models, monkeypatch):
        times, batches, starts = [], [], []
        real_endpoint, real_batch = _shoot_endpoint, _batched_endpoints

        def endpoint(model, alpha, h0, t):
            times.append(t)
            return real_endpoint(model, alpha, h0, t)

        def batch(model, alphas, h0s, t, scale=1.0):
            batches.append(np.multiply(scale, t))
            return real_batch(model, alphas, h0s, t, scale=scale)

        def checked(fun, x0, **kwargs):
            calls = []  # (point, residual) for every row evaluated

            def counted(x):
                r = fun(x)
                calls.extend(zip(np.atleast_2d(x).copy(), np.atleast_2d(r)))
                return r

            res = minimize(counted, x0, **kwargs)
            assert res.nfev == len(calls)
            assert 1 <= res.nit <= kwargs["maxiter"]
            r = next(r for x, r in calls if np.array_equal(x, res.x))
            assert res.fun == pytest.approx(np.linalg.norm(r), rel=1e-12)
            starts.append(res)
            return res

        monkeypatch.setattr(geodesics, "_shoot_endpoint", endpoint)
        monkeypatch.setattr(geodesics, "_batched_endpoints", batch)
        monkeypatch.setattr(geodesics, "minimize", checked)
        rng = np.random.default_rng(8)
        for mid in MODEL_IDS * 2:
            model = models[mid]
            alpha, h0 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0)
            length = rng.uniform(0.25, 0.35)
            cov = start(model, math.cos(alpha), math.sin(alpha), h0)
            target = integrate_geodesic(model, model.frame, cov, length, 400).endpoint
            del times[:], batches[:]
            result = shoot_distance(model, target)
            assert result.converged, (mid, result)
            assert result.distance == pytest.approx(length, abs=1e-6)
            # Every refinement path, single or in a Jacobian batch (the grid
            # is the first batch), is one point counted in some start's nfev.
            times += [t for b in batches[1:] for t in b]
            assert len(times) == sum(res.nfev for res in starts[-3:])
            assert len(times) <= 200, (mid, len(times))
            assert min(times) > 0.0
        assert len(starts) == 3 * 8

    def test_singular_damped_system_rejects_the_step(self):
        # The residual ignores x[1], so J^T J + lam diag(J^T J) is singular
        # for every lam: each trial is rejected without a residual call.
        res = minimize(lambda x: np.stack([x[..., 0] - 1.0, x[..., 2] - 2.0], -1),
                       np.array([0.0, 0.0, 1.0]), maxiter=50)
        assert (res.nit, res.nfev) == (1, 4)
        assert np.array_equal(res.x, [0.0, 0.0, 1.0]) and res.fun == math.sqrt(2.0)

    # Every LM start of the 80 distance-benchmark queries of seeds 7919 and
    # 1-9, drawn as the benchmark draws them but aimed at the exact endpoint
    # of each seeded geodesic: per-model (nit, nfev) sums, and a digest of
    # the 240 (nit, nfev, message) triples in query and start order.
    _LM_PATH_SUMS = {"heisenberg": (504, 2076), "a_plus_r": (452, 1868),
                     "sl2": (485, 2000), "su2": (436, 1804)}
    _LM_PATH_DIGEST = "456f6a2af3fc12ea"

    def test_lm_paths_of_the_distance_queries_are_pinned(self, models, monkeypatch):
        paths = []

        def refine(fun, x0, **kwargs):
            res = minimize(fun, x0, **kwargs)
            paths.append((res.nit, res.nfev, res.message))
            return res

        monkeypatch.setattr(geodesics, "minimize", refine)
        sums = dict.fromkeys(MODEL_IDS, (0, 0))
        for seed in (7919, *range(1, 10)):
            rng = np.random.default_rng([seed, 4])
            for mid in MODEL_IDS * 2:
                model = models[mid]
                alpha, h0 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0)
                length = rng.uniform(0.25, 0.35)
                result = shoot_distance(model, _geodesic_ends(model, alpha, h0, length))
                assert result.converged and abs(result.distance - length) <= 1e-13, (seed, mid)
                nit, nfev = sums[mid]
                sums[mid] = (nit + sum(p[0] for p in paths[-3:]), nfev + sum(p[1] for p in paths[-3:]))
        assert len(paths) == 240
        assert {message for _, _, message in paths} == {"residual norm at most 1e-14"}
        assert sums == self._LM_PATH_SUMS
        assert hashlib.sha256(repr(paths).encode()).hexdigest()[:16] == self._LM_PATH_DIGEST

    def test_heisenberg_distance_scales_with_the_dilation(self, models):
        # The dilation delta_lam scales A1, A2 by lam and A0 by lam^2, so
        # entries (0, 1), (1, 2) of g by lam and (0, 2) by lam^2: a group
        # automorphism that scales every horizontal length by lam, so
        # d(delta_lam g) = lam d(g), with no oracle beyond shooting itself.
        model = models["heisenberg"]
        rng = np.random.default_rng(12)
        for _ in range(20):
            alpha, h0 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0)
            target = _geodesic_ends(model, alpha, h0, rng.uniform(0.25, 0.35))
            base = shoot_distance(model, target)
            assert base.converged
            for lam in (0.6, 2.0, 5.0):
                dilation = np.array([[1.0, lam, lam * lam], [1.0, 1.0, lam], [1.0, 1.0, 1.0]])
                result = shoot_distance(model, target * dilation)
                assert result.converged, (alpha, h0, lam)
                assert abs(result.distance - lam * base.distance) <= 1e-12 * lam * base.distance

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_residual_norm_is_no_success_and_no_warning(self):
        # |r|^2 overflows a float for |r| above ~1.3e154 though r is finite.
        res = minimize(lambda x: np.array([1e200, 0.0]), np.array([0.0, 0.0, 1.0]))
        assert (res.success, res.message) == (False, "|r|^2 is NaN or inf")
        assert (res.nit, res.nfev) == (0, 1) and res.fun == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_is_no_success(self, bad):
        x0 = np.array([0.0, 0.0, 1.0])
        res = minimize(lambda x: np.array([bad, 0.0]), x0)
        assert (res.success, res.message) == (False, "|r|^2 is NaN or inf")
        assert (res.nit, res.nfev) == (0, 1) and not math.isfinite(res.fun)
        # Finite at x0 only: every Jacobian point gives a non-finite row.
        res = minimize(lambda x: np.stack([np.where(x[..., 0] == 0.0, 1.0, bad), x[..., 1]], -1), x0)
        assert (res.success, res.message) == (False, "the Jacobian is NaN or inf")
        assert (res.nit, res.nfev) == (1, 4)
        assert np.array_equal(res.x, x0) and res.fun == 1.0

    def test_heisenberg_distances_match_the_closed_form(self, models):
        # An oracle that shares no code with shooting.  Read (X, Y, Z) off
        # log g = N - N^2/2 (N = g - I, N^3 = 0) on (A1, A2, A0), and let
        # r = |(X, Y)|.  The minimizing geodesic turns by phi, where
        # (phi - sin phi) / (8 sin^2(phi/2)) = |Z| / r^2, and has length
        # phi r / (2 sin(phi/2)).
        model = models["heisenberg"]
        entries = (0, 1, 0), (1, 2, 2)
        basis = np.array([model.a1, model.a2, model.a0])[(slice(None),) + entries].T

        def oracle(g):
            n = g - np.eye(3)
            x, y, z = np.linalg.solve(basis, (n - n @ n / 2)[entries])
            r = math.hypot(x, y)
            lo, hi = 0.0, 2.0 * math.pi
            for _ in range(200):
                phi = 0.5 * (lo + hi)
                if (phi - math.sin(phi)) / (8.0 * math.sin(phi / 2) ** 2) < abs(z) / r ** 2:
                    lo = phi
                else:
                    hi = phi
            return phi * r / (2.0 * math.sin(phi / 2))

        rng = np.random.default_rng(7)
        for _ in range(40):
            alpha, h0 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0)
            target = _geodesic_ends(model, alpha, h0, rng.uniform(0.25, 0.35))
            result = shoot_distance(model, target)
            assert result.converged
            assert abs(result.distance - oracle(target)) <= 1e-10, (alpha, h0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mid, z, distance, max_paths", [
        ("heisenberg", 0.05, None, 664),
        ("heisenberg", 0.1, None, 652),
        ("heisenberg", 0.3, 1.9416259126, 821),
        ("sl2", 0.05, None, 710),
        ("sl2", 0.1, None, 705),
        ("sl2", 0.3, 1.9646657598, 803),
    ])
    def test_near_vertical_targets(self, models, monkeypatch, mid, z, distance, max_paths):
        # exp(z A0) lies on the vertical axis.  Below z = 0.3 its minimisers
        # need |h0| beyond the search box, so the search must end unconverged
        # without raising, at no more refinement endpoint paths than the
        # Nelder-Mead refinement this replaced evaluated.  The Heisenberg
        # distance is the closed form sqrt(4 pi z), the sl2 one a recorded run.
        model = models[mid]
        paths = []

        def endpoint(*args):
            paths.append(1)
            return _shoot_endpoint(*args)

        def batch(model, alphas, *args, **kwargs):
            paths.append(np.size(alphas))
            return _batched_endpoints(model, alphas, *args, **kwargs)

        monkeypatch.setattr(geodesics, "_shoot_endpoint", endpoint)
        monkeypatch.setattr(geodesics, "_batched_endpoints", batch)
        result = shoot_distance(model, expm(z * model.a0))
        assert paths[0] == 1080  # the grid, which the bound leaves out
        assert sum(paths[1:]) <= max_paths
        if distance is None:
            assert not result.converged
        else:
            assert result.converged
            tol = 1e-9 if mid == "heisenberg" else 1e-6
            assert result.distance == pytest.approx(distance, abs=tol)

    def test_non_finite_endpoint_raises(self, models):
        with pytest.raises(IntegrationBlowUpError) as err:
            _shoot_endpoint(models["sl2"], 0.3, 1e200, 1.0)
        assert err.value.step == _shoot_steps(1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_grid_raises_without_warnings(self, models, monkeypatch):
        model = models["sl2"]
        with pytest.raises(IntegrationBlowUpError) as err:
            _batched_endpoints(model, [0.3, 0.4], [1e200, 0.0], 1.0)
        assert err.value.step == _shoot_steps(1.0)
        monkeypatch.setattr(geodesics, "_GRID_H0_MAX", 1e200)
        with pytest.raises(IntegrationBlowUpError) as err:
            shoot_distance(model, expm(0.3 * model.a1))
        assert err.value.step == _shoot_steps(1.0)

    def test_grid_is_one_unit_time_batch_ranking_as_a_per_t_loop(self, models, monkeypatch):
        grid_calls, starts = [], []

        def grid(model, alphas, h0s, t, **kwargs):
            grid_calls.append((np.size(alphas), t))
            return _batched_endpoints(model, alphas, h0s, t, **kwargs)

        def refine(fun, x0, **kwargs):
            res = minimize(fun, x0, **kwargs)
            starts.append((tuple(x0), res.nit))
            return res

        monkeypatch.setattr(geodesics, "_batched_endpoints", grid)
        monkeypatch.setattr(geodesics, "minimize", refine)
        # One target per model, drawn as the distance benchmark draws them.
        rng = np.random.default_rng([1, 4])
        alphas = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        ga, gh = (x.ravel() for x in np.meshgrid(alphas, np.linspace(-3.0, 3.0, 9), indexing="ij"))
        for mid in MODEL_IDS:
            model = models[mid]
            alpha, h0 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0)
            length = rng.uniform(0.25, 0.35)
            cov = start(model, math.cos(alpha), math.sin(alpha), h0)
            target = integrate_geodesic(model, model.frame, cov, length, 2000).endpoint
            del grid_calls[:], starts[:]
            assert shoot_distance(model, target).converged
            # The grid, then one 3-row Jacobian batch per LM iteration.
            nit = sum(n for _, n in starts)
            assert grid_calls == [(1080, 1.0)] + [(3, 1.0)] * nit, mid
            per_t = []
            for k, t in enumerate(np.linspace(0.15, 2.0, 10)):
                ends = _batched_endpoints(model, ga, gh, float(t))
                errs = np.linalg.norm(ends.reshape(ga.size, -1) - target.ravel(), axis=1)
                per_t += [(errs[i], i, k, ga[i], gh[i], t) for i in range(ga.size)]
            assert [x0 for x0, _ in starts] == [c[3:] for c in sorted(per_t)[:3]], mid

    def test_deterministic(self, models):
        model = models["heisenberg"]
        r1 = shoot_distance(model, expm(model.a1))
        r2 = shoot_distance(model, expm(model.a1))
        assert r1 == r2

    def test_distances_agree_through_the_isometry(self, models):
        # The explicit isometry maps the affine model to SL(2); shooting on
        # both sides toward matched targets must estimate equal distances.
        ma, ms = models["a_plus_r"], models["sl2"]
        cases = [
            (1.0, 0.0, 0.5, 0.30),
            (0.6, 0.8, -0.4, 0.35),
            (0.0, 1.0, 1.0, 0.25),
            (-0.8, 0.6, 0.0, 0.30),
            (0.7, -0.7, -0.8, 0.28),
        ]
        for h1, h2, h0, t_final in cases:
            qa = integrate_geodesic(
                ma, ma.frame, start(ma, h1, h2, h0), t_final, 2000
            ).endpoint
            ra = shoot_distance(ma, qa)
            rs = shoot_distance(ms, psi_of_apoint(matrix_to_apoint(qa)))
            assert ra.converged and rs.converged
            assert abs(ra.distance - rs.distance) <= 1e-4


class TestDampedStep:
    """minimize's damped 3x3 solve on floats, against LAPACK on the same
    damped matrix."""

    _OPEN = (1e300,) * 3  # a finite cap that no step here reaches

    @staticmethod
    def system(rng, cond, symmetric):
        # Singular values from 1 down to 1/cond, at a random overall scale;
        # a symmetric system is positive definite.
        left = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        right = left if symmetric else np.linalg.qr(rng.standard_normal((3, 3)))[0]
        return (left * np.geomspace(1.0, 1.0 / cond, 3) * 10.0 ** rng.uniform(-3.0, 3.0)) @ right.T

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_agrees_with_lapack_to_the_condition_number(self, symmetric):
        # Cramer's rule is not forward stable: on these spectra its error
        # grows like kappa^1.5 eps (4e2 kappa eps at kappa = 1e8), where
        # LAPACK's LU stays within ~kappa eps of the exact solution.
        rng = np.random.default_rng(33)
        for cond in 10.0 ** np.arange(9):
            for lam in (0.0, 1e-3, 1.0, 1e3):
                for _ in range(20):
                    a, grad = self.system(rng, cond, symmetric), rng.standard_normal(3)
                    damped = a + lam * np.diag(np.diag(a))
                    want = np.linalg.solve(damped, -grad)
                    got = np.array(_damped_step(a.tolist(), grad.tolist(), lam, self._OPEN))
                    kappa = np.linalg.cond(damped)
                    tol = 8.0 * kappa * math.sqrt(kappa) * np.finfo(float).eps * np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= tol, (cond, lam)

    def test_cap_bounds_each_component(self):
        a, grad = np.diag([1.0, 2.0, 4.0]).tolist(), [-1.0, -1.0, -1.0]
        assert _damped_step(a, grad, 0.0, (1.0, 0.5, 0.25)) == (1.0, 0.5, 0.25)
        for i in range(3):
            cap = [1.0, 0.5, 0.25]
            cap[i] = np.nextafter(cap[i], 0.0)
            assert _damped_step(a, grad, 0.0, tuple(cap)) is None

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1e8])
    def test_zero_row_and_column_is_singular(self, lam):
        a = self.system(np.random.default_rng(4), 10.0, True)
        a[1, :] = a[:, 1] = 0.0
        assert _damped_step(a.tolist(), [1.0, 0.0, 1.0], lam, self._OPEN) is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejects_without_raising(self, bad):
        a = self.system(np.random.default_rng(5), 10.0, True)
        grad = [0.5, -0.25, 1.0]
        for i, j in np.ndindex(3, 3):
            spoilt = a.copy()
            spoilt[i, j] = bad
            assert _damped_step(spoilt.tolist(), grad, 1e-3, self._OPEN) is None, (i, j)
        for i in range(3):
            spoilt = list(grad)
            spoilt[i] = bad
            assert _damped_step(a.tolist(), spoilt, 1e-3, self._OPEN) is None, i


class TestCsvExport:
    def test_header_and_rows(self, models):
        model = models["sl2"]
        traj = integrate_geodesic(model, model.frame, start(model, 1, 0, 0), 1.0, 10)
        buffer = io.StringIO()
        trajectory_to_csv(traj, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "t,h1,h2,h0,g00,g01,g10,g11"
        assert len(lines) == 12  # header + 11 samples
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[4]) == 1.0


class TestNonFiniteFlights:
    """No float input makes a flight return non-finite values silently, raise
    an undocumented error or emit a RuntimeWarning."""

    # All floats, so ±inf, NaN and 1e±308 among them, and those drawn often.
    _ANY = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308])
    # _shoot_endpoint flies ~80 t steps: a large finite t is a long flight,
    # not a bad input, so its finite times stay small.
    _TIME = st.floats(-4.0, 4.0) | st.sampled_from(
        [math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308]
    )

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(mid=st.sampled_from(MODEL_IDS), h1=_ANY, h2=_ANY, h0=_ANY, t=_ANY)
    def test_integrate_geodesic(self, models, mid, h1, h2, h0, t):
        model = models[mid]

        def fly():
            traj = integrate_geodesic(model, model.frame, start(model, h1, h2, h0), t, 8)
            return traj.covectors, traj.elements

        finite_or_documented(fly)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(mid=st.sampled_from(MODEL_IDS), alpha=_ANY, h0=_ANY, t=_TIME)
    def test_shoot_endpoint(self, models, mid, alpha, h0, t):
        model = models[mid]
        finite_or_documented(lambda: (_shoot_endpoint(model, alpha, h0, t),))

    @pytest.mark.parametrize("t", [math.inf, -math.inf, 1e308, math.nan])
    def test_unflyable_time_is_a_value_error(self, models, t):
        with pytest.raises(ValueError, match="flight time must be finite"):
            _shoot_endpoint(models["sl2"], 0.3, 0.2, t)

    def test_finite_times_keep_their_step_counts(self):
        times = (-3.0, 0.0, 0.5, 0.51, 1.0, 2.0)
        assert [_shoot_steps(t) for t in times] == [40, 40, 40, 41, 80, 160]

    _CONTROLS = st.lists(st.tuples(*[st.floats(-4.0, 4.0) | _ANY] * 3), min_size=1, max_size=3)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(mid=st.sampled_from(MODEL_IDS), controls=_CONTROLS, t=_ANY)
    def test_integrate_controls(self, models, mid, controls, t):
        finite_or_documented(lambda: (integrate_controls(models[mid], controls, t),))

    # Targets: entries with the specials, and finite ones far from the
    # identity, where a small budget keeps the refinement short.
    _ENTRY = _ANY | st.floats(-1e3, 1e3)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(mid=st.sampled_from(MODEL_IDS), entries=st.lists(_ENTRY, min_size=9, max_size=9),
           budget=st.integers(1, 3))
    def test_shoot_distance(self, models, mid, entries, budget):
        model = models[mid]
        target = np.reshape(entries[: model.identity.size], model.identity.shape)

        def shoot():
            result = shoot_distance(model, target, budget=budget)
            assert isinstance(result, geodesics.ShootingResult)
            return ()

        finite_or_documented(shoot)
