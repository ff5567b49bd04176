import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from sr3d import isometry as iso
from sr3d.cli import PSI_MUTANTS
from sr3d.geodesics import IntegrationBlowUpError, _rk4_step

from conftest import finite_or_documented

PI = math.pi


class TestCoordinates:
    def test_polar_round_trip(self, rng):
        for _ in range(200):
            p = iso.APoint(
                float(rng.uniform(-3, 3)),
                float(rng.uniform(-3, -0.05)),
                float(rng.uniform(-7, 7)),
            )
            rho, theta = iso.polar(p)
            assert abs(rho * math.sin(theta) - p.x) <= 1e-12 * (1 + abs(p.x))
            assert abs(-rho * math.cos(theta) - p.y) <= 1e-12 * (1 + abs(p.y))

    def test_rejects_upper_half_plane(self):
        with pytest.raises(ValueError):
            iso.APoint(0.0, 1.0, 0.0)


class TestArrayForms:
    """The closed forms on arrays are the closed forms on floats, entry by
    entry, and one draw is the battery's sequential scalar draws."""

    BOXES = (iso._POINT_BOX, ((-1.5, 1.5), (-3.0, 3.0), (-1.5, 1.5)) + iso._POINT_BOX)

    @pytest.mark.parametrize("box", BOXES)
    def test_draw_is_sequential_uniform_draws_to_the_bit(self, box):
        drawn, sequential = np.random.default_rng(5), np.random.default_rng(5)
        rows = iso._draw(drawn, 300, box)
        want = [[sequential.uniform(lo, hi) for lo, hi in box] for _ in range(300)]
        assert rows.shape == (300, len(box)) and rows.tolist() == want
        assert drawn.random() == sequential.random()

    @staticmethod
    def _close(array, scalars):
        scalars = np.array(scalars)
        assert array.shape == scalars.shape
        assert np.all(np.abs(array - scalars) <= 1e-15 * (1.0 + np.abs(scalars)))

    def test_closed_forms_on_arrays_are_the_scalar_calls(self, rng):
        x, y, z = iso._draw(rng, 400, iso._POINT_BOX).T
        t = iso._draw(rng, 400, ((-1.5, 1.5), (-3.0, 3.0), (-1.5, 1.5))).T
        points = [iso.APoint(*v) for v in zip(x.tolist(), y.tolist(), z.tolist())]
        times = list(zip(*t.tolist()))
        p = iso.APoint(x, y, z)
        for got, want in zip(iso.polar(p), zip(*(iso.polar(q) for q in points))):
            self._close(got, want)
        for got, want in zip(iso.map_F_inv(p), zip(*(iso.map_F_inv(q) for q in points))):
            self._close(got, want)
        f = iso.map_F(*t)
        for name in "xyz":
            self._close(getattr(f, name), [getattr(iso.map_F(*s), name) for s in times])
        self._close(iso.map_G(*t), [iso.map_G(*s) for s in times])
        self._close(iso.psi_of_apoint(p), [iso.psi_of_apoint(q) for q in points])
        # A grid broadcasts too: a (20, 20) block of 2x2 matrices.
        grid = iso.map_G(t[0][:20, None], t[1][None, :20], t[2][:20, None])
        self._close(grid[3, 7], iso.map_G(t[0][3], t[1][7], t[2][3]))

    @pytest.mark.parametrize("bad", [0.0, 1e-300, np.inf, np.nan])
    def test_apoint_of_arrays_refuses_any_y_not_negative(self, bad):
        y = np.full(5, -1.0)
        iso.APoint(np.zeros(5), y, np.zeros(5))
        y[3] = bad
        with pytest.raises(ValueError, match="requires y < 0"):
            iso.APoint(np.zeros(5), y, np.zeros(5))


class TestFrameHat:
    def test_at_identity(self):
        f1, f2 = iso.frame_hat(iso.IDENTITY_APOINT)
        assert np.allclose(f1, [0.0, 1.0, 0.0])
        assert np.allclose(f2, [1.0, 0.0, 1.0])

    def test_at_quarter_turn(self):
        f1, f2 = iso.frame_hat(iso.APoint(0.0, -1.0, PI / 2))
        assert np.allclose(f1, [-1.0, 0.0, -1.0])
        assert np.allclose(f2, [0.0, 1.0, 0.0])

    def test_is_pointwise_rotation_of_left_invariant_pair(self, rng):
        # The left-invariant pair in chart components is b1 = -y d/dy and
        # b2 = -y d/dx + d/dz; the hat frame is its rotation by the angle z
        # (with fhat1 = cos z b1 - sin z b2).
        for _ in range(100):
            p = iso.APoint(
                float(rng.uniform(-2, 2)),
                float(rng.uniform(-2.5, -0.2)),
                float(rng.uniform(-6, 6)),
            )
            b1 = np.array([0.0, -p.y, 0.0])
            b2 = np.array([-p.y, 0.0, 1.0])
            c, s = math.cos(p.z), math.sin(p.z)
            f1, f2 = iso.frame_hat(p)
            assert np.max(np.abs(f1 - (c * b1 - s * b2))) <= 1e-12
            assert np.max(np.abs(f2 - (s * b1 + c * b2))) <= 1e-12

    def test_bracket_relations_by_finite_differences(self, rng):
        for _ in range(100):
            p = iso.APoint(
                float(rng.uniform(-2, 2)),
                float(rng.uniform(-2.5, -0.4)),
                float(rng.uniform(-2.5, 2.5)),
            )
            f1, f2 = iso.frame_hat(p)
            b10 = iso.finite_difference_bracket(1, 0, p)
            b20 = iso.finite_difference_bracket(2, 0, p)
            b21 = iso.finite_difference_bracket(2, 1, p)
            assert np.max(np.abs(b10 + f2)) <= 1e-5
            assert np.max(np.abs(b20 - f1)) <= 1e-5
            assert np.max(np.abs(b21 - iso.f0_chart())) <= 1e-5


class TestEndpointMaps:
    def test_f_inverse_continuous_at_axis(self):
        for z in (-20.0, 0.0, 5.0):
            assert iso.map_F_inv(iso.APoint(0.0, -2.0, z))[1] == 0.0

    def test_f_at_origin(self):
        p = iso.map_F(0.0, 0.0, 0.0)
        assert (p.x, p.y, p.z) == (0.0, -1.0, 0.0)

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_f_on_kernel_arguments(self, k):
        p = iso.map_F(0.0, 0.0, 2.0 * PI * k)
        assert abs(p.x) <= 1e-12
        assert abs(p.y + 1.0) <= 1e-12
        assert abs(p.z + 4.0 * PI * k) <= 1e-12

    def test_f_round_trip(self, rng):
        # Globally invertible; |t2| <= 3 keeps arctanh well conditioned.
        for _ in range(1000):
            t = (
                float(rng.uniform(-1.5, 1.5)),
                float(rng.uniform(-3.0, 3.0)),
                float(rng.uniform(-1.5, 1.5)),
            )
            back = iso.map_F_inv(iso.map_F(*t))
            assert np.max(np.abs(np.array(back) - t)) <= 1e-10

    def test_g_at_origin_and_pure_rotation(self):
        assert np.allclose(iso.map_G(0.0, 0.0, 0.0), np.eye(2))
        t0 = 0.77
        rot = np.array(
            [[math.cos(t0), -math.sin(t0)], [math.sin(t0), math.cos(t0)]]
        )
        assert np.max(np.abs(iso.map_G(0.0, 0.0, t0) - rot)) <= 1e-15

    def test_g_has_unit_determinant(self, rng):
        for _ in range(1000):
            g = iso.map_G(
                float(rng.uniform(-2, 2)),
                float(rng.uniform(-3, 3)),
                float(rng.uniform(-4, 4)),
            )
            assert abs(np.linalg.det(g) - 1.0) <= 1e-10


class TestPsi:
    def test_identity_fixed_point(self):
        assert np.array_equal(iso.map_Psi(1.0, 0.0, 0.0), np.eye(2))

    def test_non_homomorphism_product(self):
        half = math.sqrt(0.5)
        prod = iso.map_Psi(half, PI / 4, PI) @ iso.map_Psi(half, -PI / 4, -PI)
        assert np.max(np.abs(prod - np.array([[2.0, 0.0], [0.5, 0.5]]))) <= 1e-12

    def test_not_a_group_homomorphism(self):
        # Generic witness: images of a product vs product of images differ.
        a = iso.APoint(0.5, -0.8, 0.6)
        b = iso.APoint(-0.3, -1.4, 0.4)
        lhs = iso.psi_of_apoint(iso.a_mul(a, b))
        rhs = iso.psi_of_apoint(a) @ iso.psi_of_apoint(b)
        assert np.max(np.abs(lhs - rhs)) > 0.1

    def test_determinant_one(self, rng):
        for _ in range(1000):
            m = iso.map_Psi(
                float(rng.uniform(0.1, 4.0)),
                float(rng.uniform(-1.5, 1.5)),
                float(rng.uniform(-PI, PI)),
            )
            assert abs(np.linalg.det(m) - 1.0) <= 1e-12

    def test_injective_on_fundamental_domain(self):
        # Psi has a left inverse on the 50^3 grid, so no two grid points
        # share an image.
        assert iso.psi_round_trip_gap() <= 1e-13

    @pytest.mark.parametrize("name", sorted(PSI_MUTANTS))
    def test_round_trip_catches_every_mutant(self, monkeypatch, name):
        exact = iso.psi_entries

        def mutant(rho, theta, phi):
            return exact(rho, theta, phi, **PSI_MUTANTS[name])

        monkeypatch.setattr(iso, "psi_entries", mutant)
        assert iso.psi_round_trip_gap() >= 1.0

    def test_onto_sl2(self, rng):
        # Every sampled SL(2) matrix has a preimage in the domain, and Psi
        # maps it back; t0 spans a full turn so phi covers (-pi, pi].
        for _ in range(2000):
            m = iso.map_G(
                float(rng.uniform(-1.5, 1.5)),
                float(rng.uniform(-3.0, 3.0)),
                float(rng.uniform(-PI, PI)),
            )
            rho, theta, phi = (float(v) for v in iso.psi_inverse(*m.ravel()))
            assert rho > 0 and abs(theta) < PI / 2
            back = iso.map_Psi(rho, theta, phi)
            assert np.max(np.abs(back - m)) <= 1e-12 * np.max(np.abs(m))


class TestConsistency:
    def test_zero_arguments(self):
        assert iso.psi_consistency(0.0, 0.0, 0.0) == 0.0

    def test_pure_rotation_argument(self):
        t0 = PI / 4
        rot = np.array(
            [[math.cos(t0), -math.sin(t0)], [math.sin(t0), math.cos(t0)]]
        )
        assert np.max(np.abs(iso.map_G(0.0, 0.0, t0) - rot)) <= 1e-15
        assert np.max(
            np.abs(iso.psi_of_apoint(iso.map_F(0.0, 0.0, t0)) - rot)
        ) <= 1e-15

    def test_random_window(self, rng):
        worst = 0.0
        for _ in range(1000):
            worst = max(
                worst,
                iso.psi_consistency(
                    float(rng.uniform(-1.5, 1.5)),
                    float(rng.uniform(-3.0, 3.0)),
                    float(rng.uniform(-1.5, 1.5)),
                ),
            )
        assert worst <= 1e-10


def reference_chart(controls, t_final, steps):
    """Reference: RK4 stages written out on the chart coordinates."""
    def rhs(x, y, z, u1, u2, u0):
        s, c = math.sin(z), math.cos(z)
        return u1 * y * s - u2 * y * c, -u1 * y * c - u2 * y * s, -u1 * s + u2 * c - u0

    x, y, z = 0.0, -1.0, 0.0
    seg_steps = max(1, steps // len(controls))
    dt = t_final / len(controls) / seg_steps
    for u in controls:
        for _ in range(seg_steps):
            k1 = rhs(x, y, z, *u)
            k2 = rhs(x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1], z + 0.5 * dt * k1[2], *u)
            k3 = rhs(x + 0.5 * dt * k2[0], y + 0.5 * dt * k2[1], z + 0.5 * dt * k2[2], *u)
            k4 = rhs(x + dt * k3[0], y + dt * k3[1], z + dt * k3[2], *u)
            x += (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            y += (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            z += (dt / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return x, y, z


def exact_sl2(controls, t_final):
    """Reference: the product of scipy expm factors, one per segment, of the
    control written out as a 2x2 matrix."""
    g = np.eye(2)
    for u1, u2, u0 in controls:
        # u1 g1 + u2 g2 + u0 g0 = 0.5 [[u1, u2 - u0], [u2 + u0, -u1]]
        m = 0.5 * np.array([[u1, u2 - u0], [u2 + u0, -u1]])
        g = g @ expm(t_final / len(controls) * m)
    return g


def rk4_step_chart(controls, t_final, steps, start):
    """Reference: the chart flight as _rk4_step on a list of three floats,
    over one closure per segment."""
    state = [start.x, start.y, start.z]
    seg_steps = max(1, steps // len(controls))
    dt = t_final / len(controls) / seg_steps
    for u1, u2, u0 in controls:
        def rhs(p):
            _, y, z = p
            s, c = math.sin(z), math.cos(z)
            return [u1 * y * s - u2 * y * c, -u1 * y * c - u2 * y * s, -u1 * s + u2 * c - u0]

        for _ in range(seg_steps):
            state = _rk4_step(rhs, state, dt)
    return state


class TestControlFlows:
    def test_chart_is_the_rk4_step_flight_to_the_bit(self, rng):
        # Every Nagano schedule length, at both step counts of the
        # certification, from the identity and from random starts.
        for n_seg in (1, 2, 3, 4, 5, 3, 5):
            schedule = [tuple(rng.uniform(-1, 1, size=3)) for _ in range(n_seg)]
            random_start = iso.APoint(*iso._draw(rng, 1, iso._POINT_BOX)[0].tolist())
            for start in (iso.IDENTITY_APOINT, random_start):
                for steps in (iso.NAGANO_STEPS, iso.NAGANO_STEPS // 2):
                    q = iso.integrate_chart(schedule, 1.0, steps, start=start)
                    assert [q.x, q.y, q.z] == rk4_step_chart(schedule, 1.0, steps, start)
            assert iso.integrate_chart(np.array(schedule), 1.0, steps, start=start) == q

    def test_empty_schedule_is_a_value_error(self):
        for flow in (lambda: iso.integrate_chart([], 1.0, 10),
                     lambda: iso.integrate_sl2([], 1.0, 10),
                     lambda: iso.nagano_check([], 1.0)):
            with pytest.raises(ValueError, match="control schedule must be nonempty"):
                flow()
        # A control that is not a triple is bad input, not a blow-up.
        for flow in (iso.integrate_chart, iso.integrate_sl2):
            with pytest.raises(ValueError):
                flow([(0.1, 0.2)], 1.0, 10)

    def test_array_schedule_flies_as_the_tuple_schedule(self):
        schedule = [(0.3, -0.2, 0.5), (0.1, 0.4, -0.6)]
        array = np.array(schedule)
        assert np.array_equal(iso.integrate_sl2(array, 1.0, 40),
                              iso.integrate_sl2(schedule, 1.0, 40))
        assert iso.nagano_check(array, 1.0, 40) == iso.nagano_check(schedule, 1.0, 40)
        for flow in (iso.integrate_chart, iso.integrate_sl2):
            with pytest.raises(ValueError, match="control schedule must be nonempty"):
                flow(np.empty((0, 3)), 1.0, 10)
        with pytest.raises(ValueError, match="control schedule must be nonempty"):
            iso.nagano_check(np.empty((0, 3)), 1.0)

    def test_flows_match_written_out_stages(self, rng):
        for _ in range(8):
            n_seg = int(rng.integers(1, 6))
            schedule = [tuple(rng.uniform(-1, 1, size=3)) for _ in range(n_seg)]
            steps = int(rng.integers(100, 2000))
            q = iso.integrate_chart(schedule, 1.0, steps)
            assert max(abs(a - b) for a, b in zip((q.x, q.y, q.z),
                                                  reference_chart(schedule, 1.0, steps))) <= 1e-15
            want = exact_sl2(schedule, 1.0)
            x = iso.integrate_sl2(schedule, 1.0, steps)
            assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))

    def test_sl2_flow_is_the_closed_form_map_g(self, rng):
        # map_G is diag(e^t1, e^-t1), then a hyperbolic and then a rotation
        # factor: the flows of 2 t1 g1, 2 t2 g2 and 2 t0 g0 for unit time each.
        for _ in range(200):
            t1, t2, t0 = rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5)
            want = iso.map_G(t1, t2, t0)
            x = iso.integrate_sl2([(2 * t1, 0, 0), (0, 2 * t2, 0), (0, 0, 2 * t0)], 3.0, 240)
            assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))

    def test_zero_controls_residual_zero(self):
        assert iso.nagano_check([(0.0, 0.0, 0.0)], 1.0, steps=100) <= 1e-15

    def test_pure_transverse_control_closed_forms(self):
        u0, t_final = 0.9, 1.0
        q = iso.integrate_chart([(0.0, 0.0, u0)], t_final, 400)
        assert abs(q.x) <= 1e-12 and abs(q.y + 1) <= 1e-12
        assert abs(q.z + u0 * t_final) <= 1e-12
        x = iso.integrate_sl2([(0.0, 0.0, u0)], t_final, 400)
        half = 0.5 * u0 * t_final  # the transverse generator rotates at half speed
        rot = np.array(
            [[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]]
        )
        assert np.max(np.abs(x - rot)) <= 1e-12
        assert np.max(np.abs(iso.psi_of_apoint(q) - x)) <= 1e-12

    def test_residual_is_the_chart_rk4_error_of_order_four(self, rng):
        # The SL(2) side is exact, so each step doubling cuts the residual
        # 16x.  Every segment count 1-5 splits 60, 120 and 240 evenly.
        for _ in range(6):
            n_seg = int(rng.integers(1, 6))
            schedule = [tuple(rng.uniform(-3, 3, size=3)) for _ in range(n_seg)]
            r60, r120, r240 = (iso.nagano_check(schedule, 1.0, n) for n in (60, 120, 240))
            assert 16.0 * 0.9 <= r60 / r120 <= 16.0 * 1.1, schedule
            assert 16.0 * 0.9 <= r120 / r240 <= 16.0 * 1.1, schedule

    def test_random_schedules(self, rng):
        for _ in range(8):
            n_seg = int(rng.integers(1, 6))
            schedule = [tuple(rng.uniform(-1, 1, size=3)) for _ in range(n_seg)]
            assert iso.nagano_check(schedule, 1.0, steps=iso.NAGANO_STEPS) <= 1e-6

    @pytest.mark.parametrize("controls", [[(0.3, -0.2, -8.0)], [(0.0, 0.0, -20.0)]])
    def test_intertwining_holds_beyond_two_pi(self, controls):
        # (x, y, z) are global coordinates: these flows end at z ~ 7.9 and
        # z ~ 20, and the gap is RK4 error alone.
        assert abs(iso.integrate_chart(controls, 1.0, 2400).z) > 2 * PI
        assert iso.nagano_check(controls, 1.0, 2400) <= 1e-9

    def test_non_finite_segment_raises(self):
        with pytest.raises(IntegrationBlowUpError) as err:
            iso.integrate_chart([(0.1, 0.0, 0.0), (1e5, 0.0, 0.0)], 1.0, 100)
        assert err.value.step == 100

    def test_infinite_z_inside_a_segment_raises_by_its_end(self):
        # z reaches -inf on the first step; sin(-inf) on the second must not
        # escape as a bare ValueError.
        with pytest.raises(IntegrationBlowUpError, match="by step 10"):
            iso.integrate_chart([(0.0, 0.0, 1e308)], 10.0, 10)


class TestNonFiniteChart:
    """No float input makes the chart flow or the Nagano residual return a
    non-finite value, raise an undocumented error or emit a RuntimeWarning."""

    # All floats, so ±inf, NaN and 1e±308 among them and drawn often, and
    # moderate ones, so that some flights end finite.
    _ANY = st.floats(-4.0, 4.0) | st.floats() | st.sampled_from(
        [math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308]
    )
    _CONTROLS = st.lists(st.tuples(_ANY, _ANY, _ANY), min_size=1, max_size=3)

    @settings(max_examples=40, derandomize=True, deadline=None)
    # y < 0 is the chart's half-space; a start outside it is a ValueError,
    # so y is drawn there, its specials kept, to fly more starts.
    @given(controls=_CONTROLS, t=_ANY, x=_ANY, y=_ANY.map(lambda v: -abs(v)), z=_ANY)
    def test_integrate_chart(self, controls, t, x, y, z):
        def fly():
            q = iso.integrate_chart(controls, t, 12, start=iso.APoint(x, y, z))
            return q.x, q.y, q.z

        finite_or_documented(fly)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(controls=_CONTROLS, t=_ANY)
    def test_nagano_check(self, controls, t):
        finite_or_documented(lambda: (iso.nagano_check(controls, t, 24),))


class TestPushforward:
    def test_first_order_residual_scale(self):
        residual = iso.pushforward_check(iso.IDENTITY_APOINT, 1e-4)
        assert residual <= 1e-3

    def test_eps_decay_across_points(self, rng):
        for _ in range(20):
            p = iso.APoint(
                float(rng.uniform(-2, 2)),
                float(rng.uniform(-2.5, -0.4)),
                float(rng.uniform(-2.5, 2.5)),
            )
            r1 = iso.pushforward_check(p, 1e-3)
            r2 = iso.pushforward_check(p, 5e-4)
            assert 0.3 <= r2 / r1 <= 0.7

    def test_orthonormality_transport(self, rng):
        for _ in range(20):
            p = iso.APoint(
                float(rng.uniform(-2, 2)),
                float(rng.uniform(-2.5, -0.4)),
                float(rng.uniform(-2.5, 2.5)),
            )
            gram = iso.pushforward_gram(p)
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-6


class TestQuotient:
    def test_kernel_points_and_centrality(self):
        assert iso.quotient_check(range(-2, 3))

    def test_kernel_points_map_to_identity(self):
        for k in (-2, -1, 0, 1, 2):
            img = iso.psi_of_apoint(iso.kernel_point(k))
            assert np.max(np.abs(img - np.eye(2))) <= 1e-12

    def test_centrality_is_exact(self, rng):
        center = iso.kernel_point(1)
        for _ in range(100):
            q = iso.APoint(
                float(rng.uniform(-3, 3)),
                float(rng.uniform(-3, -0.1)),
                float(rng.uniform(-3, 3)),
            )
            left = iso.a_mul(center, q)
            right = iso.a_mul(q, center)
            assert (left.x, left.y, left.z) == (right.x, right.y, right.z)


def scalar_psi_draws(samples, seed):
    """The (t, chart point) pairs of the three Psi rows, (t1, t2, t0) and
    (x, y, z), as sequential scalar draws after those the battery takes
    before them, in its order."""
    rng = np.random.default_rng(seed)

    def uniform(*box):
        return [float(rng.uniform(lo, hi)) for lo, hi in box]

    for _ in range(5 * 100):  # centrality: 100 points per kernel point
        uniform((-3, 3), (-3, -0.1), (-3, 3))
    for _ in range(2 * samples):  # the finite-difference points
        uniform(*iso._POINT_BOX)
    return [(uniform((-1.5, 1.5), (-3.0, 3.0), (-1.5, 1.5)), uniform(*iso._POINT_BOX))
            for _ in range(20 * samples)]


def scalar_psi_rows(samples, seed):
    """Reference: the three Psi rows as a loop of scalar calls over their
    draws, with G(t) as the product of its three exponential factors."""
    rows = dict.fromkeys(("psi_consistency", "endpoint_map_roundtrip", "psi_determinant"), 0.0)
    for t, point in scalar_psi_draws(samples, seed):
        t1, t2, t0 = t
        g = (np.diag([math.exp(t1), math.exp(-t1)])
             @ np.array([[math.cosh(t2), math.sinh(t2)], [math.sinh(t2), math.cosh(t2)]])
             @ np.array([[math.cos(t0), -math.sin(t0)], [math.sin(t0), math.cos(t0)]]))
        gap = np.max(np.abs(iso.psi_of_apoint(iso.map_F(*t)) - g))
        back = iso.map_F_inv(iso.map_F(*t))
        det = np.linalg.det(iso.psi_of_apoint(iso.APoint(*point)))
        for name, value in zip(rows, (gap, max(abs(b - a) for a, b in zip(t, back)),
                                      abs(det - 1.0))):
            rows[name] = max(rows[name], float(value))
    return rows


class TestCertification:
    def test_battery_passes_quickly(self):
        results = iso.run_certification(samples=5, seed=7)
        assert all(r.passed for r in results), [
            (r.name, r.max_residual) for r in results if not r.passed
        ]

    def test_discretisation_row_has_teeth(self, monkeypatch):
        monkeypatch.setattr(iso, "NAGANO_STEPS", 12)
        results = iso.run_certification(samples=5, seed=7)
        rows = {r.name: r for r in results}
        assert not rows["nagano_discretisation"].passed
        assert all(r.passed for r in results if not r.name.startswith("nagano")), [
            (r.name, r.max_residual) for r in results if not r.passed
        ]

    def test_discretisation_row_tracks_true_error(self, monkeypatch):
        # Psi is exact, so the residual at 3840 steps stands in for zero
        # discretisation error on the schedules the battery drew.
        nagano = iso.nagano_check
        schedules = set()

        def recorded(controls, *args):
            schedules.add(tuple(controls))
            return nagano(controls, *args)

        monkeypatch.setattr(iso, "nagano_check", recorded)
        rows = {r.name: r for r in iso.run_certification(samples=12, seed=1993)}
        true_error = max(abs(nagano(s, 1.0) - nagano(s, 1.0, 3840)) for s in schedules)
        assert len(schedules) == 12
        assert 0.5 <= rows["nagano_discretisation"].max_residual / true_error <= 2.0

    def test_samples_zero_runs_fixed_points_only(self):
        results = iso.run_certification(samples=0, seed=1)
        names = {r.name for r in results}
        assert names == {
            "psi_identity_fixed_point",
            "psi_nonhomomorphism_product",
            "kernel_points",
            "kernel_centrality",
        }
        assert all(r.passed for r in results)

    def test_nan_psi_fails_every_row_that_evaluates_it(self):
        def nan_psi(rho, theta, phi):
            return tuple(np.full(np.shape(rho), np.nan) for _ in range(4))

        def zero_psi(rho, theta, phi):
            return tuple(np.zeros(np.shape(rho)) for _ in range(4))

        psi_free = {"kernel_points", "matrix_commutators", "frame_commutators_fd",
                    "endpoint_map_roundtrip"}
        assert not iso.quotient_check(range(-2, 3), psi=nan_psi)
        rows = {r.name: r for r in iso.run_certification(samples=3, seed=11, psi=nan_psi)}
        assert {name for name, r in rows.items() if r.passed} == psi_free
        for name in rows.keys() - psi_free - {"kernel_centrality"}:
            assert math.isnan(rows[name].max_residual), name
        # The zero map is singular everywhere.  Its step-doubling row passes,
        # as for any wrong map: both flights miss by the same amount.
        assert not iso.quotient_check(range(-2, 3), psi=zero_psi)
        rows = {r.name: r for r in iso.run_certification(samples=3, seed=11, psi=zero_psi)}
        assert {name for name, r in rows.items() if r.passed} == psi_free | {
            "nagano_discretisation"}

    @pytest.mark.parametrize("seed", [42, 7919])
    def test_psi_rows_are_the_scalar_loop(self, seed):
        rows = {r.name: r.max_residual for r in iso.run_certification(50, seed)}
        for name, want in scalar_psi_rows(50, seed).items():
            assert abs(rows[name] - want) <= 1e-12, name

    @pytest.mark.parametrize("seed", [42, 7919])
    def test_psi_rows_read_their_draw_in_column_order(self, seed, monkeypatch):
        # The rows' maxima are all at rounding level, so a draw read in the
        # wrong column order passes the comparison above.  Here every F(t)
        # the rows evaluate is at the scalar loop's (t1, t2, t0), and Psi's
        # determinant at its chart points, entry for entry.
        samples = 3  # 60 draws: no other call in the battery has that many
        times, points = (np.array(v).T for v in zip(*scalar_psi_draws(samples, seed)))
        seen_t, seen_p = [], []
        real_F, real_psi = iso.map_F, iso.psi_of_apoint

        def map_F(*t):
            seen_t.append(t)
            return real_F(*t)

        def psi_of_apoint(p, psi=iso.psi_entries):
            seen_p.append(p)
            return real_psi(p, psi)

        monkeypatch.setattr(iso, "map_F", map_F)
        monkeypatch.setattr(iso, "psi_of_apoint", psi_of_apoint)
        iso.run_certification(samples, seed)
        seen_t = [np.array(t) for t in seen_t if np.shape(t[0]) == times.shape[1:]]
        seen_p = [np.array([p.x, p.y, p.z]) for p in seen_p if np.shape(p.x) == points.shape[1:]]
        assert len(seen_t) == 2 and all(np.array_equal(t, times) for t in seen_t)
        # Psi at F(t) for the consistency row, then at the drawn points.
        assert len(seen_p) == 2 and np.array_equal(seen_p[1], points)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be >= 0"):
            iso.run_certification(samples=-2, seed=1)

    # Constant entries: ±inf, NaN, ±1e308, 1e-308 and 0 drawn often, and
    # finite floats, moderate and not.
    _ENTRY = st.floats(-4.0, 4.0) | st.floats() | st.sampled_from(
        [math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308, 0.0]
    )

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(entries=st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY))
    def test_any_constant_psi_gives_rows_and_fails_non_finite_ones(self, entries):
        def psi(rho, theta, phi):
            return tuple(np.full(np.shape(rho), e) for e in entries)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = iso.run_certification(samples=1, seed=11, psi=psi)
        assert rows
        for r in rows:
            assert math.isfinite(r.max_residual) or not r.passed, r

    def test_rows_that_do_not_call_psi_still_warn(self, monkeypatch):
        # Only the Psi evaluations are silenced: an overflow in the real
        # chart's round trip reaches the caller.
        monkeypatch.setattr(iso, "map_F_inv", lambda p: np.array([0.0, 1e308, 0.0]) * 10.0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            iso.run_certification(samples=1, seed=11)
