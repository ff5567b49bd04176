import math
import warnings

import numpy as np
import pytest

from sr3d.algebra import LieAlgebra3
from sr3d.classify import catalog_entry
from sr3d.frames import (
    NotBracketGeneratingError,
    SRStructure,
    check_contact,
    frame_from_orthonormal,
    orthonormalize,
    reeb_frame,
    rotate_frame,
)
from sr3d.invariants import compute_chi, compute_kappa

from conftest import re_present

E = np.eye(3)
HEISENBERG = catalog_entry("h3").structure
APLUS = catalog_entry("aplus").structure
ABELIAN = SRStructure(
    LieAlgebra3(np.zeros((3, 3, 3))), np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.eye(2)
)


class TestOrthonormalize:
    def test_orthonormal_input_unchanged(self):
        f1, f2 = orthonormalize(HEISENBERG)
        assert np.allclose(f1, E[0]) and np.allclose(f2, E[1])

    def test_diagonal_rescaling(self):
        s = SRStructure(
            HEISENBERG.algebra,
            np.array([[1.0, 0, 0], [0, 1.0, 0]]),
            np.array([[4.0, 0.0], [0.0, 1.0]]),
        )
        f1, f2 = orthonormalize(s)
        assert np.allclose(f1, E[0] / 2) and np.allclose(f2, E[1])

    def test_sheared_gram_output_is_orthonormal(self):
        gram = np.array([[2.0, 1.0], [1.0, 1.0]])
        s = SRStructure(
            HEISENBERG.algebra, np.array([[1.0, 0, 0], [0, 1.0, 0]]), gram
        )
        f1, f2 = orthonormalize(s)
        # Oracle: express (f1, f2) in the generators and recompute the Gram
        # matrix from coefficient algebra: M G M^T must be the identity.
        span = s.span
        m = np.array([np.linalg.lstsq(span.T, f, rcond=None)[0] for f in (f1, f2)])
        assert np.allclose(m @ gram @ m.T, np.eye(2), atol=1e-12)

    def test_rejects_non_finite_gram_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                SRStructure(
                    HEISENBERG.algebra,
                    np.array([[1.0, 0, 0], [0, 1.0, 0]]),
                    np.array([[float("nan"), 0.0], [0.0, 1.0]]),
                )

    def test_gram_near_the_float_maximum_is_stored_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = SRStructure(HEISENBERG.algebra, np.eye(3)[:2], 1e308 * np.eye(2))
        assert np.array_equal(s.gram, 1e308 * np.eye(2))

    def test_rejects_degenerate_gram(self):
        with pytest.raises(ValueError, match="positive definite"):
            SRStructure(
                HEISENBERG.algebra,
                np.array([[1.0, 0, 0], [0, 1.0, 0]]),
                np.array([[1.0, 1.0], [1.0, 1.0]]),
            )


def _numpy_verdict(span, gram):
    """Which check rejects (span, gram), by numpy rank and eigenvalue tests.

    The reference for SRStructure's closed forms, with the same thresholds.
    """
    if np.linalg.matrix_rank(span, tol=1e-12 * max(1.0, np.max(np.abs(span)))) < 2:
        return "linearly dependent"
    if not np.allclose(gram, gram.T, rtol=0, atol=1e-12 * (1 + np.max(np.abs(gram)))):
        return "symmetric"
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        return "positive definite"
    return "accepted"


class TestStructureChecks:
    def test_verdicts_match_numpy_rank_and_eigenvalue_tests(self, rng):
        # Near-dependent spans and near-singular or slightly asymmetric grams,
        # with entries from 1e-300 to 1e300, so every verdict is reached
        # close to its threshold and far from it.
        seen = set()
        for trial in range(4000):
            v1 = rng.normal(size=3)
            near = 10.0 ** rng.uniform(-20, 0) * rng.normal(size=3)
            v2 = rng.normal() * v1 + near if trial % 4 else rng.normal(size=3)
            span = 10.0 ** rng.integers(-300, 300) * np.array([v1, v2])
            a = rng.normal(size=(2, 2))
            gram = a @ a.T
            if trial % 3 == 0:
                shift = np.linalg.eigvalsh(gram)[0] - 10.0 ** rng.uniform(-20, 0)
                gram -= shift * np.eye(2)
            if trial % 7 == 0:
                gram[0, 1] += 10.0 ** rng.uniform(-20, 0)
            gram *= 10.0 ** rng.integers(-300, 300)
            want = _numpy_verdict(span, gram)
            try:
                SRStructure(HEISENBERG.algebra, span, gram)
                got = "accepted"
            except ValueError as exc:
                got = str(exc)
            assert want in got, (want, got, span.tolist(), gram.tolist())
            seen.add(want)
        assert len(seen) == 4

    @pytest.mark.parametrize("span, gram, message", [
        (np.zeros((2, 3)), np.eye(2), "span vectors are linearly dependent"),
        ([[1.0, 2, 3], [2.0, 4, 6]], np.eye(2), "span vectors are linearly dependent"),
        (np.eye(3)[:2], [[1.0, 0.5], [0.0, 1.0]], "gram matrix must be symmetric"),
        (np.eye(3)[:2], np.zeros((2, 2)), "gram matrix must be positive definite"),
        (np.eye(3)[:2], -np.eye(2), "gram matrix must be positive definite"),
        (np.eye(3)[:2], [[1e300, 0.0], [0.0, 1e-300]], "gram matrix must be positive definite"),
    ])
    def test_rejections_name_the_failed_check(self, span, gram, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SRStructure(HEISENBERG.algebra, np.asarray(span), np.asarray(gram))

    def test_stored_arrays_are_read_only_and_gram_symmetric(self):
        gram = np.array([[2.0, 0.5], [0.5 + 1e-13, 1.0]])
        s = SRStructure(HEISENBERG.algebra, np.eye(3)[:2], gram)
        assert not s.span.flags.writeable and not s.gram.flags.writeable
        assert s.gram[0, 1] == s.gram[1, 0] == 0.5 * (gram[0, 1] + gram[1, 0])


class TestCheckContact:
    def test_heisenberg_is_contact(self):
        assert check_contact(HEISENBERG)

    def test_abelian_is_not(self):
        assert not check_contact(ABELIAN)

    def test_subalgebra_plane_is_not(self):
        # [e1, e2] = e1 lies inside span{e1, e2}.
        s = SRStructure(
            APLUS.algebra, np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.eye(2)
        )
        assert not check_contact(s)

    def test_reeb_frame_raises_on_subalgebra(self):
        s = SRStructure(
            APLUS.algebra, np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.eye(2)
        )
        with pytest.raises(NotBracketGeneratingError, match="subalgebra"):
            reeb_frame(s)


class TestReebFrame:
    def test_heisenberg(self):
        fr = reeb_frame(HEISENBERG)
        # Orientation convention picks (e2, e1) so [f2, f1] = +e3.
        assert np.allclose(fr.f1, E[1]) and np.allclose(fr.f2, E[0])
        assert np.allclose(fr.f0, E[2])
        assert np.allclose(fr.constants, 0.0)

    def test_affine_line_model(self):
        fr = reeb_frame(APLUS)
        assert np.allclose(fr.f0, -E[2], atol=1e-12)
        assert fr.c12_2 == pytest.approx(1.0, abs=1e-12)
        for value in (fr.c12_1, fr.c01_1, fr.c01_2, fr.c02_1, fr.c02_2):
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_sl2_explicit_frame(self):
        # With the ordered pair (g1, g2) the Reeb vector is -g3 and
        # the constants come out as c01_2 = -1, c02_1 = 1.
        algebra = catalog_entry("sl2_elliptic_killing").structure.algebra
        fr = frame_from_orthonormal(algebra, E[0], E[1])
        assert np.allclose(fr.f0, -E[2], atol=1e-14)
        assert fr.c01_2 == pytest.approx(-1.0, abs=1e-14)
        assert fr.c02_1 == pytest.approx(1.0, abs=1e-14)
        assert fr.c12_1 == pytest.approx(0.0, abs=1e-14)
        assert fr.c12_2 == pytest.approx(0.0, abs=1e-14)

    def test_transverse_coefficient_is_one(self, entries):
        from sr3d.algebra import bracket

        for entry in entries:
            fr = reeb_frame(entry.structure)
            v = bracket(fr.algebra, fr.f2, fr.f1)
            recomposed = fr.c12_1 * fr.f1 + fr.c12_2 * fr.f2 + fr.f0
            assert np.max(np.abs(v - recomposed)) <= 1e-12 * fr.scale, entry.name

    def test_trace_identity_on_catalog(self, entries):
        for entry in entries:
            fr = reeb_frame(entry.structure)
            assert abs(fr.c01_1 + fr.c02_2) <= 1e-10 * fr.scale, entry.name

    def test_trace_identity_on_random_contact_presentations(self, entries, rng):
        count = 0
        while count < 100:
            base = entries[count % len(entries)]
            s = re_present(base.structure, rng)
            if not check_contact(s):
                continue
            fr = reeb_frame(s)
            assert abs(fr.c01_1 + fr.c02_2) <= 1e-10 * fr.scale
            count += 1

    def test_reeb_invariant_under_generator_rotation(self, entries, rng):
        for entry in entries:
            fr0 = reeb_frame(entry.structure)
            for _ in range(10):
                theta = rng.uniform(0, 2 * math.pi)
                c, s = math.cos(theta), math.sin(theta)
                rot = np.array([[c, s], [-s, c]])
                rotated = SRStructure(
                    entry.structure.algebra,
                    rot @ entry.structure.span,
                    np.eye(2),
                )
                fr = reeb_frame(rotated)
                assert np.max(np.abs(fr.f0 - fr0.f0)) <= 1e-10, entry.name

    def test_swap_of_generators_preserves_reeb_and_invariants(self, entries):
        for entry in entries:
            fr0 = reeb_frame(entry.structure)
            swapped = SRStructure(
                entry.structure.algebra,
                entry.structure.span[::-1],
                entry.structure.gram[::-1, ::-1],
            )
            fr1 = reeb_frame(swapped)
            assert np.max(np.abs(fr0.f0 - fr1.f0)) <= 1e-10, entry.name
            assert compute_chi(fr1) == pytest.approx(compute_chi(fr0), abs=1e-12)
            assert compute_kappa(fr1) == pytest.approx(compute_kappa(fr0), abs=1e-12)


class TestRotateFrame:
    def test_zero_angle_is_identity(self):
        fr = reeb_frame(APLUS)
        rot = rotate_frame(fr, 0.0)
        assert np.allclose(rot.f1, fr.f1) and np.allclose(rot.f2, fr.f2)
        assert np.allclose(rot.constants, fr.constants, atol=1e-12)

    def test_quarter_turn_swaps_pair(self):
        fr = reeb_frame(APLUS)
        rot = rotate_frame(fr, math.pi / 2)
        assert np.allclose(rot.f1, fr.f2, atol=1e-12)
        assert np.allclose(rot.f2, -fr.f1, atol=1e-12)
        # Under f1' = cos f1 + sin f2, f2' = -sin f1 + cos f2 the in-plane
        # constants transform by the inverse rotation; at a quarter turn
        # that is (c12_1, c12_2) -> (c12_2, -c12_1).
        assert rot.c12_1 == pytest.approx(fr.c12_2, abs=1e-12)
        assert rot.c12_2 == pytest.approx(-fr.c12_1, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, -1.2, 2.9])
    def test_in_plane_constants_rotate_with_closed_form(self, theta):
        fr = reeb_frame(catalog_entry("solv_minus").structure)
        rot = rotate_frame(fr, theta)
        c, s = math.cos(theta), math.sin(theta)
        assert rot.c12_1 == pytest.approx(c * fr.c12_1 + s * fr.c12_2, abs=1e-12)
        assert rot.c12_2 == pytest.approx(-s * fr.c12_1 + c * fr.c12_2, abs=1e-12)

    def test_kappa_invariant_on_affine_model(self, rng):
        fr = reeb_frame(APLUS)
        for _ in range(25):
            rot = rotate_frame(fr, rng.uniform(-math.pi, math.pi))
            assert compute_kappa(rot) == pytest.approx(-1.0, abs=1e-12)
