import math

import numpy as np
import pytest

from sr3d.algebra import bracket
from sr3d.classify import _chi_positive_case, catalog_entry
from sr3d.config import rel_tol
from sr3d.frames import (
    NotBracketGeneratingError,
    SRStructure,
    frame_from_orthonormal,
    orthonormalize,
    reeb_frame,
    rotate_frame,
)
from sr3d.invariants import (
    ChiZeroError,
    bracket_form,
    canonical_frame,
    compute_chi,
    compute_kappa,
    normalize,
)

from conftest import frame_structure, re_present

E = np.eye(3)
SQ2 = math.sqrt(2.0)


def frame_of(name):
    return reeb_frame(catalog_entry(name).structure)


class TestBracketForm:
    def test_heisenberg_zero(self):
        assert np.allclose(bracket_form(frame_of("h3")), 0.0)

    def test_sl2_killing_zero(self):
        # c01_2 = -1 and c02_1 = 1 cancel in the off-diagonal average.
        assert np.allclose(bracket_form(frame_of("sl2_elliptic_killing")), 0.0)

    def test_single_constant_form(self):
        fr = reeb_frame(frame_structure(c01_2=2.0))
        assert np.allclose(bracket_form(fr), np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestChi:
    def test_heisenberg_zero(self):
        assert compute_chi(frame_of("h3")) == 0.0

    def test_affine_model_zero(self):
        assert compute_chi(frame_of("aplus")) == pytest.approx(0.0, abs=1e-15)

    def test_normalized_euclidean_motions_frame(self):
        # c01_2 = sqrt(2): chi = sqrt(2)/2 and chi^2 + kappa^2 = 1.
        fr = reeb_frame(frame_structure(c01_2=SQ2))
        chi = compute_chi(fr)
        kappa = compute_kappa(fr)
        assert chi == pytest.approx(1.0 / SQ2, abs=1e-15)
        assert chi**2 + kappa**2 == pytest.approx(1.0, abs=1e-14)


class TestKappa:
    def test_heisenberg_zero(self):
        assert compute_kappa(frame_of("h3")) == 0.0

    def test_affine_model(self):
        assert compute_kappa(frame_of("aplus")) == pytest.approx(-1.0, abs=1e-12)

    def test_sl2_killing(self):
        assert compute_kappa(frame_of("sl2_elliptic_killing")) == pytest.approx(
            -1.0, abs=1e-14
        )


class TestNormalize:
    def test_zero_pair_is_exact(self):
        inv = normalize(0.0, 0.0)
        assert (inv.chi, inv.kappa, inv.dilation) == (0.0, 0.0, 1.0)

    def test_pure_scaling(self):
        # lambda = (0 + 16)^(-1/4) = 1/2 and lambda^2 kappa = -1.
        inv = normalize(0.0, -4.0)
        assert inv.chi == 0.0
        assert inv.kappa == pytest.approx(-1.0, abs=1e-15)
        assert inv.dilation == pytest.approx(0.5, abs=1e-15)

    def test_three_four_five(self):
        inv = normalize(3.0, 4.0)
        assert inv.chi == pytest.approx(0.6, abs=1e-15)
        assert inv.kappa == pytest.approx(0.8, abs=1e-15)
        assert inv.dilation == pytest.approx(5.0**-0.5, abs=1e-15)

    def test_circle_invariant(self, rng):
        for _ in range(200):
            chi, kappa = rng.uniform(-10, 10, size=2)
            inv = normalize(chi, kappa)
            if (inv.chi, inv.kappa) == (0.0, 0.0):
                continue
            assert abs(inv.chi**2 + inv.kappa**2 - 1.0) <= 1e-12


class TestCanonicalFrame:
    def test_diagonal_form_rotates_to_offdiagonal(self):
        # q = diag(1, -1) must become [[0, 1], [1, 0]] with chi = 1.
        fr = reeb_frame(frame_structure(c01_1=1.0, c02_2=-1.0))
        assert np.allclose(bracket_form(fr), np.diag([1.0, -1.0]))
        canon = canonical_frame(fr)
        assert np.allclose(bracket_form(canon), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        assert compute_chi(canon) == pytest.approx(1.0, abs=1e-12)

    def test_already_canonical_is_unchanged(self):
        fr = frame_of("solv_plus")
        canon = canonical_frame(fr)
        assert np.allclose(canon.f1, fr.f1, atol=1e-12)
        assert np.allclose(canon.f2, fr.f2, atol=1e-12)
        assert np.allclose(canon.constants, fr.constants, atol=1e-12)

    def test_euclidean_motions_entry_lands_in_translation_case(self):
        canon = canonical_frame(frame_of("se2"))
        assert abs(canon.c02_1) <= 1e-12
        assert abs(canon.c12_1) <= 1e-12
        assert abs(canon.c12_2) <= 1e-12
        assert canon.c01_2 > 0

    def test_rejects_vanishing_form(self):
        with pytest.raises(ChiZeroError):
            canonical_frame(frame_of("h3"))

    def test_sign_convention_forces_nonnegative_in_plane_constants(self):
        # Flip the solvable entries by presenting the plane with reversed
        # generators; the canonical frame must still come out with
        # c12_1 >= 0 and c12_2 >= 0.
        for name in ("solv_plus", "solv_minus"):
            s = catalog_entry(name).structure
            flipped = SRStructure(s.algebra, -s.span, s.gram)
            canon = canonical_frame(reeb_frame(flipped))
            assert canon.c12_1 >= -1e-15 and canon.c12_2 >= -1e-15


class TestInvarianceProperties:
    def test_rotation_invariance(self, rng):
        frames = [frame_of(n) for n in ("aplus", "se2", "solv_minus", "su2_round")]
        for fr in frames:
            chi, kappa = compute_chi(fr), compute_kappa(fr)
            for _ in range(25):
                rot = rotate_frame(fr, rng.uniform(-2 * math.pi, 2 * math.pi))
                assert compute_chi(rot) == pytest.approx(chi, abs=1e-10)
                assert compute_kappa(rot) == pytest.approx(kappa, abs=1e-10)

    def test_dilation_homogeneity(self, entries, rng):
        for entry in entries:
            fr = reeb_frame(entry.structure)
            chi, kappa = compute_chi(fr), compute_kappa(fr)
            lam = float(rng.uniform(0.1, 10.0))
            scaled = SRStructure(
                entry.structure.algebra,
                np.vstack([lam * fr.f1, lam * fr.f2]),
                np.eye(2),
            )
            fr2 = reeb_frame(scaled)
            scale = 1e-10 * (1 + lam**2 * max(abs(chi), abs(kappa)))
            assert abs(compute_chi(fr2) - lam**2 * chi) <= scale, entry.name
            assert abs(compute_kappa(fr2) - lam**2 * kappa) <= scale, entry.name

    def test_sign_flips_leave_invariants_alone(self, entries):
        for entry in entries:
            fr = reeb_frame(entry.structure)
            chi, kappa = compute_chi(fr), compute_kappa(fr)
            for s1, s2 in ((1, -1), (-1, 1), (-1, -1)):
                flipped = frame_from_orthonormal(
                    fr.algebra, s1 * fr.f1, s2 * fr.f2
                )
                assert compute_chi(flipped) == pytest.approx(chi, abs=1e-12)
                assert compute_kappa(flipped) == pytest.approx(kappa, abs=1e-12)

    def test_structural_relations_on_canonical_frames(self, entries, rng):
        frames = [
            canonical_frame(reeb_frame(e.structure))
            for e in entries
            if e.chi > 0
        ]
        for _ in range(25):
            c01_2 = float(rng.uniform(0.5, 3.0))
            c12_2 = float(rng.uniform(0.1, 2.0))
            frames.append(
                canonical_frame(
                    reeb_frame(frame_structure(c01_2=c01_2, c12_2=c12_2))
                )
            )
        for fr in frames:
            tol = 1e-9 * fr.scale**2
            assert abs(fr.c02_1 * fr.c12_2) <= tol
            assert abs(fr.c01_2 * fr.c12_1) <= tol

    def test_chi_zero_iff_bracket_form_vanishes(self, entries):
        for entry in entries:
            fr = reeb_frame(entry.structure)
            chi_is_zero = compute_chi(fr) <= 1e-9 * fr.scale
            form_is_zero = np.max(np.abs(bracket_form(fr))) <= 1e-9 * fr.scale
            assert chi_is_zero == form_is_zero, entry.name


def _qr_transverse(v, a, b):
    """Component of v orthogonal to span{a, b}, through a QR projection."""
    q, _ = np.linalg.qr(np.column_stack([a, b]))
    return v - q @ (q.T @ v)


def _rebuild_chain_reeb_frame(structure):
    """Reference Reeb frame: QR contact test and QR orientation."""
    algebra, v1, v2 = structure.algebra, structure.v1, structure.v2
    v = bracket(algebra, v1, v2)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or np.linalg.norm(_qr_transverse(v, v1, v2)) <= rel_tol() * norm:
        raise NotBracketGeneratingError("not bracket generating")
    f1, f2 = orthonormalize(structure)
    t = _qr_transverse(bracket(algebra, f2, f1), f1, f2)
    lead = next((x for x in t if abs(x) > rel_tol() * np.max(np.abs(t))), 0.0)
    if lead < 0:
        f1, f2 = f2, f1
    return frame_from_orthonormal(algebra, f1, f2)


def _rebuild_chain_canonical_frame(frame):
    """Reference canonical frame: rotate_frame, then one rebuild per sign flip."""
    a, b = frame.c01_1, 0.5 * (frame.c01_2 + frame.c02_1)
    rotated = rotate_frame(frame, (-0.5 * math.atan2(a, b)) % math.pi)
    if rotated.c12_1 < 0:
        rotated = frame_from_orthonormal(rotated.algebra, rotated.f1, -rotated.f2)
    if rotated.c12_2 < 0:
        rotated = frame_from_orthonormal(rotated.algebra, -rotated.f1, rotated.f2)
    return rotated


def test_single_builds_match_the_rebuild_chain(entries, rng):
    structures = [e.structure for e in entries]
    structures += [re_present(entries[k % len(entries)].structure, rng) for k in range(200)]
    for s in structures:
        reeb, expected_reeb = reeb_frame(s), _rebuild_chain_reeb_frame(s)
        assert np.allclose(reeb.constants, expected_reeb.constants, rtol=0, atol=1e-12)
        assert np.allclose(reeb.f0, expected_reeb.f0, rtol=0, atol=1e-12)
        if compute_chi(reeb) <= rel_tol() * reeb.scale:
            continue
        canon = canonical_frame(reeb)
        expected = _rebuild_chain_canonical_frame(expected_reeb)
        assert np.allclose(canon.constants, expected.constants, rtol=0, atol=1e-12)
        assert _chi_positive_case(canon) == _chi_positive_case(expected)
