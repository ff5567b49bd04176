import itertools
import math

import numpy as np
import pytest

from sr3d.algebra import SE2, SH2, SOLV_MINUS, SOLV_PLUS, SU2, LieAlgebra3, is_unimodular
from sr3d.classify import (
    SL2_ELLIPTIC,
    SL2_HYPERBOLIC,
    catalog_entry,
    classify,
    _sl2_metric_split,
    figure1_data,
    solvable_ratio_check,
)
import sr3d.frames
import sr3d.invariants
from sr3d.frames import SRStructure, check_contact, reeb_frame
from sr3d.invariants import canonical_frame, compute_chi, compute_kappa

from conftest import frame_structure, re_present

SQ2 = math.sqrt(0.5)


class TestCatalogRoundTrip:
    def test_every_entry_classifies_to_its_expectation(self, entries):
        for entry in entries:
            label = classify(entry.structure)
            assert label.algebra == entry.algebra, entry.name
            assert label.case == entry.case, entry.name
            assert label.isometry_class_id == entry.isometry_class_id, entry.name
            assert label.chi == pytest.approx(entry.chi, abs=1e-12), entry.name
            assert label.kappa == pytest.approx(entry.kappa, abs=1e-12), entry.name

    def test_exactly_one_flat_entry(self, entries):
        flat = [e for e in entries if (e.chi, e.kappa) == (0.0, 0.0)]
        assert [e.name for e in flat] == ["h3"]

    def test_unimodularity_pattern(self, entries):
        expected = {
            "h3": True, "su2_killing": True, "sl2_elliptic_killing": True,
            "aplus": False, "se2": True, "sh2": True, "su2_round": True,
            "sl2_elliptic_skew": True, "sl2_hyperbolic": True,
            "sl2_hyperbolic_balanced": True, "solv_plus": False,
            "solv_minus": False,
        }
        for entry in entries:
            assert is_unimodular(entry.structure.algebra) == expected[entry.name]

    def test_shared_isometry_class(self):
        a = classify(catalog_entry("aplus").structure)
        b = classify(catalog_entry("sl2_elliptic_killing").structure)
        assert a.isometry_class_id == b.isometry_class_id == "chi0.kappa-1"
        assert a.algebra != b.algebra


class TestExamples:
    def test_heisenberg(self):
        label = classify(catalog_entry("h3").structure)
        assert (label.chi, label.kappa, label.algebra) == (0.0, 0.0, "h3")

    def test_su2_killing(self):
        label = classify(catalog_entry("su2_killing").structure)
        assert (label.chi, label.kappa) == (0.0, 1.0)
        assert label.algebra == SU2

    def test_skew_elliptic_example(self):
        # c01_2 = -1, c02_1 = 3 gives raw (chi, kappa) = (1, -2), case (i)(d).
        label = classify(frame_structure(c01_2=-1.0, c02_1=3.0))
        assert label.raw_chi == pytest.approx(1.0, abs=1e-12)
        assert label.raw_kappa == pytest.approx(-2.0, abs=1e-12)
        assert label.case == "(i)(d)"
        assert label.algebra == SL2_ELLIPTIC


class TestSignTable:
    def test_five_reachable_subcases(self):
        # Enumerate sign patterns of (c01_2, c02_1) over an integer grid in
        # the chi > 0 half and confirm the case split is exactly the five
        # expected subcases with the right invariant inequalities.
        reached = set()
        for a, b in itertools.product([-2, -1, 0, 1, 2], repeat=2):
            if a + b <= 0:
                continue
            label = classify(frame_structure(c01_2=float(a), c02_1=float(b)))
            chi, kappa = label.raw_chi, label.raw_kappa
            assert chi == pytest.approx((a + b) / 2, abs=1e-12)
            assert kappa == pytest.approx((a - b) / 2, abs=1e-12)
            if b == 0:
                assert label.algebra == SE2 and kappa == pytest.approx(chi)
            elif a == 0:
                assert label.algebra == SH2 and kappa == pytest.approx(-chi)
            elif a > 0 > b:
                assert label.algebra == SU2 and chi - kappa < 0
            elif a < 0 < b:
                assert label.algebra == SL2_ELLIPTIC and chi + kappa < 0
            else:
                assert label.algebra == SL2_HYPERBOLIC
                assert chi + kappa > 0 and chi - kappa > 0
            reached.add((label.case, label.algebra))
        assert reached == {
            ("(i)(a)", SE2),
            ("(i)(b)", SH2),
            ("(i)(c)", SU2),
            ("(i)(d)", SL2_ELLIPTIC),
            ("(i)(e)", SL2_HYPERBOLIC),
        }

    def test_case_split_is_mutually_exclusive(self, entries, rng):
        # For every canonical frame we produce, exactly one of the three
        # zero-pattern cases applies.
        frames = [
            canonical_frame(reeb_frame(e.structure)) for e in entries if e.chi > 0
        ]
        for _ in range(20):
            frames.append(
                canonical_frame(
                    reeb_frame(
                        frame_structure(
                            c02_1=float(rng.uniform(0.5, 3)),
                            c12_1=float(rng.uniform(0.1, 2)),
                        )
                    )
                )
            )
        for fr in frames:
            tol = 1e-9 * fr.scale
            z1, z2 = abs(fr.c12_1) <= tol, abs(fr.c12_2) <= tol
            za, zb = abs(fr.c01_2) <= tol, abs(fr.c02_1) <= tol
            matches = [
                z1 and z2,
                (not z2) and zb and z1,
                (not z1) and za and z2,
            ]
            assert sum(matches) == 1


    def test_chi_positive_sl2_case_agrees_with_the_killing_split(self, entries, rng):
        # When chi > 0 the case, not the Killing form, names the sl(2)
        # metric; the sign of Killing on the plane stays the oracle.
        copies = [entries[k % len(entries)] for k in range(200)]
        structures = [e.structure for e in entries] + [re_present(e.structure, rng) for e in copies]
        sl2_cases = ("(i)(d)", "(i)(e)")
        checked = 0
        for s in structures:
            label = classify(s)
            if label.case in sl2_cases:
                assert label.algebra == _sl2_metric_split(s), label.case
                checked += 1
        assert checked == sum(e.case in sl2_cases for e in list(entries) + copies)


class TestSolvableRatio:
    def test_degenerate_boundary_recovers_euclidean_case(self):
        # A "solv+"-shaped frame with c12_2 = 0 is the Euclidean-motions
        # case: the ratio is 0 and kappa = chi.
        fr = canonical_frame(reeb_frame(frame_structure(c01_2=2.0)))
        assert solvable_ratio_check(fr, SOLV_PLUS) == pytest.approx(0.0, abs=1e-12)
        assert compute_kappa(fr) == pytest.approx(compute_chi(fr), abs=1e-12)

    def test_integer_example_both_sides(self):
        # c01_2 = 2, c12_2 = 1: trace^2 = 1, det = 2, ratio = 1, hence
        # kappa = 0; the direct formula gives -1 + 1 = 0 as well.
        fr = reeb_frame(catalog_entry("solv_plus").structure)
        assert compute_kappa(fr) == pytest.approx(0.0, abs=1e-14)
        assert solvable_ratio_check(fr, SOLV_PLUS) == pytest.approx(0.0, abs=1e-12)

    def test_mirrored_example(self):
        # c02_1 = 2, c12_1 = 1: ratio = 2/(-2) = -1 = 1 + kappa/chi forces
        # kappa = -2 chi; directly (chi, kappa) = (1, -2).
        fr = reeb_frame(catalog_entry("solv_minus").structure)
        assert compute_chi(fr) == pytest.approx(1.0, abs=1e-14)
        assert compute_kappa(fr) == pytest.approx(-2.0, abs=1e-14)
        assert solvable_ratio_check(fr, SOLV_MINUS) == pytest.approx(0.0, abs=1e-12)

    def test_random_solvable_residuals(self, rng):
        for _ in range(50):
            if rng.uniform() < 0.5:
                s = frame_structure(
                    c01_2=float(rng.uniform(0.5, 3)),
                    c12_2=float(rng.uniform(0.1, 2)),
                )
                expected_label = SOLV_PLUS
            else:
                s = frame_structure(
                    c02_1=float(rng.uniform(0.5, 3)),
                    c12_1=float(rng.uniform(0.1, 2)),
                )
                expected_label = SOLV_MINUS
            label = classify(re_present(s, rng))
            assert label.algebra == expected_label
            assert solvable_ratio_check(label.frame, label.algebra) <= 1e-10

    def test_rejects_non_solvable_label(self):
        fr = reeb_frame(catalog_entry("se2").structure)
        with pytest.raises(ValueError, match="solvable"):
            solvable_ratio_check(fr, "se(2)")


def test_classify_builds_each_frame_once_without_qr(monkeypatch, entries, rng):
    structures = [e.structure for e in entries]
    structures += [re_present(e.structure, rng) for e in entries for _ in range(3)]
    calls = {"frame": 0, "qr": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    frame_builder = counted("frame", sr3d.frames.frame_from_orthonormal)
    monkeypatch.setattr(sr3d.frames, "frame_from_orthonormal", frame_builder)
    monkeypatch.setattr(sr3d.invariants, "frame_from_orthonormal", frame_builder)
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    most = 0
    for s in structures:
        calls.update(frame=0, qr=0)
        classify(s)
        assert calls["frame"] <= 2 and calls["qr"] == 0, calls
        most = max(most, calls["frame"])
    # The Reeb frame plus the canonical frame: the counter does see both.
    assert most == 2


def dilations(structure):
    """(gram x 10^k, constants x 10^k) for k in -150, -140, ..., 150: both
    rescale (chi, kappa) and leave the normalised pair alone."""
    algebra, span, gram = structure.algebra, structure.span, structure.gram
    for k in range(-150, 151, 10):
        yield SRStructure(algebra, span, gram * 10.0**k)
        yield SRStructure(LieAlgebra3(algebra.c * 10.0**k), span, gram)


class TestStability:
    def test_labels_invariant_under_presentation_changes(self, entries, rng):
        # Re-presentations to 1e-9, then dilations to 1e-12.  Tier-1 makes
        # every RuntimeWarning an error, so an under- or overflow (in the
        # sl(2) split's determinant, say) fails here too.
        for entry in entries:
            expected = classify(entry.structure)
            presented = [(re_present(entry.structure, rng), 1e-9) for _ in range(50)]
            for s, tol in presented + [(d, 1e-12) for d in dilations(entry.structure)]:
                assert check_contact(s), entry.name
                label = classify(s)
                assert label.algebra == expected.algebra, entry.name
                assert label.case == expected.case, entry.name
                assert label.isometry_class_id == expected.isometry_class_id, entry.name
                assert label.chi == pytest.approx(expected.chi, abs=tol)
                assert label.kappa == pytest.approx(expected.kappa, abs=tol)

    def test_at_most_three_classes_per_point_one_unimodular(self, entries):
        groups = {}
        for entry in entries:
            if abs(entry.chi**2 + entry.kappa**2 - 1.0) > 1e-9:
                continue  # the flat class is off the circle
            key = (round(entry.kappa, 9), round(entry.chi, 9))
            groups.setdefault(key, []).append(entry)
        assert groups, "catalog must populate the normalized circle"
        for key, group in groups.items():
            ids = {e.isometry_class_id for e in group}
            assert len(ids) <= 3, key
            unimodular = [e for e in group if is_unimodular(e.structure.algebra)]
            assert len({e.isometry_class_id for e in unimodular}) == 1, key

    def test_shared_point_has_two_distinct_classes(self, entries):
        point = (round(-2 / math.sqrt(5), 9), round(1 / math.sqrt(5), 9))
        names = {
            e.name
            for e in entries
            if (round(e.kappa, 9), round(e.chi, 9)) == point
        }
        assert names == {"sl2_elliptic_skew", "solv_minus"}


class TestFigure1:
    def test_rows(self):
        rows = {name: (kappa, chi) for name, kappa, chi in figure1_data()}
        assert rows["h3"] == (0.0, 0.0)
        assert rows["su2_killing"] == (1.0, 0.0)
        assert rows["se2"][0] == pytest.approx(SQ2, abs=1e-15)
        assert rows["se2"][1] == pytest.approx(SQ2, abs=1e-15)
        assert len(rows) >= 9

    def test_flat_rows_have_integer_kappa(self):
        for name, kappa, chi in figure1_data():
            if chi == 0.0:
                assert kappa in (-1.0, 0.0, 1.0), name
