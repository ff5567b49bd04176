"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is fixed; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
from scipy.linalg import expm

from sr3d.algebra import SOLV_MINUS, SOLV_PLUS
from sr3d.classify import catalog, catalog_entry, classify, solvable_ratio_check
from sr3d.cli import PSI_MUTANTS
from sr3d.frames import SRStructure, reeb_frame, rotate_frame
from sr3d.geodesics import (
    GeodesicState,
    MODEL_IDS,
    build_model,
    integrate_geodesic,
    vertical_rhs,
)
from sr3d.invariants import compute_chi, compute_kappa
from sr3d import isometry as iso

from conftest import frame_structure, re_present


def _report(criterion: int, passed: bool, details: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {details}")
    assert passed, f"criterion {criterion}: {details}"


def test_criterion_1_invariant_values():
    t0 = time.perf_counter()
    got = {e.name: classify(e.structure) for e in catalog()}
    checks = {
        "h3": (0.0, 0.0),
        "su2_killing": (0.0, 1.0),
        "sl2_elliptic_killing": (0.0, -1.0),
        "aplus": (0.0, -1.0),
    }
    worst = 0.0
    for name, (chi, kappa) in checks.items():
        worst = max(worst, abs(got[name].chi - chi), abs(got[name].kappa - kappa))
    worst = max(worst, abs(got["se2"].chi - got["se2"].kappa))
    worst = max(worst, abs(got["sh2"].chi + got["sh2"].kappa))
    elapsed = time.perf_counter() - t0
    _report(
        1, worst <= 1e-12 and elapsed < 1.0,
        f"max invariant gap {worst:.2e} (tol 1e-12), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_classification_stability():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1201)
    stable = True
    worst_structural = 0.0
    for entry in catalog():
        expected = classify(entry.structure)
        for trial in range(100):
            if trial % 2 == 0:
                # pure frame rotation of the generators
                theta = rng.uniform(0, 2 * math.pi)
                c, s = math.cos(theta), math.sin(theta)
                presented = SRStructure(
                    entry.structure.algebra,
                    np.array([[c, s], [-s, c]]) @ entry.structure.span,
                    entry.structure.gram,
                )
            else:
                presented = re_present(entry.structure, rng)
            label = classify(presented)
            stable &= (
                label.algebra == expected.algebra
                and label.case == expected.case
                and label.isometry_class_id == expected.isometry_class_id
            )
            if label.raw_chi > 1e-9 * label.frame.scale:
                fr = label.frame
                worst_structural = max(
                    worst_structural,
                    abs(fr.c02_1 * fr.c12_2),
                    abs(fr.c01_2 * fr.c12_1),
                )
    elapsed = time.perf_counter() - t0
    _report(
        2, stable and worst_structural <= 1e-9 and elapsed < 10.0,
        f"labels stable over 1200 presentations, structural residual "
        f"{worst_structural:.2e} (tol 1e-9), runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_3_solvable_relations():
    rng = np.random.default_rng(1301)
    worst = 0.0
    for name, label in (("solv_plus", SOLV_PLUS), ("solv_minus", SOLV_MINUS)):
        result = classify(catalog_entry(name).structure)
        worst = max(worst, solvable_ratio_check(result.frame, label))
    for _ in range(50):
        if rng.uniform() < 0.5:
            s = frame_structure(
                c01_2=float(rng.uniform(0.5, 3.0)), c12_2=float(rng.uniform(0.1, 2.0))
            )
        else:
            s = frame_structure(
                c02_1=float(rng.uniform(0.5, 3.0)), c12_1=float(rng.uniform(0.1, 2.0))
            )
        result = classify(re_present(s, rng))
        assert result.algebra in (SOLV_PLUS, SOLV_MINUS)
        worst = max(worst, solvable_ratio_check(result.frame, result.algebra))
    _report(3, worst <= 1e-10, f"max ratio residual {worst:.2e} (tol 1e-10)")


def test_criterion_4_dilation_homogeneity():
    rng = np.random.default_rng(1401)
    worst = 0.0
    for entry in catalog():
        fr = reeb_frame(entry.structure)
        chi, kappa = compute_chi(fr), compute_kappa(fr)
        for _ in range(10):
            lam = float(rng.uniform(0.1, 10.0))
            scaled = SRStructure(
                entry.structure.algebra,
                np.vstack([lam * fr.f1, lam * fr.f2]),
                np.eye(2),
            )
            fr2 = reeb_frame(scaled)
            denom = max(1.0, lam**2 * max(abs(chi), abs(kappa)))
            worst = max(
                worst,
                abs(compute_chi(fr2) - lam**2 * chi) / denom,
                abs(compute_kappa(fr2) - lam**2 * kappa) / denom,
            )
    _report(4, worst <= 1e-10, f"max relative scaling gap {worst:.2e} (tol 1e-10)")


def test_criterion_5_geodesic_conservation_and_order():
    drift = 0.0
    defect = 0.0
    ratios = {}
    covectors = {
        "heisenberg": (1.0, 0.0, 1.0),
        "a_plus_r": (0.8, 0.6, 0.7),
        "sl2": (0.8, 0.6, 0.7),
        "su2": (0.8, 0.6, 0.7),
    }
    for mid in MODEL_IDS:
        model = build_model(mid)
        cov = covectors[mid]
        traj = integrate_geodesic(
            model, model.frame, GeodesicState(model.identity, *cov), 5.0, 5000
        )
        drift = max(drift, traj.hamiltonian_drift())
        defect = max(defect, traj.max_group_defect)

        def end(n):
            return integrate_geodesic(
                model, model.frame, GeodesicState(model.identity, *cov), 5.0, n
            ).endpoint

        ref = end(3200)
        ratios[mid] = float(
            np.linalg.norm(end(100) - ref) / np.linalg.norm(end(200) - ref)
        )
    order_ok = all(16.0 * 0.8 <= r <= 16.0 * 1.2 for r in ratios.values())
    _report(
        5, drift <= 1e-9 and defect <= 1e-8 and order_ok,
        f"drift {drift:.2e} (tol 1e-9), defect {defect:.2e} (tol 1e-8), "
        f"halving ratios {({k: round(v, 2) for k, v in ratios.items()})}",
    )


def test_criterion_6_flat_closed_forms():
    model = build_model("heisenberg")
    traj = integrate_geodesic(
        model, model.frame, GeodesicState(model.identity, 1.0, 0.0, 1.0), 5.0, 5000
    )
    t = traj.times
    vertical_gap = max(
        float(np.max(np.abs(traj.covectors[:, 0] - np.cos(t)))),
        float(np.max(np.abs(traj.covectors[:, 1] + np.sin(t)))),
    )
    straight = integrate_geodesic(
        model, model.frame, GeodesicState(model.identity, 1.0, 0.0, 0.0), 1.0, 1000
    )
    endpoint_gap = float(np.max(np.abs(straight.endpoint - expm(model.a1))))
    _report(
        6, vertical_gap <= 1e-9 and endpoint_gap <= 1e-10,
        f"vertical closed-form gap {vertical_gap:.2e} (tol 1e-9), "
        f"endpoint gap {endpoint_gap:.2e} (tol 1e-10)",
    )


def test_criterion_7_isometry_certification():
    t0 = time.perf_counter()
    results = {r.name: r for r in iso.run_certification(samples=50, seed=42)}
    required = {
        "psi_consistency": 1000,
        "nagano_intertwining": 50,
        "nagano_discretisation": 50,
        "pushforward_decay": 20,
        "psi_identity_fixed_point": 1,
        "psi_nonhomomorphism_product": 1,
    }
    ok = True
    for name, min_samples in required.items():
        ok &= results[name].passed and results[name].samples >= min_samples
    elapsed = time.perf_counter() - t0
    details = ", ".join(
        f"{n}={results[n].max_residual:.1e}" for n in required
    )
    _report(7, ok and elapsed < 60.0, f"{details}, runtime {elapsed:.1f}s (< 60s)")


def test_criterion_8_kernel_points_and_centrality():
    worst = 0.0
    for k in range(-2, 3):
        p = iso.map_F(0.0, 0.0, 2.0 * math.pi * k)
        worst = max(worst, abs(p.x), abs(p.y + 1.0), abs(p.z + 4.0 * math.pi * k))
    central = iso.quotient_check(range(-2, 3))
    _report(
        8, worst <= 1e-12 and central,
        f"kernel point gap {worst:.2e} (tol 1e-12), centrality exact: {central}",
    )


# --- criterion 9: mutation sensitivity ---------------------------------------


def _mutated_rhs(site):
    signs = [1.0] * 7
    signs[site] = -1.0

    def rhs(frame, h1, h2, h0):
        w = (
            signs[4] * frame.c12_1 * h1
            + signs[5] * frame.c12_2 * h2
            + signs[6] * h0
        )
        dh1 = signs[0] * (w * h2)
        dh2 = signs[1] * (-w * h1)
        dh0 = signs[2] * ((frame.c01_1 * h1 + frame.c01_2 * h2) * h1) + signs[3] * (
            (frame.c02_1 * h1 + frame.c02_2 * h2) * h2
        )
        return dh1, dh2, dh0

    return rhs


def _integrate_vertical(rhs, frame, h, t_final, steps):
    # Mutated right-hand sides may blow up (that is the point); keep the
    # overflow quiet and let the checks see the junk values.
    h = np.array(h, dtype=float)
    out = np.empty((steps + 1, 3))
    out[0] = h
    dt = t_final / steps
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps):
            k1 = np.array(rhs(frame, *h))
            k2 = np.array(rhs(frame, *(h + 0.5 * dt * k1)))
            k3 = np.array(rhs(frame, *(h + 0.5 * dt * k2)))
            k4 = np.array(rhs(frame, *(h + dt * k3)))
            h = h + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            out[n + 1] = h
    return out


def _vertical_checks(rhs):
    """The certification battery for the covector equations; True = passed."""
    flat = reeb_frame(catalog_entry("h3").structure)
    hs = _integrate_vertical(rhs, flat, (1.0, 0.0, 1.0), 5.0, 2000)
    t = np.linspace(0.0, 5.0, 2001)
    closed_form = (
        float(np.max(np.abs(hs[:, 0] - np.cos(t)))) <= 1e-9
        and float(np.max(np.abs(hs[:, 1] + np.sin(t)))) <= 1e-9
    )

    with np.errstate(over="ignore", invalid="ignore"):
        generic = rotate_frame(reeb_frame(catalog_entry("solv_minus").structure), 0.3)
        hs = _integrate_vertical(rhs, generic, (0.8, 0.6, 0.7), 5.0, 2000)
        energy = hs[:, 0] ** 2 + hs[:, 1] ** 2
        energy_ok = float(np.max(np.abs(energy - energy[0]))) <= 1e-9

        simple = reeb_frame(catalog_entry("sl2_elliptic_killing").structure)
        hs = _integrate_vertical(rhs, simple, (0.8, 0.6, 0.7), 5.0, 2000)
        casimir = hs[:, 0] ** 2 + hs[:, 1] ** 2 - hs[:, 2] ** 2
        casimir_ok = float(np.max(np.abs(casimir - casimir[0]))) <= 1e-9

    # Bracket-tensor oracle on a frame with every constant nonzero.
    from sr3d.algebra import bracket

    basis = np.column_stack([generic.f1, generic.f2, generic.f0])
    fields = [generic.f1, generic.f2, generic.f0]
    gamma = np.array(
        [
            [np.linalg.solve(basis, bracket(generic.algebra, fields[i], fields[k]))
             for i in range(3)]
            for k in range(3)
        ]
    )
    rng = np.random.default_rng(1901)
    oracle_ok = True
    for _ in range(20):
        h = rng.normal(size=3)
        expected = [
            sum(h[i] * float(gamma[k, i] @ h) for i in range(2)) for k in range(3)
        ]
        got = rhs(generic, *h)
        oracle_ok &= float(np.max(np.abs(np.array(got) - expected))) <= 1e-10
    return {
        "closed_form": closed_form,
        "energy": energy_ok,
        "casimir": casimir_ok,
        "bracket_oracle": oracle_ok,
    }


def test_criterion_9_mutation_sensitivity():
    # The untouched implementations must pass their own batteries, so a
    # mutant failure is meaningful.
    baseline = _vertical_checks(vertical_rhs)
    assert all(baseline.values()), baseline
    clean = {r.name: r.passed for r in iso.run_certification(samples=3, seed=11)}
    assert all(clean.values()), clean

    undetected = []
    for site in range(7):
        checks = _vertical_checks(_mutated_rhs(site))
        if all(checks.values()):
            undetected.append(f"vertical site {site}")
    for name, kwargs in PSI_MUTANTS.items():
        def psi(rho, theta, phi, _kw=kwargs):
            return iso.psi_entries(rho, theta, phi, **_kw)

        results = iso.run_certification(samples=3, seed=11, psi=psi)
        if all(r.passed for r in results):
            undetected.append(name)
    _report(
        9, not undetected,
        "every single-sign mutation tripped at least one check"
        if not undetected
        else f"undetected mutations: {undetected}",
    )
