import json

import pytest

from sr3d.classify import catalog, classify
from sr3d.cli import (
    EXIT_CERTIFICATION,
    EXIT_INTEGRATION,
    EXIT_JACOBI,
    EXIT_NOT_CONTACT,
    EXIT_OK,
    EXIT_PARSE,
    main,
    structure_from_dict,
    structure_to_dict,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def entry_file(tmp_path, entry):
    return write(
        tmp_path, f"{entry.name}.json", structure_to_dict(entry.name, entry.structure)
    )


@pytest.fixture()
def h3_file(tmp_path, entries):
    return entry_file(tmp_path, entries[0])


class TestClassifyCommand:
    def test_flat_structure(self, h3_file, capsys):
        assert main(["classify", "--input", h3_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "algebra: h3" in out
        assert "isometry_class_id: chi0.kappa0" in out

    def test_affine_structure_notes_shared_class(self, tmp_path, entries, capsys):
        path = entry_file(tmp_path, next(e for e in entries if e.name == "aplus"))
        assert main(["classify", "--input", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "chi0.kappa-1" in out
        assert "locally isometric to sl_e(2)" in out

    def test_json_output_is_valid_json(self, h3_file, capsys):
        assert main(["classify", "--input", h3_file, "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["algebra"] == "h3"
        assert data["chi"] == 0.0 and data["kappa"] == 0.0

    def test_not_bracket_generating_exit_code(self, tmp_path, capsys):
        path = write(
            tmp_path, "abelian.json",
            {"name": "abelian", "brackets": [], "span": [[1, 0, 0], [0, 1, 0]]},
        )
        assert main(["classify", "--input", path]) == EXIT_NOT_CONTACT
        assert "subalgebra" in capsys.readouterr().err

    def test_jacobi_violation_exit_code(self, tmp_path, capsys):
        path = write(
            tmp_path, "bad.json",
            {
                "name": "bad",
                "brackets": [
                    {"i": 0, "j": 1, "k": 0, "value": 1.0},
                    {"i": 1, "j": 2, "k": 1, "value": 1.0},
                ],
                "span": [[1, 0, 0], [0, 0, 1]],
            },
        )
        assert main(["classify", "--input", path]) == EXIT_JACOBI

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", "{nope")
        assert main(["classify", "--input", path]) == EXIT_PARSE

    def test_conflicting_duplicate_brackets_rejected(self, tmp_path):
        path = write(
            tmp_path, "dup.json",
            {
                "name": "dup",
                "brackets": [
                    {"i": 0, "j": 1, "k": 2, "value": 1.0},
                    {"i": 0, "j": 1, "k": 2, "value": 2.0},
                ],
                "span": [[1, 0, 0], [0, 1, 0]],
            },
        )
        assert main(["classify", "--input", path]) == EXIT_PARSE


class TestInvariantsCommand:
    def test_reports_raw_and_normalized_pair(self, tmp_path, entries, capsys):
        path = entry_file(tmp_path, next(e for e in entries if e.name == "se2"))
        assert main(["invariants", "--input", path, "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["raw_chi"] == pytest.approx(0.5, abs=1e-15)
        assert data["raw_kappa"] == pytest.approx(0.5, abs=1e-15)
        assert data["chi"] == pytest.approx(data["kappa"], abs=1e-15)
        assert data["chi"] ** 2 + data["kappa"] ** 2 == pytest.approx(1.0, abs=1e-12)


class TestRoundTrip:
    def test_catalog_file_round_trip_matches_in_memory(self, tmp_path, entries):
        for entry in entries:
            blob = json.dumps(structure_to_dict(entry.name, entry.structure))
            name, structure = structure_from_dict(json.loads(blob))
            assert name == entry.name
            direct = classify(entry.structure)
            reparsed = classify(structure)
            assert reparsed.algebra == direct.algebra
            assert reparsed.isometry_class_id == direct.isometry_class_id
            assert reparsed.case == direct.case
            assert reparsed.chi == direct.chi
            assert reparsed.kappa == direct.kappa


class TestCatalogAndFigure:
    def test_catalog_lists_all_entries(self, capsys):
        assert main(["catalog"]) == EXIT_OK
        out = capsys.readouterr().out
        for entry in catalog():
            assert entry.name in out

    def test_figure1_rows(self, tmp_path):
        out_path = tmp_path / "fig.csv"
        assert main(["figure1", "--out", str(out_path)]) == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "name,kappa,chi"
        assert "h3,0,0" in lines
        assert "su2_killing,1,0" in lines
        assert len(lines) - 1 >= 9

    def test_figure1_stdout(self, capsys):
        assert main(["figure1"]) == EXIT_OK
        assert "sl2_elliptic_killing,-1,0" in capsys.readouterr().out


class TestGeodesicCommand:
    def test_flat_straight_line_report(self, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        code = main(
            [
                "geodesic", "--model", "heisenberg", "--covector", "1,0,0",
                "--time", "1.0", "--steps", "500", "--out", str(out_csv), "--json",
            ]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["hamiltonian_drift"] <= 1e-10
        assert data["group_defect"] <= 1e-10
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("t,h1,h2,h0,g00")

    def test_bad_covector_is_parse_error(self, capsys):
        assert main(["geodesic", "--model", "sl2", "--covector", "1,2"]) == EXIT_PARSE

    def test_blow_up_exit_code(self, capsys):
        code = main(
            [
                "geodesic", "--model", "a_plus_r", "--covector", "1,0,0",
                "--time", "2000", "--steps", "100",
            ]
        )
        assert code == EXIT_INTEGRATION

    @pytest.mark.parametrize(
        "flag,value",
        [("--steps", "0"), ("--steps", "-3"), ("--time", "nan"), ("--time", "inf")],
    )
    def test_bad_steps_or_time_is_parse_error(self, capsys, flag, value):
        assert main(["geodesic", "--model", "sl2", flag, value]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_zero_covector_constant_trajectory(self, capsys):
        code = main(
            ["geodesic", "--model", "sl2", "--covector", "0,0,0", "--json"]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["endpoint"] == [[1.0, 0.0], [0.0, 1.0]]
        assert data["hamiltonian_drift"] == 0.0


class TestDistanceCommand:
    def test_identity_target(self, capsys):
        assert main(["distance", "--model", "sl2", "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["distance_estimate"] == 0.0
        assert data["converged"] is True

    def test_target_shape_mismatch(self, capsys):
        code = main(["distance", "--model", "sl2", "--target", "[1, 0, 0]"])
        assert code == EXIT_PARSE


class TestCertifyCommand:
    def test_small_run_passes(self, capsys):
        assert main(["certify-isometry", "--samples", "2", "--seed", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "psi_consistency" in out and "pass" in out

    def test_json_output_deterministic(self, capsys):
        args = ["certify-isometry", "--samples", "2", "--seed", "5", "--json"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert all(check["passed"] for check in payload["checks"])

    def test_mutated_map_fails_and_names_checks(self, capsys):
        code = main(
            [
                "certify-isometry", "--samples", "2", "--seed", "5",
                "--mutate", "psi-m12-sign",
            ]
        )
        assert code == EXIT_CERTIFICATION
        captured = capsys.readouterr()
        assert "certification failed" in captured.err
        assert "pushforward" in captured.err

    def test_unknown_mutation_rejected(self, capsys):
        code = main(["certify-isometry", "--samples", "1", "--mutate", "nope"])
        assert code == EXIT_PARSE

    def test_samples_zero_runs_fixed_point_checks_only(self, capsys):
        assert main(["certify-isometry", "--samples", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "psi_identity_fixed_point" in out
        assert "kernel_points" in out
        assert "psi_consistency" not in out


class TestSampleFiles:
    def test_shipped_examples_parse_and_classify(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "sample_structures"
        heis = root / "heisenberg.json"
        assert main(["classify", "--input", str(heis), "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["algebra"] == "h3"
        assert main(["classify", "--input", str(root / "abelian.json")]) == EXIT_NOT_CONTACT
        capsys.readouterr()
        assert main(["classify", "--input", str(root / "aplus.json"), "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["kappa"] == -1.0
