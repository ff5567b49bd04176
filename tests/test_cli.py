import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sr3d import cli
from sr3d.algebra import LieAlgebra3
from sr3d.classify import catalog, classify
from sr3d.frames import SRStructure
from sr3d.cli import (
    EXIT_CERTIFICATION,
    EXIT_INTEGRATION,
    EXIT_JACOBI,
    EXIT_NOT_CONTACT,
    EXIT_OK,
    EXIT_PARSE,
    MAX_STEPS,
    StructureParseError,
    main,
    structure_from_dict,
    structure_to_dict,
)
from sr3d.geodesics import GeodesicState, build_model, integrate_geodesic

from conftest import ABELIAN_PLANES, abelian_plane, re_present


ABELIAN_PROBE_7919_8 = """{"name": "aplus", "brackets": [
        {"i": 0, "j": 1, "k": 0, "value": -0.5282614308232673},
        {"i": 0, "j": 1, "k": 1, "value": 0.3025504497687645},
        {"i": 0, "j": 1, "k": 2, "value": -0.2115538643016214},
        {"i": 0, "j": 2, "k": 0, "value": 0.06875691868851808},
        {"i": 0, "j": 2, "k": 1, "value": -0.039379056391654454},
        {"i": 0, "j": 2, "k": 2, "value": 0.027535214568588748},
        {"i": 1, "j": 2, "k": 0, "value": 0.9692941080544422},
        {"i": 1, "j": 2, "k": 1, "value": -0.5551424943006993},
        {"i": 1, "j": 2, "k": 2, "value": 0.3881750630254016}],
    "span": [[0.7344103005045166, -1.1896940895114612, -0.8396984617182379],
             [-0.5925089582494776, -0.16756470857338226, 0.24194993856237762]],
    "gram": [[0.23184964883320738, -0.0017405973421410462],
             [-0.0017405973421410462, 0.03240958697935446]]}"""
ABELIAN_PROBE_1_29 = """{"name": "aplus", "brackets": [
        {"i": 0, "j": 1, "k": 0, "value": 0.12589933986026938},
        {"i": 0, "j": 1, "k": 1, "value": -0.1063896162190819},
        {"i": 0, "j": 1, "k": 2, "value": -0.002827709516103931},
        {"i": 0, "j": 2, "k": 0, "value": 0.05939210112412428},
        {"i": 0, "j": 2, "k": 1, "value": -0.05018853039303747},
        {"i": 0, "j": 2, "k": 2, "value": -0.0013339514704087175},
        {"i": 1, "j": 2, "k": 0, "value": 1.315609565116442},
        {"i": 1, "j": 2, "k": 1, "value": -1.1117389247809832},
        {"i": 1, "j": 2, "k": 2, "value": -0.02954869891205129}],
    "span": [[0.19005458001288503, -0.20037739718993616, 0.8700798971265761],
             [-2.355690988002581, 0.07579186406076686, -0.08972290670976447]],
    "gram": [[4.820796497645487, -3.0171539289666605], [-3.0171539289666605, 8.93061147986568]]}"""


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

    # Abelian planes of a re-presented a(R)+R (abelian_probe_items(7919)[8]
    # and abelian_probe_items(1)[29] in benchmarks/workloads.py): [f2, f1] is
    # rounding noise, so a frame solve may find its basis singular.
    @pytest.mark.parametrize("doc", [ABELIAN_PROBE_7919_8, ABELIAN_PROBE_1_29],
                             ids=["probe-7919-8", "probe-1-29"])
    def test_rounding_noise_bracket_exit_code(self, tmp_path, capsys, doc):
        path = write(tmp_path, "noise.json", doc)
        assert main(["classify", "--input", path]) == EXIT_NOT_CONTACT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("name, pair", ABELIAN_PLANES, ids=[n for n, _ in ABELIAN_PLANES])
    def test_re_presented_abelian_plane_exit_code(self, tmp_path, capsys, name, pair):
        rng = np.random.default_rng([32, ABELIAN_PLANES.index((name, pair))])
        for draw in range(60):
            path = write(tmp_path, "plane.json",
                         structure_to_dict(name, re_present(abelian_plane(name, pair), rng)))
            assert main(["classify", "--input", path]) == EXIT_NOT_CONTACT
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (draw, err)

    @staticmethod
    def _h3_of_size(tmp_path, value):
        return write(tmp_path, "h3.json", {"brackets": [{"i": 0, "j": 1, "k": 2, "value": value}],
                                           "span": [[1, 0, 0], [0, 1, 0]]})

    @pytest.mark.parametrize("value", [1e200, 1e300])
    def test_constants_whose_squares_overflow_are_one_error_line(self, tmp_path, capsys, value):
        path = self._h3_of_size(tmp_path, value)
        for command in ("classify", "invariants"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, "--input", path]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("error: structure constants too large") and err.count("\n") == 1
            assert f"{value:.3g}" in err, err

    def test_constants_of_any_size_classify_or_are_refused(self, tmp_path, capsys):
        path = self._h3_of_size(tmp_path, 1e150)
        assert main(["classify", "--input", path]) == EXIT_OK
        assert "algebra: h3" in capsys.readouterr().out
        codes = set()
        for k in range(100, 309):
            path = self._h3_of_size(tmp_path, 10.0**k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["classify", "--input", path])
            out, err = capsys.readouterr()
            assert (code, "algebra: h3" in out) in {(EXIT_OK, True), (EXIT_PARSE, False)}, (k, err)
            codes.add(code)
        assert codes == {EXIT_OK, EXIT_PARSE}

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

    def test_small_jacobi_violation_exit_code(self, tmp_path):
        # A random tensor breaks Jacobi by a residual of order max|c|^2: here
        # ~1.2e-14, which a tolerance not scaled with max|c|^2 would pass.
        c = np.random.default_rng(2).normal(size=(3, 3, 3))
        algebra = LieAlgebra3(1e-7 * (c - np.swapaxes(c, 0, 1)))
        payload = structure_to_dict("small", SRStructure(algebra, np.eye(3)[:2], np.eye(2)))
        assert main(["classify", "--input", write(tmp_path, "small.json", payload)]) == EXIT_JACOBI

    def test_non_finite_gram_is_one_error_line(self, tmp_path, capsys):
        path = write(
            tmp_path, "nan_gram.json",
            '{"name": "h3", "brackets": [{"i": 0, "j": 1, "k": 2, "value": 1}], '
            '"span": [[1, 0, 0], [0, 1, 0]], "gram": [[NaN, 0], [0, 1]]}',
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classify", "--input", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "finite" in err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", "{nope")
        assert main(["classify", "--input", path]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "payload",
        [
            '{"brackets": [{"i": Infinity, "j": 1, "k": 2, "value": 1}], "span": %s}',
            '{"brackets": [{"i": 0, "j": 1, "k": 2, "value": 1%s}], "span": %%s}' % ("0" * 400),
            '{"brackets": [], "span": [[1%s, 0, 0], [0, 1, 0]]}' % ("0" * 400),
            '{"brackets": [{"i": 0, "j": 1, "k": 2, "value": 1%s}], "span": %%s}' % ("0" * 4400),
            '{"brackets": [{"i": 0.7, "j": 1.9, "k": 2, "value": 1}], "span": %s}',
            "[" * 100000 + "]" * 100000,
        ],
        ids=["infinite-index", "huge-value", "huge-span-entry", "over-digit-limit",
             "non-integral-index", "deep-nesting"],
    )
    def test_malformed_file_is_one_error_line(self, tmp_path, capsys, payload):
        if "%s" in payload:
            payload = payload % "[[1, 0, 0], [0, 1, 0]]"
        path = write(tmp_path, "malformed.json", payload)
        assert main(["classify", "--input", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err[:200]

    def test_long_bracket_value_is_one_short_error_line(self, tmp_path, capsys):
        payload = ('{"brackets": [{"i": 0, "j": 1, "k": 2, "value": 1%s}], '
                   '"span": [[1, 0, 0], [0, 1, 0]]}' % ("0" * 3999))
        assert main(["classify", "--input", write(tmp_path, "long.json", payload)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: malformed bracket entry") and err.count("\n") == 1
        assert len(err.rstrip("\n")) <= 200, err[:300]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_value_past_the_digit_limit_is_a_parse_error(self, sign):
        # Only Python callers reach this: the JSON decoder refuses such ints.
        data = {"brackets": [{"i": 0, "j": 1, "k": 2, "value": sign * 10**5000}],
                "span": [[1, 0, 0], [0, 1, 0]]}
        with pytest.raises(StructureParseError, match="^malformed bracket entry") as err:
            structure_from_dict(data)
        assert len(str(err.value)) <= 200

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

    def test_brackets_written_both_ways_must_agree(self, tmp_path):
        rows = [{"i": 0, "j": 1, "k": 2, "value": 1.0}, {"i": 1, "j": 0, "k": 2, "value": 1.0}]
        data = {"name": "both", "brackets": rows, "span": [[1, 0, 0], [0, 1, 0]]}
        with pytest.raises(StructureParseError):
            structure_from_dict(data)
        assert main(["classify", "--input", write(tmp_path, "both.json", data)]) == EXIT_PARSE
        rows[1]["value"] = -1.0
        _, structure = structure_from_dict(data)
        assert structure.algebra.c[0, 1, 2] == 1.0 and structure.algebra.c[1, 0, 2] == -1.0


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

    def test_figure1_unwritable_out_is_parse_error(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "fig.csv")
        assert main(["figure1", "--out", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1, captured.err


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

    def test_unwritable_out_is_parse_error(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "traj.csv")
        assert main(["geodesic", "--model", "sl2", "--steps", "10", "--out", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1, captured.err

    def test_unwritable_out_fails_before_the_flight(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the geodesic command flew before it opened --out")

        monkeypatch.setattr(cli, "integrate_geodesic", unreachable)
        path = str(tmp_path / "missing" / "traj.csv")
        assert main(["geodesic", "--model", "sl2", "--steps", "10", "--out", path]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")

    def test_failed_flight_leaves_no_out_file(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        code = main(["geodesic", "--model", "sl2", "--covector", "0.8,0.6,0.7",
                     "--time", "1e6", "--steps", "10", "--out", str(path)])
        assert code == EXIT_INTEGRATION
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

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

    def test_steps_above_the_limit_fail_before_the_flight(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the geodesic command went past its --steps check")

        monkeypatch.setattr(cli, "build_model", unreachable)
        monkeypatch.setattr(cli, "integrate_geodesic", unreachable)
        assert MAX_STEPS == 10**7
        code = main(["geodesic", "--model", "sl2", "--steps", str(MAX_STEPS + 1)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        with pytest.raises(SystemExit):
            main(["geodesic", "--help"])
        assert str(MAX_STEPS) in capsys.readouterr().out

    @pytest.mark.parametrize("covector", ["nan,0,0", "1,inf,0", "0,0,-inf"])
    def test_non_finite_covector_is_parse_error(self, capsys, covector):
        assert main(["geodesic", "--model", "sl2", "--covector", covector]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("covector", ["1e155,0,0", "0,-1e155,0", "1e154,1e154,0"])
    def test_overflowing_covector_norm_is_parse_error(self, capsys, covector):
        # Each entry is finite, but H = (h1^2 + h2^2) / 2 is not, so the
        # flight would report a NaN drift that JSON cannot carry.
        code = main(["geodesic", "--model", "heisenberg", "--covector", covector,
                     "--time", "1e-160", "--steps", "10", "--json"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

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

    def test_non_finite_target(self, capsys):
        code = main(["distance", "--model", "sl2", "--target", "[[NaN, 0], [0, 1]]"])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_overflowing_target_norm(self, capsys):
        # Norm 1e200 is a float, but its square, like the search's squared
        # residual, is not: the message names the squared norm.
        for target in ("[[1e300, 0], [0, 1e-300]]", "[[1e200, 0], [0, 1e-200]]"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["distance", "--model", "sl2", "--target", target])
            assert code == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "squared norm overflows" in err, err


    @pytest.mark.parametrize("model, target", [
        ("su2", "[0, 0, 0, 0]"), ("sl2", "[[1, 2], [0.5, 1]]"), ("sl2", "[[1, 0], [0, 1.001]]"),
        ("a_plus_r", "[[-1, 0, 0.2], [0, 1, 0.3], [0, 0, 1]]"),
    ])
    def test_off_group_target_is_parse_error(self, capsys, model, target):
        assert main(["distance", "--model", model, "--target", target]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize("as_json", [False, True])
    def test_notes_say_whether_the_estimate_is_a_distance(self, capsys, as_json):
        flag = ["--json"] if as_json else []
        # One refinement iteration leaves this target's error at ~7e-3.
        far = ["--target", "[[1.2, 0.3], [0.5, 0.9583333333333334]]", "--budget", "1"]
        notes = {}
        for name, argv, code in (("converged", [], EXIT_OK), ("open", far, EXIT_INTEGRATION)):
            assert main(["distance", "--model", "sl2", *argv, *flag]) == code
            out = capsys.readouterr().out
            notes[name] = (json.loads(out)["note"] if as_json else
                           next(line for line in out.splitlines() if line.startswith("note: "))[6:])
        assert notes["converged"] == "heuristic shooting estimate; not a proof of optimality"
        assert notes["open"] == ("not converged: distance_estimate is the flight time of the "
                                 "closest endpoint found, not a distance")

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_bad_budget_is_parse_error(self, capsys, budget):
        assert main(["distance", "--model", "sl2", "--budget", budget]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"error: budget must be >= 1, got {budget}\n"

    @pytest.mark.parametrize(
        "target", ["[[1%s, 0], [0, 1]]" % ("0" * 400), "[" * 100000 + "]" * 100000,
                   "{}", "[[1,0],[0,{}]]"],
        ids=["too-large-for-a-float", "deep-nesting", "object", "object-entry"],
    )
    def test_unreadable_target_is_parse_error(self, capsys, target):
        assert main(["distance", "--model", "sl2", "--target", target]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


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

    def test_negative_samples_is_parse_error(self, capsys):
        assert main(["certify-isometry", "--samples", "-2"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == "error: --samples must be >= 0, got -2\n"
        assert captured.out == ""

    def test_samples_above_the_limit_fail_before_the_battery(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("certify-isometry went past its --samples check")

        monkeypatch.setattr(cli.isometry, "run_certification", unreachable)
        assert cli._MAX_SAMPLES == 150_000
        code = main(["certify-isometry", "--samples", str(cli._MAX_SAMPLES + 1)])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == "error: --samples must be <= 150000, got 150001\n"
        assert captured.out == ""
        with pytest.raises(SystemExit):
            main(["certify-isometry", "--help"])
        assert "0 to 150000" in capsys.readouterr().out

    def test_negative_seed_is_parse_error(self, capsys):
        assert main(["certify-isometry", "--samples", "1", "--seed", "-1"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_samples_zero_runs_fixed_point_checks_only(self, capsys):
        assert main(["certify-isometry", "--samples", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "psi_identity_fixed_point" in out
        assert "kernel_points" in out
        assert "psi_consistency" not in out


SAMPLES = pathlib.Path(__file__).resolve().parents[1] / "sample_structures"


class TestSampleFiles:
    def test_shipped_examples_parse_and_classify(self, capsys):
        heis = SAMPLES / "heisenberg.json"
        assert main(["classify", "--input", str(heis), "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["algebra"] == "h3"
        assert main(["classify", "--input", str(SAMPLES / "abelian.json")]) == EXIT_NOT_CONTACT
        capsys.readouterr()
        assert main(["classify", "--input", str(SAMPLES / "aplus.json"), "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["kappa"] == -1.0

    @pytest.mark.parametrize("name", sorted(p.name for p in SAMPLES.glob("*.json")))
    def test_dilated_examples_give_the_same_normalised_invariants(self, tmp_path, capsys, name):
        data = json.loads((SAMPLES / name).read_text())

        def invariants(payload):
            code = main(["invariants", "--input", write(tmp_path, name, payload), "--json"])
            out = capsys.readouterr().out
            return code, json.loads(out) if code == EXIT_OK else None

        code, want = invariants(data)
        gram = np.asarray(data.get("gram", np.eye(2)))
        for k in (-150, -70, 70, 150):
            rows = [{**row, "value": row["value"] * 10.0**k} for row in data["brackets"]]
            for dilated in ({**data, "gram": (gram * 10.0**k).tolist()}, {**data, "brackets": rows}):
                got_code, got = invariants(dilated)
                assert got_code == code, (k, dilated)
                if code == EXIT_OK:
                    assert got["chi"] == pytest.approx(want["chi"], abs=1e-12), k
                    assert got["kappa"] == pytest.approx(want["kappa"], abs=1e-12), k


def test_render_json_maps_non_finite_floats_to_null():
    nan, inf = float("nan"), float("inf")
    text = cli.render_json({"a": [nan, inf, -inf, 1.5], "b": np.float64(-inf)})
    assert json.loads(text) == {"a": [None, None, None, 1.5], "b": None}
    # Finite floats keep their 17-digit rendering.
    assert cli.render_json([0.1, -2.5e-300, np.float64(1 / 3)]) == (
        "[0.10000000000000001, -2.5e-300, 0.33333333333333331]"
    )


def test_every_subcommand_runs_without_scipy():
    # Run in a fresh interpreter: this one has scipy loaded by the tests.
    root = pathlib.Path(__file__).resolve().parents[1]
    heis = str(root / "sample_structures" / "heisenberg.json")
    # A refining query: the endpoint of a known geodesic, not the identity.
    model = build_model("sl2")
    flight = integrate_geodesic(model, model.frame, GeodesicState(model.identity, 0.6, 0.8, 0.5),
                                0.3, 400)
    target = json.dumps(flight.endpoint.tolist())
    argvs = [["catalog"], ["figure1"], ["classify", "--input", heis],
             ["invariants", "--input", heis], ["geodesic", "--model", "sl2", "--steps", "10"],
             ["certify-isometry", "--samples", "1"], ["distance", "--model", "sl2"],
             ["distance", "--model", "sl2", "--target", target]]
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from sr3d import geodesics\n"
        "model = geodesics.build_model('sl2')\n"
        f"shot = geodesics.shoot_distance(model, np.array({target}))\n"
        "unloaded = 'scipy' not in sys.modules\n"
        "sys.modules['scipy'] = None  # any import of scipy now fails\n"
        "import sr3d.cli\n"
        f"codes = [sr3d.cli.main(argv) for argv in {argvs!r}]\n"
        "loaded = sorted(m for m, v in sys.modules.items() if m.split('.')[0] == 'scipy' and v)\n"
        "print(json.dumps([shot.distance, unloaded, codes, loaded]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    distance, unloaded, codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert distance == pytest.approx(0.3, abs=1e-6)
    assert unloaded
    assert codes == [EXIT_OK] * len(argvs)
    assert loaded == []


@pytest.mark.parametrize("value", ["abc", "0", "-1e-9"])
def test_bad_tolerance_setting_is_parse_error(monkeypatch, capsys, h3_file, value):
    monkeypatch.setenv("SR3D_TOL", value)
    for argv in (["catalog"], ["figure1"], ["classify", "--input", h3_file],
                 ["invariants", "--input", h3_file], ["geodesic", "--model", "sl2"],
                 ["distance", "--model", "sl2"], ["certify-isometry", "--samples", "0"]):
        assert main(argv) == EXIT_PARSE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: SR3D_TOL") and err.count("\n") == 1, err


# JSON-shaped values: ints up to the decoder's 4300-digit limit, floats with
# inf and NaN, strings, bools and None, nested in lists and objects.  Rows and
# matrices of the expected shape are drawn often, so bad entries reach the
# conversions behind the shape checks.
_SCALAR = (
    st.none() | st.booleans() | st.text(max_size=3) | st.integers(-3, 3)
    | st.integers(-(10**1000), 10**1000) | st.floats(allow_nan=True, allow_infinity=True)
)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["i", "j", "k", "value"]), inner, max_size=4),
    max_leaves=20,
)


def _rows_of(width, count):
    return st.lists(st.lists(_SCALAR, min_size=width, max_size=width),
                    min_size=count, max_size=count)


_INDEX = st.integers(0, 2) | _SCALAR
_BRACKET_ROW = st.fixed_dictionaries(
    {"i": _INDEX, "j": _INDEX, "k": _INDEX, "value": _SCALAR}
) | st.dictionaries(st.sampled_from(["i", "j", "k", "value"]), _JSON)


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    "name": st.text(max_size=5) | _JSON,
    "brackets": st.lists(_BRACKET_ROW, max_size=3) | _JSON,
    "span": _rows_of(3, 2) | _JSON,
    "gram": _rows_of(2, 2) | _JSON,
}))
def test_parser_returns_or_raises_parse_error(data):
    try:
        structure_from_dict(data)
    except StructureParseError:
        pass
