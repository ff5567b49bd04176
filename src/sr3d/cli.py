"""Command-line front end.

Subcommands: classify, invariants, catalog, figure1, geodesic, distance,
certify-isometry.  Structure files are JSON with sparse antisymmetric
brackets; see README for the schema.  Exit codes: 0 success, 2 parse error,
3 distribution not bracket generating, 4 Jacobi failure, 5 integration
blow-up / shooting non-convergence, 6 certification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import reprlib
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from . import isometry
from .algebra import LieAlgebra3, check_jacobi
from .classify import SL2_ELLIPTIC, CatalogEntry, catalog, classify, figure1_data
from .config import rel_tol
from .frames import NotBracketGeneratingError, SRStructure, reeb_frame
from .geodesics import (
    GeodesicState,
    IntegrationBlowUpError,
    MODEL_IDS,
    build_model,
    integrate_geodesic,
    shoot_distance,
    trajectory_to_csv,
)
from .invariants import compute_chi, compute_kappa, normalize

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_CONTACT = 3
EXIT_JACOBI = 4
EXIT_INTEGRATION = 5
EXIT_CERTIFICATION = 6

# Largest `geodesic --steps`: the trajectory it keeps is 8 bytes per float,
# (4 + 9) floats a step on a 3x3 model, ~1 GB at this bound.
MAX_STEPS = 10**7
_MAX_SAMPLES = 150_000  # certify-isometry: ~6.5 KB of peak memory a sample, ~1 GB


class StructureParseError(ValueError):
    pass


class _BoundedRepr(reprlib.Repr):
    def repr_int(self, x, level):
        # repr() raises ValueError past sys.get_int_max_str_digits() digits,
        # so an int too long to print whole is described by its size.
        if x.bit_length() > 4 * self.maxlong:
            return f"<int of {x.bit_length()} bits>"
        return super().repr_int(x, level)


# Echoes a bracket row in an error message at a bounded length, whatever
# the row holds: an int of up to 64 bits prints as its ends around "...", a
# longer one as its bit length.
_ROW_REPR = _BoundedRepr()
_ROW_REPR.maxlevel = 2
_ROW_REPR.maxdict = _ROW_REPR.maxlist = 4
_ROW_REPR.maxstring = _ROW_REPR.maxlong = _ROW_REPR.maxother = 16


# --- structure files ---------------------------------------------------------

def structure_from_dict(data: Dict[str, Any]) -> tuple[str, SRStructure]:
    """Build (name, structure) from the JSON schema; raises StructureParseError."""
    if not isinstance(data, dict):
        raise StructureParseError("top-level JSON value must be an object")
    name = data.get("name", "unnamed")
    if not isinstance(name, str):
        raise StructureParseError("'name' must be a string")
    brackets = data.get("brackets")
    if not isinstance(brackets, list):
        raise StructureParseError("'brackets' must be a list of {i,j,k,value}")
    # Rows grouped into [e_i, e_j] per (i, j) as written; from_brackets
    # rejects rows for (i, j) and (j, i) that disagree.
    grouped: Dict[tuple, Dict[int, float]] = {}
    for row in brackets:
        try:
            i, j, k = (_index(row[key]) for key in "ijk")
            value = float(row["value"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StructureParseError(f"malformed bracket entry {_ROW_REPR.repr(row)}") from exc
        if not all(0 <= idx <= 2 for idx in (i, j, k)):
            raise StructureParseError(f"bracket indices out of range in {_ROW_REPR.repr(row)}")
        coeffs = grouped.setdefault((i, j), {})
        if k in coeffs and coeffs[k] != value:
            raise StructureParseError(f"conflicting duplicate bracket {(i, j, k)}")
        coeffs[k] = value
    span = data.get("span")
    try:
        span_arr = np.asarray(span, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructureParseError("'span' must be two coefficient triples") from exc
    gram = data.get("gram", [[1.0, 0.0], [0.0, 1.0]])
    try:
        gram_arr = np.asarray(gram, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructureParseError("'gram' must be a 2x2 matrix") from exc
    try:
        algebra = LieAlgebra3.from_brackets(
            {ij: [coeffs.get(k, 0.0) for k in range(3)] for ij, coeffs in grouped.items()}
        )
        structure = SRStructure(algebra, span_arr, gram_arr)
    except ValueError as exc:
        raise StructureParseError(str(exc)) from exc
    return name, structure


def _index(raw: Any) -> int:
    """A bracket index given as an integral number; 1.0 reads as 1, 0.7 is an error."""
    x = float(raw)
    if not x.is_integer():
        raise ValueError(f"non-integral index {raw!r}")
    return int(x)


def structure_to_dict(name: str, structure: SRStructure) -> Dict[str, Any]:
    """Serialize to the sparse JSON schema (nonzero brackets with i < j)."""
    brackets = []
    c = structure.algebra.c
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                if c[i, j, k] != 0.0:
                    brackets.append(
                        {"i": i, "j": j, "k": k, "value": float(c[i, j, k])}
                    )
    return {
        "name": name,
        "brackets": brackets,
        "span": [[float(x) for x in row] for row in structure.span],
        "gram": [[float(x) for x in row] for row in structure.gram],
    }


def load_structure_file(path: str) -> tuple[str, SRStructure]:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StructureParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable bytes, integer literals over Python's
        # digit limit, and nesting deeper than the recursion limit.
        raise StructureParseError(f"invalid JSON in {path}: {exc}") from exc
    return structure_from_dict(data)


@contextlib.contextmanager
def _output_file(path: str):
    """``path`` opened for text before the block runs.  An OSError, from the
    open or inside the block, is reported as a parse error, as
    :func:`load_structure_file` reports reads; if the block raises, the file
    is removed, so a failed command leaves no partial file behind."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            try:
                yield fh
            except BaseException:
                fh.close()
                os.remove(path)
                raise
    except OSError as exc:
        raise StructureParseError(f"cannot write {path}: {exc}") from exc


# --- report rendering ---------------------------------------------------------

def render_json(value: Any) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    JSON has no NaN or infinity, so a non-finite float renders as ``null``.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g") if math.isfinite(value) else "null"
    if isinstance(value, str):
        import json

        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(
            f"{render_json(str(k))}: {render_json(v)}" for k, v in sorted(value.items())
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        return "[" + ", ".join(render_json(v) for v in seq) + "]"
    raise TypeError(f"cannot render {type(value)!r}")


def render_human(value: Any, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, dict):
                lines.append(f"{pad}{key}:")
                lines.extend(render_human(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_human_scalar(item)}")
    else:
        lines.append(f"{pad}{_human_scalar(value)}")
    return lines


def _human_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        return "[" + ", ".join(_human_scalar(v) for v in seq) + "]"
    return str(value)


def _emit(data: Dict[str, Any], as_json: bool) -> None:
    """Print one result object; human text and machine JSON share its values."""
    print(render_json(data) if as_json else "\n".join(render_human(data)))


# --- commands -----------------------------------------------------------------

def _frame_constants(frame) -> Dict[str, float]:
    return {
        "c01_1": frame.c01_1, "c01_2": frame.c01_2,
        "c02_1": frame.c02_1, "c02_2": frame.c02_2,
        "c12_1": frame.c12_1, "c12_2": frame.c12_2,
    }


def _check_structure(structure: SRStructure) -> None:
    report = check_jacobi(structure.algebra)
    if not report.passed:
        raise JacobiFailure(
            f"Jacobi identity violated: residual {report.max_residual:.3e} "
            f"exceeds {report.tolerance:.3e}"
        )


class JacobiFailure(ValueError):
    pass


def cmd_classify(args) -> int:
    name, structure = load_structure_file(args.input)
    _check_structure(structure)
    label = classify(structure)
    data: Dict[str, Any] = {
        "name": name,
        "algebra": label.algebra,
        "case": label.case,
        "raw_chi": label.raw_chi,
        "raw_kappa": label.raw_kappa,
        "dilation": label.dilation,
        "chi": label.chi,
        "kappa": label.kappa,
        "isometry_class_id": label.isometry_class_id,
        "canonical_constants": _frame_constants(label.frame),
    }
    if label.isometry_class_id == "chi0.kappa-1" and label.algebra != SL2_ELLIPTIC:
        data["note"] = "locally isometric to sl_e(2) with the Killing metric"
    _emit(data, args.json)
    return EXIT_OK


def cmd_invariants(args) -> int:
    name, structure = load_structure_file(args.input)
    _check_structure(structure)
    frame = reeb_frame(structure)
    chi, kappa = compute_chi(frame), compute_kappa(frame)
    inv = normalize(chi, kappa, frame.scale)
    data = {
        "name": name,
        "raw_chi": chi,
        "raw_kappa": kappa,
        "dilation": inv.dilation,
        "chi": inv.chi,
        "kappa": inv.kappa,
        "frame_constants": _frame_constants(frame),
    }
    _emit(data, args.json)
    return EXIT_OK


def _entry_dict(entry: CatalogEntry) -> Dict[str, Any]:
    return {
        "name": entry.name,
        "algebra": entry.algebra,
        "chi": entry.chi,
        "kappa": entry.kappa,
        "isometry_class_id": entry.isometry_class_id,
        "case": entry.case,
        "model": entry.model or "none",
    }


def cmd_catalog(args) -> int:
    _emit({"entries": [_entry_dict(e) for e in catalog()]}, args.json)
    return EXIT_OK


def cmd_figure1(args) -> int:
    rows = ["name,kappa,chi"]
    for name, kappa, chi in figure1_data():
        rows.append(f"{name},{format(kappa, '.12g')},{format(chi, '.12g')}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with _output_file(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_covector(raw: str) -> tuple[float, float, float]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise StructureParseError("--covector needs 'h1,h2,h0'")
    try:
        h1, h2, h0 = (float(p) for p in parts)
    except ValueError as exc:
        raise StructureParseError(f"bad covector {raw!r}") from exc
    if not all(map(math.isfinite, (h1, h2, h0))):
        raise StructureParseError(f"--covector must be finite, got {raw!r}")
    if not math.isfinite(h1 * h1 + h2 * h2):
        raise StructureParseError(f"--covector h1^2 + h2^2 overflows a float, got {raw!r}")
    return h1, h2, h0


def cmd_geodesic(args) -> int:
    if not 1 <= args.steps <= MAX_STEPS:
        raise StructureParseError(f"--steps must be in [1, {MAX_STEPS}], got {args.steps}")
    if not math.isfinite(args.time):
        raise StructureParseError(f"--time must be finite, got {args.time}")
    model = build_model(args.model)
    h1, h2, h0 = _parse_covector(args.covector)
    initial = GeodesicState(model.identity, h1, h2, h0)
    # --out is opened before the flight, so a path that cannot be written
    # fails at once; a flight that fails removes it again.
    with _output_file(args.out) if args.out else contextlib.nullcontext() as fh:
        traj = integrate_geodesic(model, model.frame, initial, args.time, args.steps)
        if fh is not None:
            trajectory_to_csv(traj, fh)
    data = {
        "model": model.id,
        "time": args.time,
        "steps": args.steps,
        "hamiltonian_drift": traj.hamiltonian_drift(),
        "group_defect": traj.max_group_defect,
        "final_covector": list(traj.final_covector),
        "endpoint": traj.endpoint.tolist(),
        "trajectory_csv": args.out or "not written",
    }
    _emit(data, args.json)
    return EXIT_OK


def cmd_distance(args) -> int:
    import json

    model = build_model(args.model)
    if args.target:
        try:
            target = np.asarray(json.loads(args.target), dtype=float)
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise StructureParseError(f"bad --target: {exc}") from exc
    else:
        target = model.identity
    try:
        result = shoot_distance(model, target, budget=args.budget)
    except ValueError as exc:
        raise StructureParseError(str(exc)) from exc
    data = {
        "model": model.id,
        "distance_estimate": result.distance,
        "covector": list(result.covector),
        "endpoint_error": result.endpoint_error,
        "converged": result.converged,
        "note": "heuristic shooting estimate; not a proof of optimality"
        if result.converged else
        "not converged: distance_estimate is the flight time of the closest endpoint "
        "found, not a distance",
    }
    _emit(data, args.json)
    return EXIT_OK if result.converged else EXIT_INTEGRATION


PSI_MUTANTS = {
    "psi-m11-sign": {"signs": (-1.0, 1.0, 1.0, 1.0)},
    "psi-m12-sign": {"signs": (1.0, -1.0, 1.0, 1.0)},
    "psi-m21-sign": {"signs": (1.0, 1.0, -1.0, 1.0)},
    "psi-m22-sign": {"signs": (1.0, 1.0, 1.0, -1.0)},
    "psi-prefactor-sign": {"signs": (-1.0, -1.0, -1.0, -1.0)},
    "psi-angle-sign": {"arg_sign": -1.0},
}


def cmd_certify_isometry(args) -> int:
    if args.samples < 0:
        raise StructureParseError(f"--samples must be >= 0, got {args.samples}")
    if args.samples > _MAX_SAMPLES:
        raise StructureParseError(f"--samples must be <= {_MAX_SAMPLES}, got {args.samples}")
    if args.seed < 0:
        raise StructureParseError(f"--seed must be >= 0, got {args.seed}")
    psi = isometry.psi_entries
    if args.mutate:
        if args.mutate not in PSI_MUTANTS:
            raise StructureParseError(
                f"unknown mutation {args.mutate!r}; choose from {sorted(PSI_MUTANTS)}"
            )
        psi = functools.partial(isometry.psi_entries, **PSI_MUTANTS[args.mutate])
    results = isometry.run_certification(samples=args.samples, seed=args.seed, psi=psi)
    if args.json:
        data = {
            "samples": args.samples,
            "seed": args.seed,
            "checks": [dataclasses.asdict(r) for r in results],
        }
        _emit(data, True)
    else:
        width = max(len(r.name) for r in results)
        print(f"{'check'.ljust(width)}  samples  max residual  tolerance  result")
        for r in results:
            print(
                f"{r.name.ljust(width)}  {r.samples:7d}  {r.max_residual:12.3e}  "
                f"{r.tolerance:9.0e}  {'pass' if r.passed else 'FAIL'}"
            )
    failing = [r.name for r in results if not r.passed]
    if failing:
        print(f"certification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sr3d",
        description=(
            "Classify left-invariant sub-Riemannian structures on 3D Lie "
            "groups, integrate their normal geodesics, and certify the "
            "affine-line/SL(2) isometry.  Set SR3D_TOL to override the "
            f"global relative tolerance (currently {rel_tol():g})."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("classify", help="classify a structure file")
    p.add_argument("--input", required=True, help="structure JSON file")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("invariants", help="invariants of a structure file")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("catalog", help="print the built-in catalog")
    add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("figure1", help="CSV of normalized (kappa, chi) per entry")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("geodesic", help="integrate a normal geodesic")
    p.add_argument("--model", required=True, choices=MODEL_IDS)
    p.add_argument("--covector", default="1,0,0", help="initial 'h1,h2,h0'")
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument(
        "--steps", type=int, default=1000,
        help=f"RK4 steps, 1 to {MAX_STEPS} (the trajectory is kept in memory)",
    )
    p.add_argument("--out", help="trajectory CSV path")
    add_common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("distance", help="shooting estimate of the distance")
    p.add_argument("--model", required=True, choices=MODEL_IDS)
    p.add_argument("--target", help="group element as a JSON array")
    p.add_argument(
        "--budget", type=int, default=200,
        help="Levenberg-Marquardt iterations per grid start (each costs 3 Jacobian "
        "endpoint evaluations plus one per trial step)",
    )
    add_common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("certify-isometry", help="run the isometry certification")
    p.add_argument("--samples", type=int, default=50, help=f"0 to {_MAX_SAMPLES}")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--mutate",
        help="testing hook: run with a deliberately corrupted map",
    )
    add_common(p)
    p.set_defaults(func=cmd_certify_isometry)

    return parser


# Exit code of each error a subcommand reports; the first matching type wins.
_EXIT_CODES = {
    StructureParseError: EXIT_PARSE,
    NotBracketGeneratingError: EXIT_NOT_CONTACT,
    JacobiFailure: EXIT_JACOBI,
    IntegrationBlowUpError: EXIT_INTEGRATION,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        rel_tol()  # a bad SR3D_TOL fails every subcommand alike, help included
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
