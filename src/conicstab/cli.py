"""Command-line surface for the stability checkers.

Subcommands
-----------
``stab``     stability of one polynomial over a cone: exact certificate
             for degree <= 1, sampling falsifier otherwise.
``hko``      pencil / complex-combination consistency for a real pair
             (f, g), plus the directional Wronskian certificates.
``detstab``  semidefinite coefficient certificate for
             det(sum A_ij z_ij + B) from a block-matrix JSON file.
``improj``   point cloud sampled from the imaginary projection of a
             polynomial, as CSV.

Exit codes are a stable contract: 0 for clean/consistent outcomes, 1
when instability is found (``falsified`` or ``certified_unstable``, an
identically-zero determinant, or an inconsistent pair report), and 2
for argument, expression, or input-file errors.

Cone descriptors: ``orthant:n``, ``psd:n``, ``poly:@gens.json`` (JSON
cone descriptor or a plain array of generators), and
``prod:spec,spec`` for products.  Seeds and tolerance overrides are
echoed in all machine-readable output; ``--threads`` is accepted for
interface compatibility but cannot change results — the sampling loops
are deterministic functions of (seed, draw index).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .cones import Cone, Orthant, Polyhedral, PSD, cone_from_descriptor, product
from .constab import (
    FALSIFIED,
    Verdict,
    _linear_part,
    _witness_residual,
    falsify_k_stability,
    imaginary_projection_sample,
    linear_k_stability,
    pencil_hko_check,
    wronskian_certificate,
)
from .det import (
    CERTIFIED_STABLE as DET_CERTIFIED,
    IDENTICALLY_ZERO,
    NOT_CERTIFIED,
    block_matrix_from_json,
    expand_det_polynomial,
    thm54_certify,
)
from .poly import MatrixVarIndex, MultiPoly, ParseError, parse
from .tolerances import DEFAULT_TOL, ToleranceProfile


class CliError(Exception):
    """Input problem that should terminate with exit code 2."""


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


def parse_cone(spec: str) -> Cone:
    spec = spec.strip()
    if spec.startswith("orthant:"):
        return Orthant(_positive_int(spec[8:], "orthant dimension"))
    if spec.startswith("psd:"):
        return PSD(_positive_int(spec[4:], "matrix size"))
    if spec.startswith("poly:@"):
        path = spec[6:]
        data = _read_json(path)
        try:
            if isinstance(data, dict):
                return cone_from_descriptor(data)
            return Polyhedral(np.asarray(data, dtype=float))
        except (ValueError, KeyError) as exc:
            raise CliError(f"bad cone data in {path}: {exc}") from exc
    if spec.startswith("prod:"):
        parts = [p for p in spec[5:].split(",") if p]
        if len(parts) < 2:
            raise CliError("prod: needs at least two comma-separated cone specs")
        cones = [parse_cone(p) for p in parts]
        out = cones[0]
        for k in cones[1:]:
            out = product(out, k)
        return out
    raise CliError(
        f"unknown cone descriptor {spec!r} "
        "(expected orthant:n, psd:n, poly:@file.json, or prod:spec,spec)"
    )


def _positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise CliError(f"{what} must be an integer, got {text!r}") from exc
    if value < 1:
        raise CliError(f"{what} must be positive, got {value}")
    return value


def _canonical_names(K: Cone) -> tuple[str, ...] | None:
    """Default variable tuple for cones with a natural naming scheme."""
    if isinstance(K, Orthant) or isinstance(K, Polyhedral):
        return tuple(f"z{i + 1}" for i in range(K.dim))
    if isinstance(K, PSD):
        return MatrixVarIndex(K.n).names
    return None


def parse_poly(text: str, K: Cone | None) -> MultiPoly:
    """Parse an expression, widening the variable set to match the cone.

    An expression like ``z11 + z22`` does not mention z12, so inference
    alone would come out one variable short for psd:2; when the cone has
    a canonical naming scheme the expression is re-read against it.
    """
    try:
        f = parse(text)
    except ParseError as exc:
        raise CliError(f"cannot parse polynomial: {exc}") from exc
    if K is not None and f.nvars != K.dim:
        names = _canonical_names(K)
        if names is not None:
            try:
                return parse(text, var_names=names)
            except ParseError as exc:
                raise CliError(
                    f"expression does not fit the cone's variables {names}: {exc}"
                ) from exc
        raise CliError(
            f"expression has {f.nvars} variables but the cone needs {K.dim}; "
            "name all variables explicitly for product cones"
        )
    return f


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _read_exprs(args, needed: int, what: str) -> list[str]:
    texts = list(args.expr or []) + [_read_text(path).strip() for path in args.file or []]
    if len(texts) != needed:
        raise CliError(f"{what} needs exactly {needed} expression(s) (-e/--expr or -f/--file), got {len(texts)}")
    return texts


def parse_tol(overrides: str | None) -> ToleranceProfile:
    if not overrides:
        return DEFAULT_TOL
    values = {}
    for part in overrides.split(","):
        if not part:
            continue
        name, _, raw = part.partition("=")
        if not raw:
            raise CliError(f"tolerance override {part!r} is not name=value")
        try:
            values[name.strip()] = float(raw)
        except ValueError as exc:
            raise CliError(f"tolerance {name!r} has non-numeric value {raw!r}") from exc
    try:
        return DEFAULT_TOL.with_overrides(**values)
    except TypeError as exc:
        raise CliError(f"unknown tolerance name: {exc}") from exc


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _witness_payload(witness) -> list[list[float]] | None:
    if witness is None:
        return None
    z = np.asarray(witness)
    return [[float(c.real), float(c.imag)] for c in z]


def _verdict_payload(v: Verdict) -> dict:
    return {
        "status": v.status,
        "witness": _witness_payload(v.witness),
        "certificate": v.certificate,
        "samples": v.samples,
        "seed": v.seed,
        "residual": v.residual,
    }


def _verify_verdict(v: Verdict, f: MultiPoly, K: Cone, tol: ToleranceProfile) -> bool:
    """Re-check the witness contract from scratch, for any verdict carrying one.

    The samplers' acceptance rule on f: Im(z) must clear half the sampling
    margin for a sampling witness and be interior for an exact one.
    """
    if v.witness is None:
        return True
    floor = tol.sample_margin / 2.0 if v.status == FALSIFIED else 0.0
    z = np.asarray(v.witness)
    return _witness_residual(K, z, floor, f, f.coeff_norm1(), f.degree, tol) is not None


def _emit(payload: dict, mode: str, out) -> None:
    if mode == "json":
        print(json.dumps(payload), file=out)
        return
    # text mode: stable two-column summary.
    for key, value in payload.items():
        if key == "witness" and value is not None:
            rendered = "; ".join(f"{re:+.6g}{im:+.6g}i" for re, im in value)
            print(f"{key:12} {rendered}", file=out)
        else:
            print(f"{key:12} {value}", file=out)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_stab(args, out) -> int:
    K = parse_cone(args.cone)
    tol = parse_tol(args.tol)
    f = parse_poly(_read_exprs(args, 1, "stab")[0], K)
    a, band = _linear_part(f, tol)
    if f.degree <= 1 and np.all(np.abs(a.imag) <= band):
        v = linear_k_stability(f, K, allow_complex_constant=True, tol=tol)
        v = dataclasses.replace(v, seed=args.seed)
        route = "exact-linear"
    else:
        v = falsify_k_stability(f, K, n_samples=args.samples, rng=args.seed, tol=tol)
        route = "sampling"
    payload = _verdict_payload(v)
    payload["route"] = route
    if args.verify:
        ok = _verify_verdict(v, f, K, tol)
        payload["verified"] = ok
        if not ok:
            print("witness failed re-verification", file=sys.stderr)
            return 1
    _emit(payload, args.output, out)
    return int(v.falsified)


def _cmd_hko(args, out) -> int:
    K = parse_cone(args.cone)
    tol = parse_tol(args.tol)
    texts = _read_exprs(args, 2, "hko")
    f = parse_poly(texts[0], K)
    g = parse_poly(texts[1], K)
    if f.var_names != g.var_names:
        # parse_poly already normalized to the cone's canonical names
        # where one exists, so a leftover mismatch is unresolvable.
        raise CliError("f and g must use the same variables; name them explicitly")
    pencil = pencil_hko_check(f, g, K, n_samples=args.samples, rng=args.seed, tol=tol)
    wronsk = wronskian_certificate(f, g, K, n_points=args.samples, rng=args.seed, tol=tol)
    payload = {
        "pencil_clean": pencil.pencil_clean,
        "combo_clean": pencil.combo_clean,
        "f_plus_ig": pencil.f_plus_ig.status,
        "g_plus_if": pencil.g_plus_if.status,
        "falsified_members": sum(
            1 for e in pencil.entries if e.verdict is not None and e.verdict.status == FALSIFIED
        ),
        "wronskian_holds": wronsk.holds_all,
        "inconsistencies": list(pencil.inconsistencies),
        "consistent": pencil.consistent,
        "samples": args.samples,
        "seed": args.seed,
    }
    _emit(payload, args.output, out)
    return 0 if pencil.consistent else 1


def _read_matrix_file(path: str) -> np.ndarray:
    data = _read_json(path)
    if isinstance(data, dict):
        re = np.asarray(data.get("re"), dtype=float)
        im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
        return re + 1j * im
    return np.asarray(data, dtype=complex)


def _cmd_detstab(args, out) -> int:
    tol = parse_tol(args.tol)
    paths = list(args.file or [])
    if args.expr:
        raise CliError("detstab reads JSON files (-f); expressions are not supported")
    if not 1 <= len(paths) <= 2:
        raise CliError("detstab needs the block-matrix file and optionally an offset file")
    text = _read_text(paths[0])
    try:
        A = block_matrix_from_json(text)
    except (ValueError, KeyError) as exc:
        raise CliError(f"bad block-matrix data in {paths[0]}: {exc}") from exc
    B = _read_matrix_file(paths[1]) if len(paths) == 2 else np.zeros((A.p, A.p))
    try:
        cert = thm54_certify(A, B, tol)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "outcome": cert.outcome,
        "lambda_min": cert.lambda_min,
        "certificate": cert.certificate,
        "seed": args.seed,
    }
    expansion = cert.polynomial
    if cert.outcome == NOT_CERTIFIED:
        try:
            expansion = expand_det_polynomial(A, B, tol)
        except ValueError:  # above the expansion caps: certificate only
            pass
    # none beside certified_stable when the trim emptied it: the certificate says why
    if expansion is not None and (expansion or cert.outcome != DET_CERTIFIED):
        payload["polynomial"] = str(expansion)
    if cert.outcome == NOT_CERTIFIED and expansion is not None:
        v = falsify_k_stability(
            expansion, PSD(A.n1), n_samples=args.samples, rng=args.seed, tol=tol
        )
        payload["falsifier"] = v.status
        payload["samples"] = v.samples
    _emit(payload, args.output, out)
    if cert.outcome == DET_CERTIFIED:
        return 0
    if cert.outcome == IDENTICALLY_ZERO:
        return 1
    return 0 if payload.get("falsifier") != FALSIFIED else 1


def _cmd_improj(args, out) -> int:
    tol = parse_tol(args.tol)
    f = parse_poly(_read_exprs(args, 1, "improj")[0], None)
    lo, _, hi = (args.box or "-2,2").partition(",")
    try:
        box = (float(lo), float(hi))
    except ValueError as exc:
        raise CliError(f"--box must be lo,hi: {exc}") from exc
    try:
        cloud = imaginary_projection_sample(f, n_points=args.samples, box=box, rng=args.seed, tol=tol)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.output == "json":
        print(json.dumps({"seed": args.seed, "points": cloud.tolist()}), file=out)
    else:
        print(",".join(f"y{i + 1}" for i in range(cloud.shape[1])), file=out)
        for row in cloud:
            print(",".join(f"{v:.12g}" for v in row), file=out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="conicstab",
        description="Stability of multivariate polynomials relative to convex cones.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, cone_required: bool):
        p.add_argument("-e", "--expr", action="append", help="polynomial expression (repeatable)")
        p.add_argument("-f", "--file", action="append", help="file input (repeatable)")
        if cone_required:
            p.add_argument("--cone", required=True, help="orthant:n | psd:n | poly:@file.json | prod:a,b")
        p.add_argument("--samples", type=int, default=10_000, help="sampling budget (default 10000)")
        p.add_argument("--seed", type=int, default=0, help="root RNG seed (echoed in output)")
        p.add_argument("--tol", help="comma-separated tolerance overrides, name=value")
        p.add_argument(
            "--output", choices=("json", "csv", "text"), default="text",
            help="output format (csv applies to improj only)",
        )
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; results never depend on it")

    p = sub.add_parser("stab", help="stability of one polynomial over a cone")
    common(p, cone_required=True)
    p.add_argument("--verify", action="store_true",
                   help="re-check any witness against the residual and interior contracts")
    p.set_defaults(func=_cmd_stab)

    p = sub.add_parser("hko", help="pencil vs complex-combination consistency for a real pair")
    common(p, cone_required=True)
    p.set_defaults(func=_cmd_hko)

    p = sub.add_parser("detstab", help="semidefinite certificate for det(sum A_ij z_ij + B)")
    common(p, cone_required=False)
    p.set_defaults(func=_cmd_detstab)

    p = sub.add_parser("improj", help="sample the imaginary projection as a CSV cloud")
    common(p, cone_required=False)
    p.add_argument("--box", help="sampling box lo,hi for the fixed coordinates (default -2,2)")
    p.set_defaults(func=_cmd_improj)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.output == "csv" and args.command != "improj":
        parser.error("csv output applies to improj only")
    try:
        return args.func(args, sys.stdout)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
