"""Command line front end.

Results go to stdout, and errors (an `error` code and a `message`) to
stderr, as one line of `serialize.canonical_json`.  Exit status 0 means
success (and a positive verdict where the command decides something), 1
means a negative verdict or a domain error, 2 means the input could not
be used at all.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import serialize
from .errors import MttoError, ParseError
from .fixtures import FIXTURE_NAMES, fixture
from .laurent import inner_residual, purity_margin
from .model_space import ModelSpaceBasis, inner_from_json, theta_from_json
from .mtto import build, is_mtto, mtto_dimension, recover_symbol, zero_symbol_decompose
from .numerics import INNER_TOL, REL
from .suite import SuiteConfig, run_suite

_TOL_ENV = "MTTO_TOL"


def _emit(doc, out_path=None) -> None:
    text = serialize.canonical_json(doc) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(code: str, message: str, status: int) -> int:
    sys.stderr.write(serialize.canonical_json({"error": code, "message": message}) + "\n")
    return status


def _load_inner(source: str):
    if source in FIXTURE_NAMES:
        return fixture(source)
    return inner_from_json(serialize.load_json_file(source))


def _load_symbol(path: str):
    return serialize.json_to_mat_laurent(serialize.load_json_file(path))


def _load_operator(path: str, basis: ModelSpaceBasis) -> np.ndarray:
    obj = serialize.load_json_file(path)
    serialize.check_schema_version(obj)
    if "entries" not in obj:
        raise ParseError("operator payload needs an 'entries' field")
    mat = serialize.json_to_matrix(obj["entries"])
    if mat.shape != (basis.n, basis.n):
        raise ParseError(f"operator is {mat.shape[0]} x {mat.shape[1]}, space has dimension {basis.n}")
    declared = obj.get("basis_id")
    if declared is not None and not str(declared).startswith(serialize.BASIS_ID_PREFIX):
        raise ParseError(f"basis_id {declared!r} has no {serialize.BASIS_ID_PREFIX} prefix; "
                         "basis ids changed in v2 and again in v3, rebuild the operator")
    if declared is not None and declared != basis.basis_id:
        raise ParseError(f"operator was written in basis {declared}, current basis is {basis.basis_id}")
    return mat


def _tol_from(args) -> float | None:
    """Decision tolerance from --tol, else from $MTTO_TOL; either must be
    a finite number in (0, 1)."""
    raw, source = getattr(args, "tol", None), "--tol"
    if raw is None:
        raw, source = os.environ.get(_TOL_ENV), _TOL_ENV
        if raw is None:
            return None
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ParseError(f"{source} must be a number, got {raw!r}") from exc
    if not 0 < tol < 1:  # also refuses nan
        raise ParseError(f"{source} must lie in (0, 1), got {tol}")
    return tol


def _candidate_theta(source: str):
    """Matrix function to be tested, without the constructor's own
    validation, so `inner check` can report a verdict on bad input."""
    if source in FIXTURE_NAMES:
        return fixture(source).theta
    return theta_from_json(serialize.load_json_file(source))[0]


def _cmd_inner_check(args) -> int:
    """Verdict on a candidate Theta.  A non-analytic one has neither an
    inner residual nor a purity margin: both are null, the verdict false."""
    candidate = _candidate_theta(args.theta)
    analytic = candidate.lo >= 0
    residual = inner_residual(candidate) if analytic else float("inf")
    margin = purity_margin(candidate) if analytic else None
    ok = analytic and residual <= INNER_TOL and margin > REL  # is_inner and is_pure, each measured once
    _emit(
        {
            "inner_residual": residual if np.isfinite(residual) else None,
            "analytic": analytic,
            "purity_margin": margin,
            "verdict": bool(ok),
        },
        args.out,
    )
    return 0 if ok else 1


def _cmd_space_basis(args) -> int:
    basis = ModelSpaceBasis(_load_inner(args.theta))
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "basis_id": basis.basis_id,
        "n": basis.n,
        "d": basis.inner.d,
        "degree": basis.inner.m,
        "columns": serialize.matrix_to_json(basis.q),
    }
    _emit(doc, args.out)
    return 0


def _cmd_op_build(args) -> int:
    basis = ModelSpaceBasis(_load_inner(args.theta))
    phi = _load_symbol(args.symbol)
    op = build(basis, phi)
    _emit(op.to_json(), args.out)
    return 0


def _cmd_op_test(args) -> int:
    tol = _tol_from(args)
    basis = ModelSpaceBasis(_load_inner(args.theta))
    mat = _load_operator(args.op, basis)
    decision = is_mtto(basis, mat, tol)
    _emit(decision.to_json(), args.out)
    return 0 if decision.verdict else 1


def _cmd_op_recover(args) -> int:
    tol = _tol_from(args)
    basis = ModelSpaceBasis(_load_inner(args.theta))
    mat = _load_operator(args.op, basis)
    rec = recover_symbol(basis, mat, tol)
    _emit(
        {
            "schema_version": serialize.SCHEMA_VERSION,
            "analytic_part": serialize.laurent_to_json(rec.psi1),
            "costar_part": serialize.laurent_to_json(rec.psi2),
            "rebuild_residual": rec.residual,
        },
        args.out,
    )
    return 0


def _cmd_symbol_zero_test(args) -> int:
    tol = _tol_from(args)
    basis = ModelSpaceBasis(_load_inner(args.theta))
    phi = _load_symbol(args.symbol)
    result = zero_symbol_decompose(basis, phi, tol)
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "is_zero": result.is_zero,
        "operator_norm": result.operator_norm,
    }
    if result.is_zero:
        doc["analytic_factor"] = serialize.laurent_to_json(result.psi1)
        doc["costar_factor"] = serialize.laurent_to_json(result.psi2)
        doc["residual"] = result.residual
    _emit(doc, args.out)
    return 0 if result.is_zero else 1


def _cmd_dim(args) -> int:
    basis = ModelSpaceBasis(_load_inner(args.theta))
    _emit(mtto_dimension(basis).to_json(), args.out)
    return 0


def _cmd_suite(args) -> int:
    if args.config:
        cfg = SuiteConfig.from_json(serialize.load_json_file(args.config))
    elif args.seed is not None:
        cfg = SuiteConfig.from_json({"seed": args.seed})
    else:
        raise ParseError("suite needs --config or --seed")
    report = run_suite(cfg)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _add_theta(p):
    p.add_argument("--theta", required=True, metavar="NAME|FILE",
                   help=f"fixture name ({', '.join(FIXTURE_NAMES)}) or inner-function JSON file")


def _add_out(p):
    p.add_argument("--out", metavar="FILE", help="write the JSON result here instead of stdout")


def _add_tol(p):
    p.add_argument("--tol", metavar="T",
                   help=f"decision tolerance in (0, 1); defaults to ${_TOL_ENV}, else 1e-9 * ||A||_F "
                        "for an operator, compared with a Frobenius-norm residual, and 1e-9 * ||Phi|| "
                        "for a symbol")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtto", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    inner = sub.add_parser("inner", help="inner-function utilities").add_subparsers(
        dest="subcommand", required=True
    )
    p = inner.add_parser("check", help="test coefficient unitarity and purity")
    _add_theta(p)
    _add_out(p)
    p.set_defaults(fn=_cmd_inner_check)

    space = sub.add_parser("space", help="model space utilities").add_subparsers(
        dest="subcommand", required=True
    )
    p = space.add_parser("basis", help="emit the deterministic orthonormal basis")
    _add_theta(p)
    _add_out(p)
    p.set_defaults(fn=_cmd_space_basis)

    op = sub.add_parser("op", help="operator commands").add_subparsers(
        dest="subcommand", required=True
    )
    p = op.add_parser("build", help="compress a symbol to the model space")
    _add_theta(p)
    p.add_argument("--symbol", required=True, metavar="FILE", help="matrix Laurent JSON")
    _add_out(p)
    p.set_defaults(fn=_cmd_op_build)

    p = op.add_parser("test", help="decide whether a matrix carries a symbol")
    _add_theta(p)
    p.add_argument("--op", required=True, metavar="FILE", help="operator JSON (entries field)")
    _add_tol(p)
    _add_out(p)
    p.set_defaults(fn=_cmd_op_test)

    p = op.add_parser("recover", help="recover a minimum-norm symbol pair")
    _add_theta(p)
    p.add_argument("--op", required=True, metavar="FILE")
    _add_tol(p)
    _add_out(p)
    p.set_defaults(fn=_cmd_op_recover)

    symbol = sub.add_parser("symbol", help="symbol commands").add_subparsers(
        dest="subcommand", required=True
    )
    p = symbol.add_parser("zero-test", help="decide whether a symbol induces the zero operator")
    _add_theta(p)
    p.add_argument("--symbol", required=True, metavar="FILE")
    _add_tol(p)
    _add_out(p)
    p.set_defaults(fn=_cmd_symbol_zero_test)

    p = sub.add_parser("dim", help="dimension report for the operator class")
    _add_theta(p)
    _add_out(p)
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("suite", help="run the randomized self-check battery")
    p.add_argument("--config", metavar="FILE", help="suite configuration JSON")
    p.add_argument("--seed", type=int, metavar="N", help="shorthand for a default config")
    _add_out(p)
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        return _fail(exc.code, str(exc), 2)
    except MttoError as exc:
        return _fail(exc.code, str(exc), 1)
    except ValueError as exc:
        return _fail("E_VALUE", str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
