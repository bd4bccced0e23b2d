"""Command line front end.

Results go to stdout, and errors (an `error` code and a `message`) to
stderr, as one line of `serialize.canonical_json`.  Every command's
document is written here from what its handler computes; the suite's is
the report `run_suite` returns.  Exit status 0 means
success (and a positive verdict where the command decides something), 1
means a negative verdict or a domain error, 2 means the input could not
be used at all.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from dataclasses import asdict

import numpy as np

from . import serialize
from .errors import MttoError, ParseError
from .fixtures import FIXTURE_FACTORS, FIXTURE_NAMES
from .laurent import inner_residual, purity_margin
from .model_space import InnerFunction, ModelSpaceBasis, potapov_product, theta_from_json
from .mtto import build, is_mtto, mtto_dimension, recover_symbol, zero_symbol_decompose
from .numerics import INNER_TOL, MAX_NORM, REL, frobenius
from .suite import SuiteConfig, run_suite


def _emit(doc, out_path) -> None:
    text = serialize.canonical_json(doc) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {out_path}: {exc}") from exc


def _check_out(path: str) -> None:
    """Refuse, before any input is read, an --out path that `_emit` could not
    open, with `open`'s message; nothing is created or truncated."""
    folder = os.path.dirname(path) or "."
    try:
        os.stat(os.path.join(folder, ""))  # a trailing separator: ENOENT, or ENOTDIR for a file, as `open` gives
    except OSError as exc:
        code = exc.errno
    else:
        writable = os.access(path if os.path.exists(path) else folder, os.W_OK)
        code = errno.EISDIR if os.path.isdir(path) else 0 if writable else errno.EACCES
    if code:
        raise ParseError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _fail(code: str, message: str, status: int) -> int:
    sys.stderr.write(serialize.canonical_json({"error": code, "message": message}) + "\n")
    return status


def _theta(source: str):
    """(Theta, its Potapov factors or None) of --theta, a fixture name or a
    file, not yet checked to be pure inner, so that `inner check` can judge
    bad input; the factors are (U, the stack of the P_j, their ranks)."""
    if source in FIXTURE_FACTORS:
        return potapov_product(FIXTURE_FACTORS[source])
    return theta_from_json(serialize.load_json_file(source))


def _inner(args) -> InnerFunction:
    return InnerFunction(*_theta(args.theta))


def _basis(args) -> ModelSpaceBasis:
    return ModelSpaceBasis(_inner(args))


def _require_bounded(norm: float, what: str) -> None:
    if norm > MAX_NORM:
        raise ParseError(f"{what} has Frobenius norm {norm!r}, above the limit of {MAX_NORM!r}")


def _load_symbol(path: str):
    phi = serialize.json_to_mat_laurent(serialize.load_json_file(path))
    _require_bounded(phi.norm(), "symbol")
    return phi


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
                         "it was written under an older basis rule, rebuild the operator")
    if declared is not None and declared != basis.basis_id:
        raise ParseError(f"operator was written in basis {declared}, current basis is {basis.basis_id}")
    n = obj.get("n", basis.n)
    if type(n) is not int or n != basis.n:
        raise ParseError(f"declared n {n!r} is not the size {basis.n} of the entries")
    _require_bounded(frobenius(mat), "operator")
    return mat


def _tolerance(raw: str) -> float:
    """argparse's `type` for --tol: a finite number in (0, 1), checked while
    parsing, so a bad tolerance is a usage error, reported before any input."""
    try:
        tol = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {raw!r}") from None
    if not 0 < tol < 1:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {tol}")
    return tol


def _inner_check(args):
    """Verdict on a candidate Theta.  A non-analytic one has neither an
    inner residual nor a purity margin: both are null, the verdict false."""
    candidate = _theta(args.theta)[0]
    analytic = candidate.lo >= 0
    residual = inner_residual(candidate) if analytic else float("inf")
    margin = purity_margin(candidate) if analytic else None
    ok = analytic and residual <= INNER_TOL and margin > REL  # the bounds InnerFunction and is_pure apply, once each
    return {
        "inner_residual": residual if np.isfinite(residual) else None,
        "inner_tol": INNER_TOL,
        "analytic": analytic,
        "purity_margin": margin,
        "purity_floor": REL,
        "verdict": bool(ok),
    }, 0 if ok else 1


def _space_basis(args):
    basis = _basis(args)
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "basis_id": basis.basis_id,
        "n": basis.n,
        "d": basis.inner.d,
        "degree": basis.inner.m,
        "columns": serialize.matrix_to_json(basis.q),
    }, 0


def _op_build(args):
    basis = _basis(args)
    entries = serialize.matrix_to_json(build(basis, _load_symbol(args.symbol)).mat)
    return {"schema_version": serialize.SCHEMA_VERSION, "n": basis.n, "basis_id": basis.basis_id, "entries": entries}, 0


def _op_test(args):
    basis = _basis(args)
    decision = is_mtto(basis, _load_operator(args.op, basis), args.tol)
    return asdict(decision), 0 if decision.verdict else 1


def _op_recover(args):
    basis = _basis(args)
    rec = recover_symbol(basis, _load_operator(args.op, basis), args.tol)
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "analytic_part": serialize.laurent_to_json(rec.psi1),
        "costar_part": serialize.laurent_to_json(rec.psi2),
        "rebuild_residual": rec.residual,
        "membership_residual": rec.membership_residual,
        "membership_tol": rec.membership_tol,
    }, 0


def _symbol_zero_test(args):
    """A zero symbol is certified on the validated Theta; only a symbol the
    certificate leaves open builds the basis, for its operator norm."""
    result = zero_symbol_decompose(_inner(args), _load_symbol(args.symbol), args.tol)
    doc = {"schema_version": serialize.SCHEMA_VERSION, "is_zero": result.is_zero, "operator_norm": result.operator_norm,
           "tol": result.tol}
    if result.is_zero:
        doc["analytic_factor"] = serialize.laurent_to_json(result.psi1)
        doc["costar_factor"] = serialize.laurent_to_json(result.psi2)
        doc["residual"] = result.residual
    return doc, 0 if result.is_zero else 1


def _dim(args):
    """The class dimension read off the validated Theta's n and d.  No basis
    is built, so `dim` forms no window projector and runs no basis column
    count check; n is witnessed by the projector trace, the det degree and,
    for a Potapov payload, the factor rank sum."""
    return asdict(mtto_dimension(_inner(args))), 0


def _suite(args):
    obj = {"seed": args.seed} if args.config is None else serialize.load_json_file(args.config)
    report = run_suite(SuiteConfig.from_json(obj))
    return report, 0 if report["pass"] else 1


_THETA = ("--theta", dict(required=True, metavar="NAME|FILE",
                          help=f"fixture name ({', '.join(FIXTURE_NAMES)}) or inner-function JSON file"))
_TOL = ("--tol", dict(type=_tolerance, metavar="T",
                      help=f"absolute decision tolerance in (0, 1); defaults to {REL:g} * ||A||_F for an "
                           f"operator, compared with a Frobenius-norm residual, and {REL:g} * ||Phi|| for a symbol"))
_OUT = ("--out", dict(metavar="FILE", help="write the JSON result here instead of stdout"))

# (group, group help, command, command help, arguments, handler) in the order
# `mtto --help` lists them; a command without a group sits at the top level,
# and every command also takes --out, last.  An argument is (flag, kwargs), or
# a tuple of them of which exactly one must be given (argparse's required,
# mutually exclusive group).  A handler returns (document, exit status), and
# `main` emits the document.
COMMANDS = (
    ("inner", "inner-function utilities", "check", "test coefficient unitarity and purity",
     (_THETA,), _inner_check),
    ("space", "model space utilities", "basis", "emit the deterministic orthonormal basis",
     (_THETA,), _space_basis),
    ("op", "operator commands", "build", "compress a symbol to the model space",
     (_THETA, ("--symbol", dict(required=True, metavar="FILE", help="matrix Laurent JSON"))), _op_build),
    ("op", "operator commands", "test", "decide whether a matrix carries a symbol",
     (_THETA, ("--op", dict(required=True, metavar="FILE", help="operator JSON (entries field)")), _TOL), _op_test),
    ("op", "operator commands", "recover", "recover a minimum-norm symbol pair",
     (_THETA, ("--op", dict(required=True, metavar="FILE")), _TOL), _op_recover),
    ("symbol", "symbol commands", "zero-test", "decide whether a symbol induces the zero operator",
     (_THETA, ("--symbol", dict(required=True, metavar="FILE")), _TOL), _symbol_zero_test),
    (None, None, "dim", "dimension report for the operator class",
     (_THETA,), _dim),
    (None, None, "suite", "run the randomized self-check battery",
     ((("--config", dict(metavar="FILE", help="suite configuration JSON")),
       ("--seed", dict(type=int, metavar="N", help="shorthand for a default config"))),), _suite),
)


class _Parser(argparse.ArgumentParser):
    """A usage error is a ParseError: one JSON line, exit 2.  Subparsers inherit the class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtto", description=__doc__.splitlines()[0])
    top, groups = parser.add_subparsers(dest="command", required=True), {}
    for group, group_help, name, help_, arguments, handler in COMMANDS:
        sub = top if group is None else groups.get(group)
        if sub is None:
            group_parser = top.add_parser(group, help=group_help)
            sub = groups[group] = group_parser.add_subparsers(dest="subcommand", required=True)
        p = sub.add_parser(name, help=help_)
        for spec in (*arguments, _OUT):
            if isinstance(spec[0], str):
                p.add_argument(spec[0], **spec[1])
                continue
            group = p.add_mutually_exclusive_group(required=True)
            for flag, kwargs in spec:
                group.add_argument(flag, **kwargs)
        p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out:
            _check_out(args.out)
        doc, status = args.fn(args)
        _emit(doc, args.out)
        return status
    except ParseError as exc:
        return _fail(exc.code, str(exc), 2)
    except MttoError as exc:
        return _fail(exc.code, str(exc), 1)
    except ValueError as exc:
        return _fail("E_VALUE", str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
