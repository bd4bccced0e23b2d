"""The four workloads: their inputs, their requests into mttokit and the
checks of each request's output.

A workload cycles through a fixed list of input shapes, one request per
shape per cycle.  The number of cycles in a run is fixed by the run length
and the workload's nominal cycle time, never by the clock, so every run on
every commit times the same requests.  Shapes are listed in the order of
their cost and are equally many, so the median latency falls inside the
middle shape's group and the tail percentile inside the costliest one.

Inputs come from numpy generators seeded with (seed, workload tag); the
program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import numpy as np

import oracles

# Inputs in the Potapov form must be strictly contractive at the origin by
# this margin; draws that are not are replaced by the next draw.
MAX_THETA0_NORM = 0.95


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_potapov(d, ranks, rng):
    """Left unitary and projections of the given ranks; n = sum(ranks)."""
    while True:
        u = haar_unitary(d, rng)
        projections = []
        for r in ranks:
            cols = haar_unitary(d, rng)[:, :r]
            projections.append(cols @ cols.conj().T)
        value0 = u
        for p in projections:
            value0 = value0 @ (np.eye(d) - p)
        if np.linalg.norm(value0, 2) <= MAX_THETA0_NORM:
            return u, projections


def random_coeffs(count, d, rng):
    """Complex Gaussian d x d blocks scaled so the symbol has norm of order 1."""
    c = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    return c / np.sqrt(2.0 * count * d)


def _complex_json(a):
    a = np.asarray(a)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [_complex_json(x) for x in a]


def _complex_from_json(obj):
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class Space:
    """A model space fixed for the whole run, built once by the program."""

    def __init__(self, M, d, ranks, rng):
        self.d, self.ranks = d, tuple(ranks)
        self.n, self.m = sum(ranks), len(ranks)
        u, projections = random_potapov(d, ranks, rng)
        self.theta = oracles.potapov_theta(u, projections)
        self.basis = M.ModelSpaceBasis(M.make_inner_potapov(projections, u))
        problem = oracles.check_basis(self.basis.q, self.theta, self.n, d, self.m)
        if problem:
            raise RuntimeError(f"set-up of space d={d} ranks={ranks}: {problem}")

    @property
    def label(self):
        return f"d{self.d}n{self.n}"


class Workload:
    name = ""
    tag = 0
    shapes = ()  # one entry per request of a cycle, cheapest first
    nominal_cycle_s = 1.0  # sets the cycle count per second of run length, not measured
    min_cycles = 20  # at least 20 requests per shape, so the tail sits inside a group

    def __init__(self, M, seed, workdir=None):
        self.M = M
        self.rng = np.random.default_rng([seed, self.tag])
        self.workdir = workdir  # input files go here; the caller removes it

    def cycles(self, seconds):
        return max(self.min_cycles, round(seconds / self.nominal_cycle_s))

    def setup(self):
        """The program's own set-up of the workload."""

    def make_requests(self, cycles):
        return [self.make_request(i) for _ in range(cycles) for i in range(len(self.shapes))]

    def make_request(self, shape_index):
        raise NotImplementedError

    def warm_up_requests(self):
        return [self.make_request(i) for i in range(len(self.shapes))]

    def warm_up(self):
        """Run the warm-up requests, untimed; outputs are not kept.  Returns
        the errors raised, so that a failing program still reaches the timed
        requests, where its failures are counted."""
        errors = []
        for req in self.warm_up_requests():
            try:
                self.run(req)
            except Exception as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
        return errors

    def run(self, req):
        raise NotImplementedError

    def check(self, req, out):
        raise NotImplementedError


class Membership(Workload):
    """Fixed spaces built once; each request builds A_Phi for a fresh symbol
    and asks is_mtto about it and about a unit-norm Gaussian matrix."""

    name = "membership"
    tag = 1
    shapes = ((1, [1] * 8), (2, [1, 2] * 5 + [1]), (4, [2, 3] * 6))
    support = (-3, 3)
    nominal_cycle_s = 0.29

    def setup(self):
        self.spaces = [Space(self.M, d, ranks, self.rng) for d, ranks in self.shapes]

    def make_request(self, i):
        sp = self.spaces[i]
        lo, hi = self.support
        phi = (lo, random_coeffs(hi - lo + 1, sp.d, self.rng))
        g = self.rng.standard_normal((sp.n, sp.n)) + 1j * self.rng.standard_normal((sp.n, sp.n))
        g /= np.linalg.norm(g, 2)
        return {"shape": sp.label, "space": sp, "phi": phi, "phi_obj": self.M.MatLaurent(*phi), "g": g}

    def run(self, req):
        M, basis = self.M, req["space"].basis
        a = M.build(basis, req["phi_obj"])
        return a.mat, M.is_mtto(basis, a), M.is_mtto(basis, req["g"])

    def check(self, req, out):
        sp = req["space"]
        a, on_a, on_g = out
        return (oracles.check_build(a, sp.basis.q, req["phi"], sp.d, sp.m)
                or oracles.check_verdict(on_a, True, "A_Phi")
                or oracles.check_verdict(on_g, False, "a Gaussian matrix"))


class Recovery(Workload):
    """Fixed spaces; each request recovers a symbol from a built A_Phi and
    decomposes a symbol Theta Psi1 + (Theta Psi2)* of the zero operator."""

    name = "recovery"
    tag = 2
    shapes = ((1, [1] * 8), (2, [1, 2, 1, 2, 1, 2, 1, 1]), (3, [3, 2] * 3))
    support = (-2, 2)
    psi_degree = 2
    nominal_cycle_s = 0.52

    def setup(self):
        self.spaces = [Space(self.M, d, ranks, self.rng) for d, ranks in self.shapes]

    def make_request(self, i):
        sp = self.spaces[i]
        lo, hi = self.support
        phi = (lo, random_coeffs(hi - lo + 1, sp.d, self.rng))
        psi1 = (0, random_coeffs(self.psi_degree + 1, sp.d, self.rng))
        psi2 = (0, random_coeffs(self.psi_degree + 1, sp.d, self.rng))
        phi0 = oracles.add(oracles.convolve(sp.theta, psi1), oracles.star(oracles.convolve(sp.theta, psi2)))
        return {"shape": sp.label, "space": sp, "phi": phi, "phi_obj": self.M.MatLaurent(*phi),
                "phi0": phi0, "phi0_obj": self.M.MatLaurent(*phi0)}

    def run(self, req):
        M, basis = self.M, req["space"].basis
        a = M.build(basis, req["phi_obj"])
        rec = M.recover_symbol(basis, a)
        return a.mat, rec, M.zero_symbol_decompose(basis, req["phi0_obj"])

    def check(self, req, out):
        sp = req["space"]
        a, rec, zero = out
        expected = oracles.compressed(sp.basis.q, req["phi"], sp.d, sp.m)
        return (oracles.check_build(a, sp.basis.q, req["phi"], sp.d, sp.m)
                or oracles.check_recovered(rec.psi1, rec.psi2, expected, sp.basis.q, sp.d, sp.m)
                or oracles.check_zero_decomposition(zero, req["phi0"], sp.theta))


class Spaces(Workload):
    """Each request is a new Theta, given to the CLI as a Potapov JSON file:
    `mtto dim` and `mtto space basis`, run in-process.  Nothing is reused."""

    name = "spaces"
    tag = 3
    shapes = ((2, [1, 2, 1, 2, 1, 2, 1]), (4, [3, 3, 3, 3]), (7, [4, 4]))
    nominal_cycle_s = 1.0
    min_cycles = 20  # the d = 7 group holds the tail: 20 requests, 10 of them above it

    def make_request(self, i):
        d, ranks = self.shapes[i]
        u, projections = random_potapov(d, ranks, self.rng)
        doc = {"schema_version": 1, "kind": "potapov", "left_unitary": _complex_json(u),
               "factors": [_complex_json(p) for p in projections]}
        fd, path = tempfile.mkstemp(suffix=".json", dir=self.workdir)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return {"shape": f"d{d}n{sum(ranks)}", "path": path, "d": d, "n": sum(ranks), "m": len(ranks),
                "theta": oracles.potapov_theta(u, projections)}

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.M.cli.main(argv)
        return status, buf.getvalue()

    def run(self, req):
        return self._cli(["dim", "--theta", req["path"]]), self._cli(["space", "basis", "--theta", req["path"]])

    def check(self, req, out):
        (st_dim, dim_text), (st_basis, basis_text) = out
        if st_dim != 0 or st_basis != 0:
            return f"cli: exit status {st_dim} (dim), {st_basis} (space basis)"
        n, d, m = req["n"], req["d"], req["m"]
        dim_doc, basis_doc = json.loads(dim_text), json.loads(basis_text)
        if (basis_doc["n"], basis_doc["d"], basis_doc["degree"]) != (n, d, m):
            return f"space basis: (n, d, degree) {(basis_doc['n'], basis_doc['d'], basis_doc['degree'])}, expected {(n, d, m)}"
        if dim_doc["operator_space_dim"] != n * n:
            return f"dim: operator_space_dim {dim_doc['operator_space_dim']}, expected n^2 = {n * n}"
        return (oracles.check_dimension(dim_doc["dim"], n, d)
                or oracles.check_basis(_complex_from_json(basis_doc["columns"]), req["theta"], n, d, m))


class Suite(Workload):
    """run_suite on a fresh suite seed, twice in a row: the second report
    must match the first byte for byte.  Small spaces, where Python object
    churn dominates; the only workload that runs the conjugation,
    commutant, kernel-recurrence and tau checks."""

    name = "suite"
    tag = 4
    shapes = ("suite", "suite")  # one suite seed per cycle, run twice
    cases = 1
    random_inners = ((2, 2),)
    nominal_cycle_s = 0.8
    min_cycles = 20  # one shape: the tail needs 40 requests

    def setup(self):
        self.first_report = {}

    def make_requests(self, cycles):
        seeds = [int(s) for s in self.rng.integers(0, 2**31, size=cycles)]
        return [{"shape": "suite", "seed": s, "repeat": r} for s in seeds for r in (False, True)]

    def warm_up_requests(self):
        return [{"seed": int(self.rng.integers(0, 2**31))}]

    def run(self, req):
        return self.M.run_suite(self.M.SuiteConfig(seed=req["seed"], cases=self.cases,
                                                   random_inners=self.random_inners))

    def check(self, req, out):
        """Called in request order, so the first run of a seed is seen first."""
        if out.get("pass") is not True:
            failing = [c["name"] for c in out.get("checks", []) if not c.get("pass")]
            return f"run_suite: seed {req['seed']} did not pass: {failing}"
        text = json.dumps(out, sort_keys=True)
        if not req["repeat"]:
            self.first_report[req["seed"]] = text
        elif text != self.first_report.get(req["seed"]):
            return f"run_suite: second run of seed {req['seed']} differs from the first"
        return None


WORKLOADS = {w.name: w for w in (Membership, Recovery, Spaces, Suite)}
