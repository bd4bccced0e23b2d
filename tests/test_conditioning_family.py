"""Members built on a near-degenerate Theta are kept, through the library and the CLI.

Theta is a product of Potapov factors whose ranges come in nearly parallel
pairs, so Theta is pure only by a margin of order eps^2 and many columns of
the window projector are nearly dependent.  A Gram-Schmidt cut near
roundoff let the basis normalize such columns and leave the model space by
up to 3e-3 here, which refused the operators `build` had made
(`model_space.GS_CUT` is now 1 / MAX_WINDOW).  The cut bounds one
normalization, not a chain: where Gram-Schmidt keeps several columns with
residuals between 5e-4 and 1e-2, each magnifies the rounding the earlier
ones left (nested pairs of rank-1 and rank-2 ranges, and some seeds of
the rotated pairs), and the basis build re-projects those bases onto the
model space (`model_space.OFF_ULPS`).  Each case builds a member from a
7-coefficient symbol, decides it, recovers its symbol and bounds its
residual by 1e-3 tol and the basis's distance to the model space,
max ||L* q||, by 1e-11, for a Potapov and a coefficient payload of the
same Theta.
"""

import json

import numpy as np
import pytest

from mttokit import serialize
from mttokit.cli import main
from mttokit.model_space import InnerFunction, ModelSpaceBasis, off_space, potapov_product
from mttokit.mtto import build, is_mtto, recover_symbol
from mttokit.randgen import haar_unitary, random_symbol

from json_files import dump_json_file, inner_to_json

EPS = (1e-2, 7.7e-3, 5.5e-3, 3.9e-3, 2.8e-3)
COUNTS = (4, 8, 16, 32)
RESIDUAL_SHARE, OFF_SPACE = 1e-3, 1e-11


def _projection(frame):
    q = np.linalg.qr(frame)[0]
    return q @ q.conj().T


def alternating_d2(eps, count):
    """Rank-1 factors alternating between e_1 and (cos eps, sin eps)."""
    lines = (np.array([[1.0], [0.0]]), np.array([[np.cos(eps)], [np.sin(eps)]]))
    return [_projection(lines[j % 2]) for j in range(count)]


def turn(eps, rng, d=3):
    """R = exp(i eps H) for a Gaussian d x d Hermitian H scaled to unit norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lam, v = np.linalg.eigh((g + g.conj().T) / 2)
    return (v * np.exp(1j * eps * lam / np.abs(lam).max())) @ v.conj().T


def rotated_pairs_d3(eps, count, seed):
    """Factors of ranks 1, 1, 2, 2, ... on the first columns of a Haar frame
    B, every second one turned by R, so each factor's range is eps away
    from its neighbour's."""
    rng = np.random.default_rng(seed)
    b = haar_unitary(3, rng)
    rot = turn(eps, rng)
    return [_projection((rot if j % 2 else np.eye(3)) @ b[:, : 1 + (j // 2) % 2]) for j in range(count)]


def nested_pairs_d3(eps, count, seed):
    """Factors of ranks 1, 2, 1, 2, ... on the first columns of B, each
    rank-1 range inside the next rank-2 one, every second pair turned by R."""
    rng = np.random.default_rng(seed)
    b = haar_unitary(3, rng)
    rot = turn(eps, rng)
    return [_projection((rot if (j // 2) % 2 else np.eye(3)) @ b[:, : 1 + j % 2]) for j in range(count)]


def _cases():
    for i, eps in enumerate(EPS):
        for k, count in enumerate(COUNTS):
            yield pytest.param(2, alternating_d2(eps, count), id=f"d2-{eps}-{count}")
            yield pytest.param(3, rotated_pairs_d3(eps, count, 4 * i + k), id=f"d3-{eps}-{count}")
            yield pytest.param(3, nested_pairs_d3(eps, count, 4 * i + k), id=f"nested-{eps}-{count}")
    # where max ||L* q|| grew by about 1e3 at each of three kept columns with residuals below 1e-2
    # before the basis was re-projected; nested pairs at eps 1e-2, count 8, seed 1 is the grid's
    yield pytest.param(3, nested_pairs_d3(7.7e-3, 16, 306), id="nested-0.0077-16-seed306")
    yield pytest.param(3, rotated_pairs_d3(1e-2, 32, 103), id="d3-0.01-32-seed103")


def _payloads(factors):
    theta, rank_sum = potapov_product(factors)
    return {"potapov": InnerFunction(theta, rank_sum), "coeffs": InnerFunction(theta)}


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert err == "", err
    return code, out


def _check_members(tmp_path, capsys, d, factors):
    phi = random_symbol(d, -3, 3, np.random.default_rng(len(factors)))
    dump_json_file(tmp_path / "phi.json", serialize.laurent_to_json(phi))
    for kind, inner in _payloads(factors).items():
        assert inner.d == d and inner.n == sum(round(np.trace(p).real) for p in factors)
        basis = ModelSpaceBasis(inner)
        assert off_space(inner, basis.q).max() <= OFF_SPACE, kind
        a = build(basis, phi)
        decision = is_mtto(basis, a)
        assert decision.verdict and decision.residual <= RESIDUAL_SHARE * decision.tol, (kind, decision)
        recover_symbol(basis, a)

        theta = str(tmp_path / f"{kind}.json")
        dump_json_file(theta, inner_to_json(inner, factors if kind == "potapov" else None))
        code, out = _run(capsys, "op", "build", "--theta", theta, "--symbol", str(tmp_path / "phi.json"))
        assert code == 0 and np.array_equal(serialize.json_to_matrix(json.loads(out)["entries"]), a.mat)
        (tmp_path / "op.json").write_text(out)
        code, out = _run(capsys, "op", "test", "--theta", theta, "--op", str(tmp_path / "op.json"))
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] and doc["residual"] <= RESIDUAL_SHARE * doc["tol"], (kind, doc)
        code, _ = _run(capsys, "op", "recover", "--theta", theta, "--op", str(tmp_path / "op.json"))
        assert code == 0, kind


@pytest.mark.parametrize("d, factors", _cases())
def test_members_are_kept_on_nearly_parallel_factors(tmp_path, capsys, d, factors):
    _check_members(tmp_path, capsys, d, factors)

