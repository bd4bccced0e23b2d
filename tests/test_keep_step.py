"""The one keep step of both basis routes, `model_space._kept`, against a loop.

The factor route hands `_kept` one batched QR of every P_j and keeps the
first rank P_j directions of each; the coefficient route hands it each
panel of the window projector as a stack of one.  Here both routes run
on orthogonal projections P of every rank at 17 sizes d from 1 to 80
(`DIMS`, both sides of PANEL): random ones, and coordinate projections
diag(0/1), whose QR has a zero on the diagonal among the first rank
columns unless the ones lead, so `_triangular_sweep` runs.

- Where d <= PANEL the whole of P is one panel, and the factor frame
  `_kept` gives for P equals `_panel_gram_schmidt(P, rank)` bit for bit.
- At every d, including d > PANEL, where the panel route takes two
  panels, both equal the column-by-column Gram-Schmidt of P's columns
  under GS_CUT (`basis_oracles.gram_schmidt_columns`) within rounding,
  each direction up to its phase.
"""

import numpy as np
import pytest

from mttokit import model_space
from mttokit.model_space import PANEL
from mttokit.randgen import random_projection

from basis_oracles import gram_schmidt_columns

DIMS = (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 63, PANEL, PANEL + 1, 80)  # d = 1..80, both sides of PANEL
ROUNDING = 1e-12  # largest entry of the difference from the loop, each direction turned onto the loop's phase


def _projections(d: int, kind: str) -> np.ndarray:
    """P of rank 0..d, as one (d + 1, d, d) stack: random, or diag(0/1) on a random set of coordinates."""
    rng = np.random.default_rng([d, kind == "coordinate"])
    if kind == "random":
        return np.stack([random_projection(d, rank, rng) for rank in range(d + 1)])
    masks = [np.isin(np.arange(d), rng.permutation(d)[:rank]) for rank in range(d + 1)]
    return np.stack([np.diag(mask.astype(np.complex128)) for mask in masks])


def _phase_aligned(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The columns of got, each turned by the phase that makes its inner product with want's real positive."""
    overlap = np.einsum("ij,ij->j", got.conj(), want)
    return got * (overlap / np.abs(overlap))


@pytest.mark.parametrize("kind", ["random", "coordinate"])
@pytest.mark.parametrize("d", DIMS)
def test_both_routes_keep_the_directions_of_the_column_loop(d, kind, monkeypatch):
    ps = _projections(d, kind)
    sweeps = []
    real = model_space._triangular_sweep
    monkeypatch.setattr(model_space, "_triangular_sweep", lambda r, room: sweeps.append(room) or real(r, room))
    frames = model_space._kept(*np.linalg.qr(ps), range(d + 1))  # as `_factor_basis` calls it
    factor_sweeps = len(sweeps)
    for rank, (p, frame) in enumerate(zip(ps, frames)):
        panel = model_space._panel_gram_schmidt(p, rank)
        want = gram_schmidt_columns(p)
        assert frame.shape == panel.shape == want.shape == (d, rank)
        if d <= PANEL:
            assert frame.tobytes() == panel.tobytes(), rank
        for got in (frame, panel):
            assert np.abs(_phase_aligned(got, want) - want).max(initial=0.0) <= ROUNDING, rank
    # diag(0/1) is its own QR: a zero among the first rank diagonal entries makes the factor route sweep once
    skipped = sum(not np.diagonal(p)[:rank].all() for rank, p in enumerate(ps)) if kind == "coordinate" else 0
    assert factor_sweeps == skipped
    if d <= PANEL:  # one panel, the same QR
        assert len(sweeps) == 2 * skipped
