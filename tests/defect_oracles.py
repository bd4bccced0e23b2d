"""The earlier route to a kernel frame's basis and left inverse, kept as a
test reference: a thin SVD with the rank cut of `numerics.rank` and the
phase fix for the basis, and numpy's pinv for the left inverse."""

import numpy as np

from mttokit.numerics import RANK_CUT, fix_column_phases


def frame_basis_and_inverse(frame: np.ndarray):
    u, s, _ = np.linalg.svd(frame, full_matrices=False)
    r = int(np.sum(s > RANK_CUT * s[0] * max(frame.shape)))
    return fix_column_phases(u[:, :r]), np.linalg.pinv(frame, rcond=RANK_CUT * max(frame.shape))
