"""Earlier implementations of the Laurent product and the Potapov
product, kept as test references.

`laurent.multiply` forms every block product F_i G_k with one einsum and
then sums them in order of i; `model_space.potapov_product` multiplies the
factors out in one coefficient array.  The functions below do the same
work the direct way: one einsum per block of the left factor, and one
`MatLaurent` and one `multiply` per Potapov factor, with each factor
checked on its own.
"""

import numpy as np

from mttokit.errors import NotProjectionError, NotUnitaryError
from mttokit.laurent import MatLaurent, multiply


def multiply_loop(f, g):
    """F(z) G(z), one block of F at a time."""
    nf, ng = f.coeffs.shape[0], g.coeffs.shape[0]
    out = np.zeros((nf + ng - 1,) + g.coeffs.shape[1:], dtype=np.complex128)
    for i in range(nf):
        out[i : i + ng] += np.einsum("ab,kb...->ka...", f.coeffs[i], g.coeffs)
    return type(g)(f.lo + g.lo, out)


def potapov_product_loop(factors, left_unitary=None):
    """(Theta, (U, [P_1, ...], sum rank P_j)) by one Laurent product per factor."""
    mats = [np.asarray(p, dtype=np.complex128) for p in factors]
    d = mats[0].shape[0]
    u = np.eye(d, dtype=np.complex128) if left_unitary is None else np.asarray(left_unitary, dtype=np.complex128)
    if np.linalg.norm(u.conj().T @ u - np.eye(d)) > 1e-10:
        raise NotUnitaryError("left factor is not unitary")
    theta = MatLaurent.constant(u)
    eye = np.eye(d)
    for p in mats:
        if np.linalg.norm(p - p.conj().T) > 1e-10 or np.linalg.norm(p @ p - p) > 1e-10:
            raise NotProjectionError("factor is not an orthogonal projection")
        theta = multiply(theta, MatLaurent(0, np.stack([eye - p, p])))
    return theta, (u, mats, sum(int(round(np.trace(p).real)) for p in mats))
