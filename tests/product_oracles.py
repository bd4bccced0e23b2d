"""Earlier implementations of the Laurent product, the Potapov product
and the block-Toeplitz matrix, kept as test references.

`laurent.convolve` takes a block convolution as one product with a gathered
block-Toeplitz matrix, `mtto.build` gathers T_Phi through the same lag
index, and `model_space.potapov_product` multiplies the factors out in one
coefficient array, H -> H - H P + z H P by one matrix product per factor.
The functions below do the same work the earlier ways:
`block_toeplitz` lays the blocks out one by one with `np.block`, as no
route of the package does; `einsum_convolve` forms every block product
F_i G_k with one einsum and sums them in order of i, as `laurent.convolve`
did, and `einsum_multiply` is `laurent.multiply` on it; `multiply_loop` takes one
einsum per block of the left factor, and `potapov_product_loop` one
`MatLaurent` and one `einsum_multiply` per Potapov factor, with each factor
checked on its own, and `potapov_bound` how far two roundings of that
product may lie apart.  The other oracles multiply through these, so no oracle
shares the kernel it is compared with.  `horner_evaluate` is
`laurent.evaluate` as it was: one Horner loop in z over the analytic half
and one in 1/z over the rest, with the last power of 1/z it missed where
the support ends below -1 put back, and `evaluation_bound` how far two roundings
of a value may lie apart.  `tilde` is F~(z) = F(conj(z))*, the inner
function of the partner space K_Theta~ that the tests compare with.
"""

import numpy as np

from mttokit.errors import NotProjectionError, NotUnitaryError
from mttokit.laurent import MatLaurent


def block_toeplitz(tiles, rows: int, cols: int) -> np.ndarray:
    """Matrix of rows x cols blocks whose (k, j) block is tiles[k - j + cols - 1]:
    `tiles` holds the blocks at offsets 1 - cols, ..., rows - 1 in order."""
    return np.block([[tiles[k - j + cols - 1] for j in range(cols)] for k in range(rows)])


def einsum_convolve(f, g):
    """Block l = sum over i + k = l of f[i] g[k], for f (p, d, d) and g
    (q, d) or (q, d, c): all p * q products at once, summed in order of i."""
    nf, ng = f.shape[0], g.shape[0]
    prods = np.einsum("iab,kb...->ika...", f, g)  # prods[i, k] = F_i G_k
    out = np.zeros((nf + ng - 1,) + g.shape[1:], dtype=np.complex128)
    for i in range(nf):
        out[i : i + ng] += prods[i]
    return out


def rounding_bound(f, g):
    """Entrywise bound on how far two roundings of the block convolution of
    f by g lie apart, in any summation order: a computed complex sum of
    K = min(p, q) d products is within sqrt(2) gamma_{K+2} (|F| * |G|) of
    the exact one (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3), so two of them within twice that.  |F| * |G| is the einsum
    convolution of the entries' magnitudes; gamma_n = n u / (1 - n u)."""
    n, u = min(f.shape[0], g.shape[0]) * f.shape[1] + 2, 2.0**-53
    return 2.0 * np.sqrt(2.0) * n * u / (1.0 - n * u) * einsum_convolve(np.abs(f), np.abs(g)).real


def einsum_multiply(f, g):
    """F(z) G(z) by `einsum_convolve`; g is a MatLaurent or a VecLaurent."""
    return type(g)(f.lo + g.lo, einsum_convolve(f.coeffs, g.coeffs))


def multiply_loop(f, g):
    """F(z) G(z), one block of F at a time."""
    nf, ng = f.coeffs.shape[0], g.coeffs.shape[0]
    out = np.zeros((nf + ng - 1,) + g.coeffs.shape[1:], dtype=np.complex128)
    for i in range(nf):
        out[i : i + ng] += np.einsum("ab,kb...->ka...", f.coeffs[i], g.coeffs)
    return type(g)(f.lo + g.lo, out)


def potapov_product_loop(factors, left_unitary=None):
    """(Theta, sum rank P_j) by one Laurent product per factor."""
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
        theta = einsum_multiply(theta, MatLaurent(0, np.stack([eye - p, p])))
    return theta, sum(int(round(np.trace(p).real)) for p in mats)


def potapov_bound(factors, left_unitary=None):
    """Entrywise bound on how far two roundings of U B_1 ... B_k lie apart,
    B_j = I - P_j + z P_j.  A step H -> H (I - P) + z H P, taken either as
    H - H P or as H (I - P), is within sqrt(2) gamma_{d+2} of |H| times
    C = (|I - P| + |P|) + z |P| of the exact step on the computed H, since
    |H| <= |H| (|I - P| + |P|); the later factors carry that error, and
    |B_j| <= C_j, so each rounding is within sqrt(2) gamma_{k(d+2)} of the
    magnitude product |U| C_1 ... C_k (to first order; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3), and two of them within
    twice that."""
    mats = [np.asarray(p, dtype=np.complex128) for p in factors]
    d = mats[0].shape[0]
    u = np.eye(d) if left_unitary is None else np.asarray(left_unitary)
    mag = np.abs(u)[np.newaxis].astype(np.complex128)
    for p in mats:
        step = np.stack([np.abs(np.eye(d) - p) + np.abs(p), np.abs(p)])  # C_j = (|I - P| + |P|) + z |P|
        mag = einsum_convolve(mag, step.astype(np.complex128))
    n, u = len(mats) * (d + 2), 2.0**-53
    return 2.0 * np.sqrt(2.0) * n * u / (1.0 - n * u) * mag.real


def horner_evaluate(f, z):
    """F(z) by Horner's rule, matrix or vector: in z over the frequencies
    max(lo, 0)..hi, in 1/z over lo..min(hi, -1)."""
    z = complex(z)
    shape = f.coeffs.shape[1:]
    if z == 0:
        if f.lo < 0:
            raise ZeroDivisionError("cannot evaluate negative frequencies at z = 0")
        return f.coeff(0).copy()
    out = np.zeros(shape, dtype=np.complex128)
    if f.hi >= 0:
        acc = np.zeros(shape, dtype=np.complex128)
        for k in range(f.hi, max(f.lo, 0) - 1, -1):
            acc = acc * z + f.coeff(k)
        out += acc * z ** max(f.lo, 0)
    if f.lo < 0:
        w = 1.0 / z
        acc = np.zeros(shape, dtype=np.complex128)
        for k in range(f.lo, min(f.hi, -1) + 1):
            acc = acc * w + f.coeff(k)
        out += acc * w ** -min(f.hi, -1)  # the earlier loop took w**1, wrong where hi < -1
    return out


def evaluation_bound(f, z):
    """Entrywise bound on how far two roundings of F(z) lie apart:
    8 (K + L + 2) u sum_k |z|^k |F_k|, for K = hi - lo + 1 blocks and
    L = max(|lo|, |hi|).  Each rounding of a complex multiply-add costs at
    most sqrt(2) gamma_2 of its terms (Higham, ch. 3); a sum of K terms
    collects K of them, and a power z^k, formed by either route, carries up
    to |k| roundings of z."""
    k = np.arange(f.lo, f.hi + 1)
    scale = np.tensordot(np.abs(complex(z)) ** k, np.abs(f.coeffs), axes=1)
    return 8.0 * (len(k) + np.abs(k).max() + 2) * 2.0**-53 * scale


def tilde(f: MatLaurent) -> MatLaurent:
    """F~(z) = F(conj(z))*: every coefficient is replaced by its adjoint."""
    return MatLaurent(f.lo, f.coeffs.transpose(0, 2, 1).conj())
