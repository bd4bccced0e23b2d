"""Machine-speed probe, run between requests; independent of mttokit.

The machines this benchmark runs on share their cores with other work,
and their speed drifts by up to half over seconds to minutes, the same for
every piece of code.  A fixed kernel with the same mix of work as mttokit
(interpreter loops and object churn, tiny numpy calls, a small dense SVD)
is timed between requests; end-to-end times are reported at the speed at
which the kernel takes REFERENCE_S.  A change to mttokit moves the
request times and not the kernel's, so it shows in full.

The kernel, its inputs and REFERENCE_S are part of the benchmark's
definition: changing any of them changes every reported time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.005

_rng = np.random.default_rng(20240601)
_small = [_rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3)) for _ in range(4)]
_vec = _rng.standard_normal(6) + 1j * _rng.standard_normal(6)
_dense = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))


def kernel() -> float:
    """Seconds taken by one pass of the fixed kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(96):
        a = _small[i % 4]
        blocks = np.zeros((3, 3, 3), dtype=np.complex128)
        for k in range(3):
            blocks[k] = a @ _small[k]
        acc += float(np.linalg.svd(a, compute_uv=False)[0])
        acc += abs(np.convolve(_vec, _vec)[3])
        acc += sum(j * j for j in range(40)) * 1e-9
        acc += float(np.linalg.norm(np.einsum("ab,kb...->ka...", a, blocks)))
    acc += float(np.linalg.svd(_dense, compute_uv=False)[0])
    t1 = time.perf_counter()
    if not acc > 0:
        raise RuntimeError("calibration kernel produced no result")
    return t1 - t0


def speed_scale(samples) -> float:
    """Factor turning times measured next to these kernel samples into
    times at the reference speed."""
    return REFERENCE_S / statistics.median(samples)


def local_scales(passes):
    """One factor per request from the kernel passes run after the request
    before it, after it and after the next one.  The speed drifts within
    seconds, so a request is scaled by the speed around it."""
    return [speed_scale([p for ps in passes[max(0, k - 1): k + 2] for p in ps]) for k in range(len(passes))]
