"""Named built-in inner functions used by the test suite and the CLI, each
given by its Potapov factors in FIXTURE_FACTORS (the left unitary is I).

FIX1  scalar shift, d=1, Theta = z
FIX2  scalar double shift, d=1, Theta = z^2
FIX3  diag(z, z^2), d=2
FIX4  z times the 2x2 identity
FIX5  product of two non-commuting rank-one elementary factors, d=2
"""

import numpy as np

from .model_space import InnerFunction, make_inner_potapov

FIXTURE_FACTORS = {
    "FIX1": [np.eye(1)],
    "FIX2": [np.eye(1), np.eye(1)],
    "FIX3": [np.diag([0.0, 1.0]), np.eye(2)],
    "FIX4": [np.eye(2)],
    "FIX5": [np.full((2, 2), 0.5), np.diag([1.0, 0.0])],
}
FIXTURE_NAMES = tuple(FIXTURE_FACTORS)


def fixture(name: str) -> InnerFunction:
    if name.upper() not in FIXTURE_FACTORS:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return make_inner_potapov(FIXTURE_FACTORS[name.upper()])
