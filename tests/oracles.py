"""Quadrature oracles of the elliptic kernel, independent of the AGM.

After z = sin(theta) the defining integrals lose their endpoint
singularity:

    K(m)   =     int_0^{pi/2} (1 - m sin^2 t)^(-1/2) dt,
    K'(m)  = 1/2 int_0^{pi/2} sin^2 t (1 - m sin^2 t)^(-3/2) dt,
    K''(m) = 3/4 int_0^{pi/2} sin^4 t (1 - m sin^2 t)^(-5/2) dt.

The integrands form 1 - m sin^2 t as cos^2 t + (1 - m) sin^2 t, a sum of
non-negative terms for every m < 1: near t = pi/2 as m -> 1 the direct
form would cancel to 1 - m and carry its rounding into every level of
the quadrature.

Each function takes a float or an ndarray like the ``elliptic`` functions
and raises ``DomainError`` outside m < 1.
"""

import numpy as np

from starktoric.elliptic import _checked, _ret
from starktoric.quadrature import integrate


def _theta_integral(m, p: int, coef: float):
    """coef * int_0^{pi/2} sin^{2p} t (1 - m sin^2 t)^{-(p + 1/2)} dt by quadrature."""
    arr, scalar = _checked(m)

    def single(mv: float) -> float:
        def integrand(theta):
            s2 = np.sin(theta) ** 2
            return coef * s2**p * (np.cos(theta) ** 2 + (1.0 - mv) * s2) ** -(p + 0.5)

        return integrate(integrand, 0.0, 0.5 * np.pi)

    out = np.array([single(v) for v in arr.ravel()])
    return _ret(out.reshape(arr.shape), scalar)


def ellip_k_oracle(m):
    """K(m) straight from the defining integral."""
    return _theta_integral(m, 0, 1.0)


def ellip_k_d1_oracle(m):
    """dK/dm straight from its defining integral."""
    return _theta_integral(m, 1, 0.5)


def ellip_k_d2_oracle(m):
    """d2K/dm2 straight from its defining integral."""
    return _theta_integral(m, 2, 0.75)
