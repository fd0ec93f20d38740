"""Integer-order cylinder functions J_n and H_n^(1) for complex arguments.

Evaluation is delegated to the AMOS routines behind scipy.special, which
comfortably exceed the 1e-10 relative accuracy budget on the supported range
(|z| <= 50, |order| <= 30). Negative orders are normalized here through the
reflection identities J_{-n} = (-1)^n J_n and H^{(1)}_{-n} = (-1)^n H^{(1)}_n
so callers get guaranteed behavior for every integer order.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

# AMOS loses accuracy and eventually overflows for very large arguments;
# stay far inside that envelope.
_MAX_ABS_Z = 1.0e8


def _check_order(order) -> int:
    if order != int(order):
        raise ValueError(f"order must be an integer, got {order!r}")
    return int(order)


def bessel_j(order: int, z: complex) -> complex:
    """Bessel function of the first kind J_n(z), integer n, complex z."""
    n = _check_order(order)
    z = complex(z)
    if abs(z) > _MAX_ABS_Z:
        raise ValueError(f"|z| = {abs(z):.3g} exceeds supported range {_MAX_ABS_Z:.0e}")
    val = complex(_sp.jv(abs(n), z))
    if n < 0 and abs(n) % 2 == 1:
        val = -val
    if not (np.isfinite(val.real) and np.isfinite(val.imag)):
        raise ValueError(f"bessel_j({n}, {z}) did not evaluate to a finite value")
    return val


def hankel1(order: int, z: complex) -> complex:
    """Hankel function of the first kind H_n^(1)(z) = J_n(z) + i Y_n(z), z != 0."""
    n = _check_order(order)
    z = complex(z)
    if z == 0:
        raise ValueError("hankel1 is singular at z = 0")
    if abs(z) > _MAX_ABS_Z:
        raise ValueError(f"|z| = {abs(z):.3g} exceeds supported range {_MAX_ABS_Z:.0e}")
    val = complex(_sp.hankel1(abs(n), z))
    if n < 0 and abs(n) % 2 == 1:
        val = -val
    if not (np.isfinite(val.real) and np.isfinite(val.imag)):
        raise ValueError(f"hankel1({n}, {z}) did not evaluate to a finite value")
    return val


def bessel_j_orders(orders: np.ndarray, z: complex | np.ndarray) -> np.ndarray:
    """Vectorized J_n over an integer order array (negative orders allowed)."""
    orders = np.asarray(orders, dtype=int)
    vals = _sp.jv(np.abs(orders), z)
    sign = np.where((orders < 0) & (np.abs(orders) % 2 == 1), -1.0, 1.0)
    return np.asarray(vals * sign, dtype=complex)


def hankel1_orders(orders: np.ndarray, z: complex | np.ndarray) -> np.ndarray:
    """Vectorized H_n^(1) over an integer order array (negative orders allowed)."""
    orders = np.asarray(orders, dtype=int)
    vals = _sp.hankel1(np.abs(orders), z)
    sign = np.where((orders < 0) & (np.abs(orders) % 2 == 1), -1.0, 1.0)
    return np.asarray(vals * sign, dtype=complex)


def bessel_j_prime_orders(orders: np.ndarray, z: complex | np.ndarray) -> np.ndarray:
    """d/dz J_n(z) = (J_{n-1}(z) - J_{n+1}(z)) / 2, vectorized over orders."""
    orders = np.asarray(orders, dtype=int)
    return 0.5 * (bessel_j_orders(orders - 1, z) - bessel_j_orders(orders + 1, z))


def hankel1_prime_orders(orders: np.ndarray, z: complex | np.ndarray) -> np.ndarray:
    """d/dz H_n^(1)(z) = (H_{n-1}(z) - H_{n+1}(z)) / 2, vectorized over orders."""
    orders = np.asarray(orders, dtype=int)
    return 0.5 * (hankel1_orders(orders - 1, z) - hankel1_orders(orders + 1, z))
