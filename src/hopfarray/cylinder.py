"""Integer-order cylinder functions J_n and H_n^(1) for complex arguments.

The program uses the vectorized *_orders functions, numpy alone; the scalar
bessel_j and hankel1 call AMOS (scipy.special, imported on first use) and
are the tests' reference. A *_orders call builds one table over the
distinct |n| and the argument's own shape, then picks entries. J comes from
Miller's backward recurrence, normalized by J_0 + 2 sum J_2k = 1 (W.
Gautschi, SIAM Review 9, 1967). H_0 and H_1 come from Neumann's expansions
summed in the same recurrence, Y_0 = (2/pi) [(ln(z/2) + gamma) J_0 -
2 sum_k (-1)^k J_2k / k] (Abramowitz & Stegun 9.1.88) and Y_1 = -Y_0', or
at |z| >= 20 outside the third quadrant from Hankel's asymptotic expansion
(A&S 9.2.7); the higher orders follow by the forward recurrence
H_{n+1} = (2n/z) H_n - H_{n-1} (A&S 9.1.27). The derivatives reuse the
table at orders n +- 1, and negative orders follow from J_{-n} = (-1)^n J_n
and H^{(1)}_{-n} = (-1)^n H^{(1)}_n.

Accuracy of the *_orders functions against the scalar AMOS values, relative
and pointwise, for |n| <= 30: within 1e-12 in the band the boundary system
uses (1e-4 <= |z| <= 5, |Im z| <= 0.05 |z|) and within 5e-10 over the
supported range (1e-4 <= |z| <= 50, |Im z| <= 5). J reaches 7.4e-14 in the
band and 1.6e-13 over the range, H 1.2e-14 and 1.3e-11 (worst of 3,000
random points each). H loses most to its recurrence at Im z < -1 and n near
30, and below |z| = 20 to the cancellation of J and Y at Im z > 0.

HankelPanels tabulates H_0(k r) and H_1(k r) for a few wavenumbers k at many
real distances r >= a by Chebyshev interpolation in log r on panels fixed by
a and k (L. N. Trefethen, Approximation Theory and Approximation Practice,
SIAM 2013), so the tables run at the panels' Chebyshev points only. Against
scalar AMOS it agrees within 1e-12 relative for r from a (1 - 1e-12) up,
and within about 3e-14 where |k| r <= 40.
"""

from __future__ import annotations

import numpy as np

# AMOS loses accuracy and eventually overflows for very large arguments;
# stay far inside that envelope.
_MAX_ABS_Z = 1.0e8


def _amos(name: str, order, z) -> complex:
    """scipy.special's name(|n|, z) at an integer order n, reflected for odd
    negative n and checked finite."""
    from scipy import special as _sp
    if order != int(order):
        raise ValueError(f"order must be an integer, got {order!r}")
    n, z = int(order), complex(z)
    if abs(z) > _MAX_ABS_Z:
        raise ValueError(f"|z| = {abs(z):.3g} exceeds supported range {_MAX_ABS_Z:.0e}")
    val = complex(getattr(_sp, name)(abs(n), z))
    if n < 0 and abs(n) % 2 == 1:
        val = -val
    if not (np.isfinite(val.real) and np.isfinite(val.imag)):
        raise ValueError(f"{name}({n}, {z}) did not evaluate to a finite value")
    return val


def bessel_j(order: int, z: complex) -> complex:
    """Bessel function of the first kind J_n(z), integer n, complex z."""
    return _amos("jv", order, z)


def hankel1(order: int, z: complex) -> complex:
    """Hankel function of the first kind H_n^(1)(z) = J_n(z) + i Y_n(z), z != 0."""
    if complex(z) == 0:
        raise ValueError("hankel1 is singular at z = 0")
    return _amos("hankel1", order, z)


def _j_table(nmax: int, z: np.ndarray, neumann: bool = False):
    """J_0..J_nmax over the shape of z by Miller's backward recurrence
    f_{n-1} = (2n/z) f_n - f_{n+1}, normalized by f_0 + 2 sum f_2k; forward
    recurrence is unstable for J when |z| is well below the order. With
    neumann, also the sums over k >= 1 of Neumann's expansions of Y_0 and Y_1:
    (table, sum (-1)^k J_2k / k, sum (-1)^(k+1) (2k+1) / (k (k+1)) J_2k+1).

    Each point starts at its own order, nmax + 8 + ceil(|z| + 6 |z|^(1/3)),
    sums in that order, and is rescaled by a power of two on its own values
    only, so every entry depends on its own argument alone (a power of two
    scales the recurrence exactly). Below |z| = 1e-30 the leading series term
    (z/2)^n / n! is exact in double precision, and is used instead (the
    sums are 0 there).
    """
    z = np.asarray(z, dtype=complex)
    tiny = np.abs(z) < 1e-30
    z_rec = np.where(tiny, 1.0, z)  # tiny points recur on z = 1, then are overwritten
    az = np.abs(z_rec)
    start = nmax + 8 + np.ceil(az + 6.0 * np.cbrt(az)).astype(int)
    first, last = int(start.min(initial=0)), int(start.max(initial=0))
    # a step multiplies |f| by at most 2n/|z| + 1, so from f = 1 at the start
    # no value can pass 2^1000 unless these bits do: then every step is checked
    growth = np.log2(2.0 * np.arange(1, last + 1) / az.min(initial=np.inf) + 1.0).sum()
    two_over_z = 2.0 / z_rec
    table = np.empty((nmax + 1,) + z.shape, dtype=complex)
    f_next = np.zeros(z.shape, dtype=complex)  # f_{n+1}
    f = np.zeros(z.shape, dtype=complex)  # f_n, 0 above the point's start
    sums = np.zeros((3 if neumann else 1,) + z.shape, dtype=complex)  # sum f_2k, then the Y sums
    for n in range(last, 0, -1):
        if n >= first:
            f = np.where(start == n, 1.0, f)
        f_next, f = f, (n * two_over_z) * f - f_next
        if n <= nmax:
            table[n] = f_next
        k = n // 2
        if n % 2 == 0:
            sums[0] += f_next
            if neumann:
                sums[1] += ((-1) ** k / k) * f_next
        elif neumann and k:
            sums[2] += ((-1) ** (k + 1) * n / (k * (k + 1))) * f_next
        # one step multiplies by less than 2^700 (|z| >= 1e-30), so past 2^300 is rescaled in time
        if growth >= 1000 and np.abs(f.ravel().view(float)).max() > 2.0**300:
            scale = np.where(np.maximum(np.abs(f.real), np.abs(f.imag)) > 2.0**300, 2.0**-300, 1.0)
            f *= scale
            f_next *= scale
            sums *= scale
            table[n:] *= scale
    table[0] = f
    norm = 1.0 / (f + 2.0 * sums[0])
    table *= norm
    if tiny.any():
        term = np.ones(z.shape, dtype=complex)
        for n in range(nmax + 1):
            if n:
                term = term * (0.5 * z) / n
            table[n] = np.where(tiny, term, table[n])
    if not neumann:
        return table
    return table, np.where(tiny, 0.0, sums[1] * norm), np.where(tiny, 0.0, sums[2] * norm)


# Hankel's expansion serves |z| >= _FAR outside the third quadrant, to
# _FAR_TERMS terms: within 6e-15 of AMOS there, and it keeps the Miller
# table short at any distance. _FAR_COEF holds i^k a_k(n) of A&S 9.2.7 for
# n = 0 and 1, highest k first: a_k(n) = prod_{j<=k} (4n^2 - (2j-1)^2) / (k! 8^k)
_FAR = 20.0
_FAR_TERMS = 20
_FAR_COEF = np.array([np.cumprod([1.0] + [1j * (4 * n * n - (2 * k - 1) ** 2) / (8 * k)
                                          for k in range(1, _FAR_TERMS)])[::-1] for n in (0, 1)])


def _jh_tables(nmax: int, z: np.ndarray, j: bool = True):
    """J_0..J_nmax (None unless j) and H_0..H_nmax over the shape of z, from
    one Miller table (to order 1 only, unless j): H_0 and H_1 by Neumann's
    expansions, except at |z| >= _FAR outside the third quadrant, where they
    take Hankel's and, unless j, the table runs on z = 1 instead; the rest
    by the forward recurrence."""
    z = np.atleast_1d(np.asarray(z, dtype=complex) + 0.0)  # Im z = -0 reads as +0, as AMOS reads it
    far = (np.abs(z) >= _FAR) & ((z.real >= 0) | (z.imag >= 0))
    z_near = z if j else np.where(far, 1.0, z)
    table, s0, s1 = _j_table(max(nmax, 1) if j else 1, z_near, neumann=True)
    log = np.log(0.5 * z_near) + np.euler_gamma
    h0 = table[0] + (2j / np.pi) * (log * table[0] - 2.0 * s0)
    h1 = table[1] + (2j / np.pi) * ((log - 1.0) * table[1] - table[0] / z_near + s1)
    if far.any():
        w, series = 1.0 / z[far], 0.0
        for c in _FAR_COEF.T:
            series = series * w + c[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # e^{iz} overflows silently, as in AMOS
            wave = np.sqrt(2.0 / (np.pi * z[far])) * np.exp(1j * z[far]) * ((1.0 - 1.0j) / np.sqrt(2.0))
        h0[far] = wave * series[0]
        h1[far] = -1j * wave * series[1]
    return (table[: nmax + 1] if j else None), _h_recurrence(nmax, z, h0, h1)


def _h_recurrence(nmax: int, z: np.ndarray, h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
    """H_0..H_nmax from H_0 and H_1 by the forward recurrence
    H_{n+1} = (2n/z) H_n - H_{n-1} (A&S 9.1.27), stable for H."""
    table = [h0, h1]
    for n in range(1, nmax):
        table.append((2 * n / z) * table[n] - table[n - 1])
    return np.asarray(table[: nmax + 1], dtype=complex)


# Chebyshev panels of HankelPanels: the degree is _CHEB_POINTS - 1, and a
# panel spans at most _PANEL_PHASE radians of |k| r (octaves are halved until
# it does). Degree 15 at 2 rad reaches the rounding floor, about 3e-14;
# degree 11, or 4 rad, does not reach 1e-12.
_CHEB_POINTS = 16
_PANEL_PHASE = 2.0
_CHEB_ANGLES = np.pi * (np.arange(_CHEB_POINTS) + 0.5) / _CHEB_POINTS
_CHEB_X = np.cos(_CHEB_ANGLES)
# values at the points _CHEB_X -> Chebyshev coefficients (a DCT-II)
_CHEB_DCT = (2.0 / _CHEB_POINTS) * np.cos(np.outer(np.arange(_CHEB_POINTS), _CHEB_ANGLES))
_CHEB_DCT[0] *= 0.5


class HankelPanels:
    """H_0^(1)(k r) and H_1^(1)(k r) for F wavenumbers k at distances r >= a.

    Octave j of u = log2(r / a) (u < 0 joins octave 0) is cut into 2^s equal
    panels in u, with s the least for which max |k| times a bound of each
    panel's extent in r is at most _PANEL_PHASE. On each panel both
    functions are Chebyshev interpolants in u, whose coefficients come from
    their values at the Chebyshev points on the panel's first use;
    _coefficients maps the start of each panel built so far to them. A value
    depends only on a, the wavenumbers and r: the degree axis is reduced by
    einsum, which rounds each point alike whatever the other points are.
    """

    def __init__(self, k, radius: float):
        self.k = np.asarray(k, dtype=complex).ravel()
        self.radius = float(radius)
        self._kmax = float(np.abs(self.k).max())
        self._coefficients: dict[float, np.ndarray] = {}

    def _panel(self, start: float, width: float) -> np.ndarray:
        """(4F, degree + 1) real coefficients of the panel [start, start +
        width] in u, rows ordered (H_0, H_1) x field x (real, imag)."""
        coef = self._coefficients.get(start)
        if coef is None:
            z = self.k[:, None] * (self.radius * 2.0 ** (start + 0.5 * width * (_CHEB_X + 1.0)))
            values = _jh_tables(1, z, j=False)[1]  # (2, F, points)
            coef = np.einsum("gfm,dm->gfd", values, _CHEB_DCT)
            coef = np.ascontiguousarray(np.stack([coef.real, coef.imag], axis=2).reshape(-1, _CHEB_POINTS))
            self._coefficients[start] = coef
        return coef

    def orders(self, nmax: int, r: np.ndarray) -> np.ndarray:
        """(nmax + 1, F, P) table of H_0..H_nmax at k r over the distances r."""
        u = np.log2(np.asarray(r, dtype=float) / self.radius)
        octave = np.maximum(np.floor(u), 0.0)
        # |k| times a 2^(j+1) ln 2 bounds |k| times the r-extent of any panel of width 1
        phase = self._kmax * self.radius * np.log(2.0) * 2.0 ** (octave + 1)
        width = 2.0 ** -np.maximum(np.ceil(np.log2(phase / _PANEL_PHASE)), 0.0)
        start = octave + np.maximum(np.floor((u - octave) / width), 0.0) * width
        x = 2.0 * (u - start) / width - 1.0
        basis = np.empty((u.size, _CHEB_POINTS))  # T_d(x), one row per point
        basis[:, 0], basis[:, 1] = 1.0, x
        for d in range(2, _CHEB_POINTS):
            basis[:, d] = 2.0 * x * basis[:, d - 1] - basis[:, d - 2]
        h01 = np.empty((u.size, 2 * self.k.size), dtype=complex)
        starts = np.sort(start)  # each start once, as np.unique gives it (which imports numpy.ma)
        for panel in starts[np.diff(starts, prepend=-np.inf) != 0]:
            sel = np.flatnonzero(start == panel)
            coef = self._panel(float(panel), float(width[sel[0]]))
            h01[sel] = np.einsum("pd,fd->pf", basis[sel], coef).view(complex)
        h0, h1 = h01.T.reshape(2, self.k.size, -1)
        return _h_recurrence(nmax, self.k[:, None] * r, h0, h1)


def _pick(orders: np.ndarray, table: np.ndarray, z_shape: tuple) -> np.ndarray:
    """Table entries at integer orders broadcast against z, with
    (-1)^n for odd negative n."""
    absn = np.abs(orders)
    point = np.arange(table[0].size).reshape(z_shape)
    vals = table.reshape(len(table), -1)[absn, point]  # indices broadcast
    return np.where((orders < 0) & (absn % 2 == 1), -vals, vals)


def _slope(orders: np.ndarray, table: np.ndarray, z_shape: tuple) -> np.ndarray:
    """(f_{n-1} - f_{n+1}) / 2 from a table of J or H: the derivative d/dz f_n."""
    return 0.5 * (_pick(orders - 1, table, z_shape) - _pick(orders + 1, table, z_shape))


def bessel_j_orders(orders: np.ndarray, z: complex | np.ndarray) -> np.ndarray:
    """Vectorized J_n over an integer order array (negative orders allowed)."""
    orders, z = np.asarray(orders, dtype=int), np.asarray(z)
    return _pick(orders, _j_table(int(np.abs(orders).max()), z), z.shape)


def hankel1_orders(orders: np.ndarray, z: complex | np.ndarray) -> np.ndarray:
    """Vectorized H_n^(1) over an integer order array (negative orders allowed)."""
    orders, z = np.asarray(orders, dtype=int), np.asarray(z)
    return _pick(orders, _jh_tables(int(np.abs(orders).max()), z, j=False)[1], z.shape)


def bessel_j_prime_orders(orders: np.ndarray, z: complex | np.ndarray) -> np.ndarray:
    """d/dz J_n(z) = (J_{n-1}(z) - J_{n+1}(z)) / 2, vectorized over orders."""
    orders, z = np.asarray(orders, dtype=int), np.asarray(z)
    return _slope(orders, _j_table(int(np.abs(orders).max()) + 1, z), z.shape)


def hankel1_prime_orders(orders: np.ndarray, z: complex | np.ndarray) -> np.ndarray:
    """d/dz H_n^(1)(z) = (H_{n-1}(z) - H_{n+1}(z)) / 2, vectorized over orders."""
    orders, z = np.asarray(orders, dtype=int), np.asarray(z)
    return _slope(orders, _jh_tables(int(np.abs(orders).max()) + 1, z, j=False)[1], z.shape)


def bessel_hankel_orders(orders: np.ndarray, z: complex | np.ndarray) -> tuple[np.ndarray, ...]:
    """J_n, J_n', H_n^(1) and H_n^(1)' over an integer order array, from one
    Miller table to order max |n| + 1."""
    orders, z = np.asarray(orders, dtype=int), np.asarray(z)
    j, h = _jh_tables(int(np.abs(orders).max()) + 1, z)
    return (_pick(orders, j, z.shape), _slope(orders, j, z.shape),
            _pick(orders, h, z.shape), _slope(orders, h, z.shape))
