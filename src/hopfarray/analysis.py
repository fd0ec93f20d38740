"""Frequency sweeps, phase/group delay curves and two-tone interference scans.

Every sweep is one loop over the points of a line set: fixed contiguous
blocks, each point warm-started from the previous one in its block and every
block started cold, so a point's solution depends only on its block. Step j
solves point j of every block as one stack of lanes in ``hopf``. Pure tones
use blocks of 16; the two-tone scan blocks of one, so one cold stack.
A sweep returns arrays: the line amplitudes of every mode at every point, NaN
where the point failed, which is flagged with its cause, never fatal (a phase
response needs two solved points). Every solved point carries a residual
certificate from the pointwise evaluator in ``hopf``, a separate code path
from the tensor contraction in the Newton iteration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .hopf import (
    PURE_TONE_LINES,
    TWO_TONE_LINES,
    ConvergenceError,
    residual_pure_tone_reference,
    residual_two_tone,
    solve_lines,
    solve_passive,
)
from .hopf import solve_pure_tone, solve_two_tone  # noqa: F401  kept for perfbench/tracing.py, which patches them here
from .modal import ModalSystem

_BLOCK = 16


class UnwrapError(RuntimeError):
    """Phase cannot be unwrapped reliably on the given grid."""


@dataclass
class SweepResult:
    """The line amplitudes X (K, L, N) of every point of a sweep.

    X[k, l] holds the N modal amplitudes of line l at point k. A point that
    failed has X NaN, newton_iters 0 and certificate NaN, and flags[k]
    carries its failure message. certificates[k] is the independently
    re-evaluated residual norm. metadata holds the solver counts
    residual_evaluations and continuation_points, and for a two-tone scan
    the passive responses.
    """

    grid: np.ndarray
    X: np.ndarray
    newton_iters: np.ndarray
    certificates: np.ndarray
    flags: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or len(grid) == 0:
            raise ValueError("grid must be a nonempty 1-D array")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        self.grid = grid

    @property
    def solved(self) -> np.ndarray:
        return np.array([f is None for f in self.flags], dtype=bool)

    @property
    def n_flagged(self) -> int:
        return sum(1 for f in self.flags if f is not None)


@dataclass
class PhaseResponse:
    """Response magnitude R and unwrapped phase phi (G, P) at the P
    observation points of phase_response over the G solved frequencies of
    grid, in the phase_reference the caller chose. When sign_flipped is true
    the phase has been negated globally so the low-frequency delay is
    negative; the flip is surfaced here, never absorbed. sweep is the
    pure-tone sweep over the whole grid, with its solver statistics,
    certificates and the flags of the frequencies left out.
    """

    grid: np.ndarray
    R: np.ndarray
    phi: np.ndarray
    sign_flipped: bool
    sweep: SweepResult = field(repr=False)

    @property
    def phase_delay_cycles(self) -> np.ndarray:
        return self.phi / (2.0 * np.pi)

    @property
    def group_delay_cycles(self) -> np.ndarray:
        return group_delay(self.phi, self.grid)


def _line_sweep(system: ModalSystem, vectors, tones, forcing, beta: float, block: int,
                certify) -> SweepResult:
    """Solve the lines `vectors` at every point k, ringing at tones[k] (an
    array whose last column is the swept tone, and the grid) with forcing[k].

    Point j of every block of `block` contiguous points is solved as one
    stack, warm-started from the block's previous point when that one was
    solved. certify(tones, X) returns the certificates of solved points; it
    is given at most _BLOCK points at a time, to bound memory.
    """
    K = len(tones)
    sweep = SweepResult(grid=tones[:, -1],  # checked before any point is solved
                        X=np.full((K, len(vectors), system.n), np.nan, dtype=complex),
                        newton_iters=np.zeros(K, dtype=int), certificates=np.full(K, np.nan),
                        flags=[None] * K)
    X, flags, counts = sweep.X, sweep.flags, Counter()
    for j in range(min(block, K)):
        idx = np.arange(j, K, block)
        starts = [None if j == 0 or flags[i - 1] is not None else X[i - 1] for i in idx]
        step, step_counts = solve_lines(system, vectors, tones[idx], forcing[idx], beta, starts)
        counts.update(step_counts)
        for i, out in zip(idx, step):
            if isinstance(out, Exception):
                flags[i] = f"{type(out).__name__}: {out}"
            else:
                X[i], sweep.newton_iters[i] = out.X, out.newton_iters
    sweep.metadata.update(counts)
    solved = np.flatnonzero(sweep.solved)
    for c in range(0, len(solved), _BLOCK):
        chunk = solved[c:c + _BLOCK]
        sweep.certificates[chunk] = certify(tones[chunk], X[chunk])
    return sweep


def pure_tone_sweep(system: ModalSystem, grid, F: float, beta: float) -> SweepResult:
    """Solve the pure-tone system across a frequency grid, in warm-started
    blocks of _BLOCK points."""
    grid = np.asarray(grid, dtype=float)

    def certify(tones, X):
        return np.linalg.norm(residual_pure_tone_reference(system, tones[:, 0], F, beta, X[:, 0]),
                              axis=1)

    return _line_sweep(system, PURE_TONE_LINES, grid[:, None], np.full((len(grid), 1), F), beta,
                       _BLOCK, certify)


def _median(a: np.ndarray) -> np.ndarray:
    """np.median along the first axis, the mean of the middle one or two
    sorted values, without importing numpy.ma as np.median does."""
    s = np.sort(a, axis=0)
    return (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2


def phase_response(
    system: ModalSystem,
    grid,
    F: float,
    beta: float,
    x_points,
    phase_reference: str = "velocity",
) -> PhaseResponse:
    """Amplitude and unwrapped phase of the response at observation points.

    At each grid frequency the modal amplitudes are solved, the complex
    response at every x is assembled from the mode fields, and the phase is
    unwrapped along the solved frequencies from the first, which keeps
    np.angle's principal value in [-pi, pi] (before the shift and the flip
    below). A frequency whose solve fails is flagged in the sweep and left
    out of the response; fewer than two solved frequencies raise
    ConvergenceError. phase_reference "velocity" reports the phase of the
    time derivative of the response (a global +0.25 cycle shift; this is
    what vibrometry measures and what puts the low-frequency delay near
    minus a quarter cycle); "pressure" reports the response phase itself.
    If the raw phase steps by nearly pi between neighbouring frequencies the
    unwrap is ambiguous (unless the amplitude passes through a null, where a
    pi step is genuine) and UnwrapError suggests a finer grid.
    """
    if phase_reference not in ("velocity", "pressure"):
        raise ValueError(f"phase_reference must be 'velocity' or 'pressure', got {phase_reference!r}")
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    U = system.mode_fields_at(x_points)  # (N, P)

    sweep = pure_tone_sweep(system, grid, F, beta)
    solved = sweep.solved
    if solved.sum() < 2:
        first = next((f for f in sweep.flags if f is not None), None)
        raise ConvergenceError(f"a phase curve needs two solved frequencies, got {solved.sum()} "
                               f"of {len(sweep.grid)} (first failure: {first})")
    grid = sweep.grid[solved]
    amplitudes = sweep.X[solved, 0] @ U  # (G, P)

    raw = np.angle(amplitudes)  # (G, P)
    mags = np.abs(amplitudes)
    steps = np.abs(np.diff(raw, axis=0))
    steps = np.minimum(steps, 2.0 * np.pi - steps)  # wrapped step size
    suspicious = steps > 0.9 * np.pi
    if suspicious.any():
        # a near-pi step across an amplitude null is a genuine phase jump,
        # not an unwrap failure
        scale = np.maximum(mags[:-1], mags[1:])
        typical = _median(mags)[None, :]
        genuine_null = scale < 0.05 * typical
        bad_steps = suspicious & ~genuine_null
        if bad_steps.any():
            g, p = np.unravel_index(
                np.argmax(np.where(bad_steps, steps, 0.0)), steps.shape
            )
            raise UnwrapError(
                f"phase steps by {steps[g, p]:.3f} rad between Omega = "
                f"{grid[g]:.6g} and {grid[g + 1]:.6g} at x = {tuple(x_points[p].tolist())}; "
                "refine the grid near this frequency"
            )
    phi = np.unwrap(raw, axis=0)  # keeps the first row, np.angle's principal value
    if phase_reference == "velocity":
        phi = phi + 0.5 * np.pi

    # global orientation: low-frequency delay is reported negative; a flip
    # is recorded, never silently absorbed
    flip = bool(_median(phi[0]) > 0.1 * 2.0 * np.pi)
    if flip:
        phi = -phi
    return PhaseResponse(grid=grid, R=mags, phi=phi, sign_flipped=flip, sweep=sweep)


def group_delay(phi: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Group delay in cycles, dphi/dOmega times Omega / (2 pi), of each
    column of phi (G, P) over grid (G,).

    Central differences inside the grid, one-sided at the ends.
    """
    om = grid[:, None]
    dphi = np.empty_like(phi)
    dphi[1:-1] = (phi[2:] - phi[:-2]) / (om[2:] - om[:-2])
    dphi[0] = (phi[1] - phi[0]) / (om[1] - om[0])
    dphi[-1] = (phi[-1] - phi[-2]) / (om[-1] - om[-2])
    return dphi * om / (2.0 * np.pi)


def default_observation_points(system: ModalSystem) -> np.ndarray:
    """Observation points on the array line: alternating resonator centers.

    The high-frequency response is dominated by the most oscillatory mode,
    whose sign alternates from one resonator to the next; points of equal
    parity therefore share its sign and their phase plateaus differ by full
    cycles, which is the structure the phase study looks at.
    """
    return system.array.centers[::2].copy()


def refined_frequency_grid(
    system: ModalSystem, lo: float, hi: float, base_points: int
) -> np.ndarray:
    """Strictly increasing grid refined around every resonance.

    Sharp modes swing the response phase by nearly pi over a few linewidths,
    so each resonance gets local spacing of one linewidth (|Im omega_n|)
    over a window of 30 linewidths either side, clipped to [lo, hi], on top
    of the uniform base grid. A window holds the points np.arange(a, b,
    width) gives in exact arithmetic; its point count comes from the window
    edges counted in linewidths, so an unclipped window always holds 60 and
    a rounding-level change of a resonance cannot add or drop a point.
    """
    pieces = [np.linspace(lo, hi, base_points)]
    for om in system.omegas:
        width = abs(om.imag)
        if width == 0:
            continue
        below = min(30.0, (om.real - lo) / width)
        above = min(30.0, (hi - om.real) / width)
        if below + above > 0:
            a = max(lo, om.real - 30.0 * width)
            pieces.append(a + width * np.arange(np.ceil(below + above)))
    grid = np.sort(np.concatenate(pieces))
    grid = grid[np.diff(grid, prepend=-np.inf) != 0]  # np.unique without importing numpy.ma
    return grid[(grid >= lo) & (grid <= hi)]


def two_tone_sweep(
    system: ModalSystem,
    Omega1: float,
    grid2,
    F1: float,
    F2: float,
    beta: float,
) -> SweepResult:
    """Two-tone responses of every mode while the second frequency sweeps.

    X holds the four lines of TWO_TONE_LINES, and metadata["passive"] (K, N)
    the passive response to Omega_2 alone at every solved point (NaN
    elsewhere). A point whose lines collide, as at Omega_2 = Omega_1, is
    flagged; which points near Omega_1 to keep is the caller's grid policy.
    """
    grid2 = np.asarray(grid2, dtype=float)

    def certify(tones, X):
        residuals = residual_two_tone(system, Omega1, tones[:, 1], F1, F2, beta, X)
        return np.linalg.norm(residuals, axis=(1, 2))

    tones = np.stack([np.full_like(grid2, Omega1), grid2], axis=1)
    forcing = np.tile([F1, F2, 0.0, 0.0], (len(grid2), 1))
    sweep = _line_sweep(system, TWO_TONE_LINES, tones, forcing, beta, 1, certify)
    passive = np.full((len(grid2), system.n), np.nan, dtype=complex)
    for k in np.flatnonzero(sweep.solved):
        passive[k] = solve_passive(system, grid2[k], F2)
    sweep.metadata["passive"] = passive
    return sweep
