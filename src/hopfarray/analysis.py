"""Frequency sweeps, phase/group delay curves and two-tone interference scans.

Every sweep is one loop over the points of a line set: fixed contiguous
blocks, each point warm-started from the previous one in its block and every
block started cold, so a point's solution depends only on its block. Step j
solves point j of every block as one stack of lanes in ``hopf``. Pure tones
use blocks of 16; the two-tone scan blocks of one, so one cold stack.
Per-point solver failures are flagged, never fatal (a phase curve needs two
solved points), and every returned solution carries a residual certificate
from the pointwise evaluator in ``hopf`` (the cubic term formed at the
interior quadrature nodes, a separate code path from the tensor contraction
in the Newton iteration).
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

# the keys of a two-tone record: one mode's modulus on each line of
# TWO_TONE_LINES, in their order, then its passive response to Omega2 alone
TWO_TONE_KEYS = ("abs_X10", "abs_X01", "abs_X21", "abs_X12", "abs_X01_passive")


class UnwrapError(RuntimeError):
    """Phase cannot be unwrapped reliably on the given grid."""


@dataclass
class SweepResult:
    """Per-grid-point solutions plus flags and residual certificates.

    solutions[i] is None when point i failed; flags[i] then carries the
    failure message. certificates[i] is the independently re-evaluated
    residual norm. metadata holds the solver counts residual_evaluations and
    continuation_points, and for a two-tone scan its records.
    """

    grid: np.ndarray
    solutions: list
    flags: list
    certificates: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or len(grid) == 0:
            raise ValueError("grid must be a nonempty 1-D array")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        self.grid = grid

    @property
    def n_flagged(self) -> int:
        return sum(1 for f in self.flags if f is not None)


@dataclass
class PhaseCurve:
    """Response magnitude and unwrapped phase at one observation point.

    phase_delay_cycles is the unwrapped phase over 2 pi; group_delay_cycles
    its frequency derivative times Omega / (2 pi). phase_reference records
    whether the phase is that of the response itself ("pressure") or of its
    time derivative ("velocity", a global +0.25 cycle shift; this is what
    vibrometry measures and what makes the low-frequency delay come out
    near minus a quarter cycle). When sign_flipped is true the curve has
    additionally been negated globally so the low-frequency delay is
    negative; both normalizations are surfaced here, never absorbed. grid
    holds the solved frequencies only. sweep is the pure-tone sweep over
    the whole grid that the curves of one call share, with its solver
    statistics, certificates and the flags of the frequencies left out.
    """

    x: tuple[float, float]
    grid: np.ndarray
    R: np.ndarray
    phi: np.ndarray
    phase_delay_cycles: np.ndarray
    group_delay_cycles: np.ndarray
    sign_flipped: bool
    phase_reference: str = "velocity"
    sweep: SweepResult | None = field(default=None, repr=False)


def _line_sweep(system: ModalSystem, vectors, tones, forcing, beta: float, block: int,
                certify) -> SweepResult:
    """Solve the lines `vectors` at every point k, ringing at tones[k] (an
    array whose last column is the swept tone, and the grid) with forcing[k].

    Point j of every block of `block` contiguous points is solved as one
    stack, warm-started from the block's previous point when that one was
    solved. certify(solutions) returns their certificates; it is given at
    most _BLOCK solutions at a time, to bound memory.
    """
    outcomes, counts = [None] * len(tones), Counter()
    for j in range(min(block, len(tones))):
        idx = np.arange(j, len(tones), block)
        starts = [None if j == 0 or isinstance(outcomes[i - 1], Exception) else outcomes[i - 1].X
                  for i in idx]
        step, step_counts = solve_lines(system, vectors, tones[idx], forcing[idx], beta, starts)
        counts.update(step_counts)
        for i, out in zip(idx, step):
            outcomes[i] = out
    solutions = [None if isinstance(o, Exception) else o for o in outcomes]
    flags = [f"{type(o).__name__}: {o}" if isinstance(o, Exception) else None for o in outcomes]
    solved = [i for i, s in enumerate(solutions) if s is not None]
    certificates = [None] * len(outcomes)
    for c in range(0, len(solved), _BLOCK):
        chunk = solved[c:c + _BLOCK]
        for i, cert in zip(chunk, certify([solutions[i] for i in chunk])):
            certificates[i] = float(cert)
    return SweepResult(grid=tones[:, -1], solutions=solutions, flags=flags,
                       certificates=certificates, metadata=dict(counts))


def pure_tone_sweep(system: ModalSystem, grid, F: float, beta: float) -> SweepResult:
    """Solve the pure-tone system across a frequency grid, in warm-started
    blocks of _BLOCK points."""
    grid = np.asarray(grid, dtype=float)

    def certify(sols):
        Omegas, X = np.array([s.tones[0] for s in sols]), np.array([s.X[0] for s in sols])
        return np.linalg.norm(residual_pure_tone_reference(system, Omegas, F, beta, X), axis=1)

    return _line_sweep(system, PURE_TONE_LINES, grid[:, None], np.full((len(grid), 1), F), beta,
                       _BLOCK, certify)


def phase_response(
    system: ModalSystem,
    grid,
    F: float,
    beta: float,
    x_points,
    phase_reference: str = "velocity",
) -> list[PhaseCurve]:
    """Amplitude and unwrapped phase of the response at observation points.

    At each grid frequency the modal amplitudes are solved, the complex
    response at every x is assembled from the mode fields, and the phase is
    unwrapped along the solved frequencies (anchored so the first lies in
    (-pi, pi]). A frequency whose solve fails is flagged in the sweep and
    left out of the curves; fewer than two solved frequencies raise
    ConvergenceError. phase_reference "velocity" reports the phase of the
    time derivative of the response (a global quarter-cycle shift);
    "pressure" reports the response phase itself. If the raw phase steps by
    nearly pi between neighbouring frequencies the unwrap is ambiguous
    (unless the amplitude passes through a null, where a pi step is
    genuine) and UnwrapError suggests a finer grid.
    """
    if phase_reference not in ("velocity", "pressure"):
        raise ValueError(f"phase_reference must be 'velocity' or 'pressure', got {phase_reference!r}")
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    U = system.mode_fields_at(x_points)  # (N, P)

    sweep = pure_tone_sweep(system, grid, F, beta)
    solved = [s for s in sweep.solutions if s is not None]
    if len(solved) < 2:
        first = next((f for f in sweep.flags if f is not None), None)
        raise ConvergenceError(f"a phase curve needs two solved frequencies, got {len(solved)} "
                               f"of {len(sweep.grid)} (first failure: {first})")
    grid = sweep.grid[np.array([s is not None for s in sweep.solutions])]
    amplitudes = np.array([s.X[0] for s in solved]) @ U  # (G, P)

    curves: list[PhaseCurve] = []
    raw = np.angle(amplitudes)  # (G, P)
    mags = np.abs(amplitudes)
    steps = np.abs(np.diff(raw, axis=0))
    steps = np.minimum(steps, 2.0 * np.pi - steps)  # wrapped step size
    suspicious = steps > 0.9 * np.pi
    if suspicious.any():
        # a near-pi step across an amplitude null is a genuine phase jump,
        # not an unwrap failure
        scale = np.maximum(mags[:-1], mags[1:])
        typical = np.median(mags, axis=0)[None, :]
        genuine_null = scale < 0.05 * typical
        bad_steps = suspicious & ~genuine_null
        if bad_steps.any():
            g, p = np.unravel_index(
                np.argmax(np.where(bad_steps, steps, 0.0)), steps.shape
            )
            raise UnwrapError(
                f"phase steps by {steps[g, p]:.3f} rad between Omega = "
                f"{grid[g]:.6g} and {grid[g + 1]:.6g} at x = {tuple(x_points[p])}; "
                "refine the grid near this frequency"
            )
    phi_all = np.unwrap(raw, axis=0)
    # anchor the first point to its principal value
    first = phi_all[0]
    anchor = (first + np.pi) % (2.0 * np.pi) - np.pi
    phi_all = phi_all + (anchor - first)[None, :]
    if phase_reference == "velocity":
        phi_all = phi_all + 0.5 * np.pi

    # global orientation: low-frequency delay is reported negative; a flip
    # is recorded, never silently absorbed
    flip = bool(np.median(phi_all[0]) > 0.1 * 2.0 * np.pi)
    if flip:
        phi_all = -phi_all

    for p in range(x_points.shape[0]):
        phi = phi_all[:, p]
        curve = PhaseCurve(
            x=(float(x_points[p, 0]), float(x_points[p, 1])),
            grid=grid,
            R=mags[:, p],
            phi=phi,
            phase_delay_cycles=phi / (2.0 * np.pi),
            group_delay_cycles=np.empty(0),
            sign_flipped=flip,
            phase_reference=phase_reference,
            sweep=sweep,
        )
        curve.group_delay_cycles = group_delay(curve)
        curves.append(curve)
    return curves


def group_delay(curve: PhaseCurve) -> np.ndarray:
    """Group delay in cycles: dphi/dOmega times Omega / (2 pi).

    Central differences inside the grid, one-sided at the ends.
    """
    phi = curve.phi
    om = curve.grid
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
    system: ModalSystem, lo: float, hi: float, base_points: int = 200
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
    grid = np.unique(np.concatenate(pieces))
    return grid[(grid >= lo) & (grid <= hi)]


def two_tone_sweep(
    system: ModalSystem,
    Omega1: float,
    grid2,
    F1: float,
    F2: float,
    beta: float,
    mode_index: int,
    collision_floor: float = 1e-3,
) -> SweepResult:
    """Two-tone responses of one mode while the second frequency sweeps.

    Records, per grid point, the moduli of the four line amplitudes of the
    requested mode plus the passive single-tone reference at Omega_2. The
    grid must exclude the collision floor around Omega_1.
    """
    grid2 = np.asarray(grid2, dtype=float)
    if not 0 <= mode_index < system.n:
        raise ValueError(f"mode_index {mode_index} outside 0..{system.n - 1}")
    too_close = np.abs(grid2 - Omega1) <= collision_floor * abs(Omega1)
    if too_close.any():
        raise ValueError(
            f"grid points {grid2[too_close]} fall inside the collision floor "
            f"around Omega1 = {Omega1:.6g} (half-width {collision_floor * abs(Omega1):.3g})"
        )

    def certify(sols):
        Omega2s, Xs = np.array([s.tones[1] for s in sols]), np.array([s.X for s in sols])
        residuals = residual_two_tone(system, Omega1, Omega2s, F1, F2, beta, Xs)
        return np.linalg.norm(residuals, axis=(1, 2))

    tones = np.stack([np.full_like(grid2, Omega1), grid2], axis=1)
    forcing = np.tile([F1, F2, 0.0, 0.0], (len(grid2), 1))
    sweep = _line_sweep(system, TWO_TONE_LINES, tones, forcing, beta, 1, certify)
    *line_keys, passive_key = TWO_TONE_KEYS
    sweep.metadata["records"] = [
        None if s is None else {
            **{key: float(abs(x[mode_index])) for key, x in zip(line_keys, s.X, strict=True)},
            passive_key: float(abs(solve_passive(system, s.tones[1], F2)[mode_index])),
        }
        for s in sweep.solutions
    ]
    return sweep
