"""Projection of the wave problem onto the resonant-mode basis.

Everything the coupled amplitude equations need: the Gram matrix of mode
overlaps over the box Q, the source-coupling vector (the point mass pairs
with a mode through the conjugated mode value at the source), and the
rank-4 tensor of cubic interior products

    T[n, i, j, k] = integral_D  u_i u_j conj(u_k) conj(u_n) dx,

stored symmetrized in (i, j). A build samples every mode once, in one call,
over the composite rule's nodes and the source; the normalization (on a cold
build), the Gram matrix, the cubic tensor and the source vector all come from
that sample. A ModalSystem bundles these with the modes and their interior
samples, and is JSON-serializable so parameter sweeps can skip the spectral
and quadrature work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .boundary import MultipoleDensity, WaveParams, sample_fields
from .geometry import Resonator, ResonatorArray
from .quadrature import QuadratureSpec, default_spec, exterior_rule, interior_rule
from .spectral import Eigenmode, Resonance, find_resonances, sample_eigenmodes
from .spectral import extract_eigenmode  # noqa: F401  kept for perfbench/tracing.py, which patches it here


# Layout of the JSON cache; bump it whenever to_dict changes.
CACHE_FORMAT = 4


def _mode_values(modes: list[Eigenmode], points, side: str | None = None) -> np.ndarray:
    """(N_modes, P) matrix of mode values at the given points, in one call."""
    if not modes:
        raise ValueError("need at least one mode")
    return sample_fields(modes[0].array, modes[0].params, [m.resonance.omega for m in modes],
                         [m.density for m in modes], points, side=side)


def _nodes(array: ResonatorArray, quad: QuadratureSpec):
    """Composite-rule nodes and weights (exterior first) and the interior rule that ends them."""
    ext_pts, ext_wts = exterior_rule(array, quad)
    rule = interior_rule(array, quad)
    return np.vstack([ext_pts, rule[0]]), np.concatenate([ext_wts, rule[1]]), rule


def gram_matrix(modes: list[Eigenmode], quad: QuadratureSpec) -> np.ndarray:
    """Hermitian positive-definite matrix of mode overlaps over the box.

    Entry (i, j) approximates the integral of u_i conj(u_j) over Q by the
    composite exterior + interior rule. The result is Hermitized exactly;
    a non-positive-definite outcome (quadrature too coarse, or dependent
    modes) raises ValueError.
    """
    if not modes:
        raise ValueError("need at least one mode")
    pts, wts, _ = _nodes(modes[0].array, quad)
    return _gram_from_values(_mode_values(modes, pts), wts)


def _gram_from_values(U: np.ndarray, wts: np.ndarray) -> np.ndarray:
    gram = (U * wts[None, :]) @ U.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    eigenvalues = np.linalg.eigvalsh(gram)
    if eigenvalues.min() <= 0:
        raise ValueError(
            f"mode Gram matrix is not positive definite (min eigenvalue "
            f"{eigenvalues.min():.3g}); refine the quadrature or check the modes"
        )
    return gram


def source_coupling(modes: list[Eigenmode], source) -> np.ndarray:
    """Pairing of a unit point mass at the source with each mode.

    The sifting property gives entry n = conj(u_n(source)). The source
    must lie strictly outside every circle.
    """
    if not modes:
        raise ValueError("need at least one mode")
    array = modes[0].array
    for idx, r in enumerate(array.resonators):
        d = np.hypot(source[0] - r.center[0], source[1] - r.center[1])
        if abs(d - r.radius) <= 1e-12 * max(r.radius, 1.0):
            raise ValueError(f"source {tuple(source)} lies on the boundary of resonator {idx}")
    return _mode_values(modes, np.asarray(source, dtype=float))[:, 0].conj()


def cubic_tensor(modes: list[Eigenmode], quad: QuadratureSpec) -> np.ndarray:
    """Rank-4 tensor of interior cubic products, symmetrized in (i, j)."""
    if not modes:
        raise ValueError("need at least one mode")
    pts, wts, _ = interior_rule(modes[0].array, quad)
    return cubic_tensor_from_values(_mode_values(modes, pts), wts)


def cubic_tensor_from_values(U: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Tensor T[n,i,j,k] = sum_p w_p U_i U_j conj(U_k) conj(U_n)."""
    n = U.shape[0]
    A = np.einsum("ip,jp->ijp", U, U).reshape(n * n, -1)
    B = np.einsum("kp,np->knp", U.conj(), U.conj() * wts[None, :]).reshape(n * n, -1)
    T = (A @ B.T).reshape(n, n, n, n)  # indices (i, j, k, n)
    T = np.transpose(T, (3, 0, 1, 2))  # -> (n, i, j, k)
    return 0.5 * (T + T.transpose(0, 2, 1, 3))


@dataclass
class ModalSystem:
    """Everything the projected amplitude equations need.

    omegas are the N complex resonances, gram/gram_inverse the mode overlap
    matrix over Q and its inverse, source_vec the point-mass pairings,
    cubic_tensor the interior cubic products and interior_values the
    (N, P) C-contiguous mode values at the interior quadrature nodes. The
    modes themselves are kept so response fields can be evaluated at
    arbitrary points; search is the resonance-search record of
    find_resonances (None when the modes were given).
    """

    array: ResonatorArray
    params: WaveParams
    quad: QuadratureSpec
    modes: list[Eigenmode]
    omegas: np.ndarray
    gram: np.ndarray
    gram_inverse: np.ndarray
    source_vec: np.ndarray
    cubic_tensor: np.ndarray
    interior_values: np.ndarray = field(repr=False)
    search: dict | None = field(default=None, repr=False)
    _interior_rule: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.omegas)

    @property
    def source_gain(self) -> np.ndarray:
        """Vector g with g_m = sum_n [gram^{-1}]_{n,m} source_vec_n."""
        return self.gram_inverse.T @ self.source_vec

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Apply the transposed Gram inverse (the modal deprojection)."""
        return self.gram_inverse.T @ vec

    def mode_fields_at(self, points, side: str | None = None) -> np.ndarray:
        """(N, P) matrix of mode values at the given points."""
        return _mode_values(self.modes, np.atleast_2d(np.asarray(points, dtype=float)), side=side)

    def interior_quadrature(self):
        """(points, weights, disk index, mode values) over the disk interiors.

        The mode values are the stored samples; no field is evaluated.
        """
        if self._interior_rule is None:
            self._interior_rule = interior_rule(self.array, self.quad)
        return (*self._interior_rule, self.interior_values)

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": CACHE_FORMAT,
            "array": {
                "resonators": [[r.center[0], r.center[1], r.radius] for r in self.array.resonators],
                "source": list(self.array.source),
                "grading_factor": self.array.grading_factor,
            },
            "params": {
                "v": self.params.v,
                "v_b": self.params.v_b,
                "delta": self.params.delta,
                "tau": self.params.tau,
            },
            "quad": {
                "box": list(self.quad.box),
                "ext_order": self.quad.ext_order,
                "panel_size": self.quad.panel_size,
                "ring_radial": self.quad.ring_radial,
                "ring_angular": self.quad.ring_angular,
                "disk_radial": self.quad.disk_radial,
                "disk_angular": self.quad.disk_angular,
            },
            "resonances": [
                {
                    "omega": [m.resonance.omega.real, m.resonance.omega.imag],
                    "residual": m.resonance.residual,
                    "truncation": m.resonance.truncation,
                    "drift": m.resonance.drift,
                }
                for m in self.modes
            ],
            "sv_gaps": [m.sv_gap for m in self.modes],
            "normalizations": [[m.normalization.real, m.normalization.imag] for m in self.modes],
            "densities": [
                {
                    "psi": _complex_to_list(m.density.psi),
                    "phi": _complex_to_list(m.density.phi),
                }
                for m in self.modes
            ],
            "gram": _complex_to_list(self.gram),
            "gram_inverse": _complex_to_list(self.gram_inverse),
            "source_vec": _complex_to_list(self.source_vec),
            "cubic_tensor": _complex_to_list(self.cubic_tensor),
            "interior_values": _complex_to_list(self.interior_values),
            "search": self.search,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModalSystem":
        if data.get("version") != CACHE_FORMAT:
            raise ValueError(f"unsupported modal cache version {data.get('version')}")
        arr = ResonatorArray(
            resonators=tuple(
                Resonator(center=(c[0], c[1]), radius=c[2]) for c in data["array"]["resonators"]
            ),
            source=tuple(data["array"]["source"]),
            grading_factor=data["array"]["grading_factor"],
        )
        params = WaveParams(**data["params"])
        quad = QuadratureSpec(box=tuple(data["quad"]["box"]), **{
            k: data["quad"][k]
            for k in ("ext_order", "panel_size", "ring_radial", "ring_angular", "disk_radial", "disk_angular")
        })
        modes = []
        for res_d, gap, norm, dens in zip(
            data["resonances"], data["sv_gaps"], data["normalizations"], data["densities"]
        ):
            resonance = Resonance(
                omega=complex(*res_d["omega"]),
                residual=res_d["residual"],
                truncation=res_d["truncation"],
                drift=res_d["drift"],
            )
            density = MultipoleDensity(
                psi=_list_to_complex(dens["psi"]), phi=_list_to_complex(dens["phi"])
            )
            modes.append(
                Eigenmode(
                    resonance=resonance,
                    density=density,
                    normalization=complex(*norm),
                    array=arr,
                    params=params,
                    sv_gap=gap,
                )
            )
        return cls(
            array=arr,
            params=params,
            quad=quad,
            modes=modes,
            omegas=np.array([m.resonance.omega for m in modes]),
            gram=_list_to_complex(data["gram"]),
            gram_inverse=_list_to_complex(data["gram_inverse"]),
            source_vec=_list_to_complex(data["source_vec"]),
            cubic_tensor=_list_to_complex(data["cubic_tensor"]),
            interior_values=np.ascontiguousarray(_list_to_complex(data["interior_values"])),
            search=data["search"],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ModalSystem":
        return cls.from_dict(json.loads(text))


def _complex_to_list(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    return {"shape": list(a.shape), "re": a.real.ravel().tolist(), "im": a.imag.ravel().tolist()}


def _list_to_complex(d) -> np.ndarray:
    re = np.array(d["re"], dtype=float)
    im = np.array(d["im"], dtype=float)
    return (re + 1j * im).reshape(d["shape"])


def modal_cache_key(
    array: ResonatorArray,
    params: WaveParams,
    M: int,
    quad: QuadratureSpec,
    search: dict | None = None,
) -> str:
    """Content hash identifying a ModalSystem computation.

    Covers every input that changes the result: geometry, material,
    truncation, quadrature and resonance-search settings, plus the cache
    format and the package version.
    """
    payload = {
        "format": CACHE_FORMAT,
        "version": __version__,
        "search": dict(search or {}),
        "resonators": [[r.center[0], r.center[1], r.radius] for r in array.resonators],
        "source": list(array.source),
        "params": [params.v, params.v_b, params.delta],
        "M": M,
        "quad": [
            list(quad.box),
            quad.ext_order,
            quad.panel_size,
            quad.ring_radial,
            quad.ring_angular,
            quad.disk_radial,
            quad.disk_angular,
        ],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def build_modal_system(
    array: ResonatorArray,
    params: WaveParams,
    M: int = 5,
    quad: QuadratureSpec | None = None,
    search: dict | None = None,
    modes: list[Eigenmode] | None = None,
) -> ModalSystem:
    """Full pipeline: resonances -> eigenmodes -> projection quantities."""
    if quad is None:
        quad = default_spec(array)
    nodes, wts, rule = _nodes(array, quad)
    points = np.vstack([nodes, np.asarray(array.source, dtype=float)[None, :]])
    record = None
    if modes is None:
        resonances = find_resonances(array, params, M=M, search=search)
        record = resonances.search
        modes, U = sample_eigenmodes(array, params, resonances, rule, points, len(wts) - len(rule[1]))
    else:
        U = _mode_values(modes, points)
    gram, source_vec = _gram_from_values(U[:, :-1], wts), U[:, -1].conj()
    interior = np.ascontiguousarray(U[:, -1 - len(rule[1]):-1])
    del U  # freed before the cubic tensor, whose (N^2, P) factors set the peak memory
    return ModalSystem(
        array=array,
        params=params,
        quad=quad,
        modes=modes,
        omegas=np.array([m.resonance.omega for m in modes]),
        gram=gram,
        gram_inverse=np.linalg.inv(gram),
        source_vec=source_vec,
        cubic_tensor=cubic_tensor_from_values(interior, rule[1]),
        interior_values=interior,
        search=record,
        _interior_rule=rule,
    )


def refinement_report(modes: list[Eigenmode], quad: QuadratureSpec) -> dict[str, float]:
    """Max relative change of each projected quantity under node doubling."""
    reports = []
    for q in (quad, quad.refine(2)):
        pts, wts, rule = _nodes(modes[0].array, q)
        U = _mode_values(modes, pts)
        reports.append((_gram_from_values(U, wts), cubic_tensor_from_values(U[:, -len(rule[1]):], rule[1])))
    (g0, t0), (g1, t1) = reports
    return {
        "gram": float(np.max(np.abs(g1 - g0)) / np.max(np.abs(g1))),
        "cubic_tensor": float(np.max(np.abs(t1 - t0)) / np.max(np.abs(t1))),
    }
