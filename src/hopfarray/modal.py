"""Projection of the wave problem onto the resonant-mode basis.

Everything the coupled amplitude equations need: the Gram matrix of mode
overlaps over the box Q, the source-coupling vector (the point mass pairs
with a mode through the conjugated mode value at the source), and the
rank-4 tensor of cubic interior products

    T[n, i, j, k] = integral_D  u_i u_j conj(u_k) conj(u_n) dx,

stored symmetrized in (i, j). Every mode is even in x2, so each of these
integrands is too, and the composite rule keeps only its nodes with x2 >= 0,
with mirrored weights (see quadrature). A build samples every mode once, in
one call, over those nodes and the source; the normalization (on a cold
build), the Gram matrix, the cubic tensor and the source vector all come from
that sample. A ModalSystem bundles these with the modes and their interior
samples (half-plane samples, at the interior nodes with x2 >= 0), and is
JSON-serializable so parameter sweeps can skip the spectral and quadrature
work. A serialized system carries the request it answers
(see cache_request), and its cache key is the hash of that request, so an
edited module or a changed input never reuses an old entry.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .boundary import MultipoleDensity, WaveParams, sample_fields
from .geometry import ResonatorArray
from .quadrature import PANEL_SIZE, exterior_rule, interior_rule
from .quadrature import default_spec  # noqa: F401  kept for perfbench/tracing.py, which patches it here
from .spectral import Eigenmode, Resonance, find_resonances, sample_eigenmodes
from .spectral import extract_eigenmode  # noqa: F401  kept for perfbench/tracing.py, which patches it here


def _mode_values(modes: list[Eigenmode], points) -> np.ndarray:
    """(N_modes, P) matrix of mode values at the given points, in one call."""
    if not modes:
        raise ValueError("need at least one mode")
    return sample_fields(modes[0].array, modes[0].params, [m.resonance.omega for m in modes],
                         [m.density for m in modes], points)


def _nodes(array: ResonatorArray, panel_size: float):
    """Composite-rule nodes and weights (exterior first) and the interior rule that ends them."""
    ext_pts, ext_wts = exterior_rule(array, panel_size)
    rule = interior_rule(array)
    return np.vstack([ext_pts, rule[0]]), np.concatenate([ext_wts, rule[1]]), rule


def gram_matrix(modes: list[Eigenmode], panel_size: float) -> np.ndarray:
    """Hermitian positive-definite matrix of mode overlaps over the box.

    Entry (i, j) approximates the integral of u_i conj(u_j) over Q by the
    composite exterior + interior rule, with exterior panels at most
    panel_size long. The result is Hermitized exactly; a
    non-positive-definite outcome (quadrature too coarse, or dependent
    modes) raises ValueError.
    """
    if not modes:
        raise ValueError("need at least one mode")
    pts, wts, _ = _nodes(modes[0].array, panel_size)
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

    The sifting property gives entry n = conj(u_n(source)). A source on a
    circle (geometry.classify_points) raises ValueError.
    """
    return _mode_values(modes, np.asarray(source, dtype=float))[:, 0].conj()


def cubic_tensor(modes: list[Eigenmode]) -> np.ndarray:
    """Rank-4 tensor of interior cubic products, symmetrized in (i, j)."""
    if not modes:
        raise ValueError("need at least one mode")
    pts, wts, _ = interior_rule(modes[0].array)
    return cubic_tensor_from_values(_mode_values(modes, pts), wts)


# (N^2, nodes) entries per factor of the cubic tensor: about 16 MB each
_TENSOR_ENTRIES = 2**20


def cubic_tensor_from_values(U: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Tensor T[n,i,j,k] = sum_p w_p U_i U_j conj(U_k) conj(U_n), summed over
    node chunks so its two (N^2, nodes) factors stay within _TENSOR_ENTRIES."""
    n = U.shape[0]
    step = max(1, _TENSOR_ENTRIES // (n * n))
    T = np.zeros((n * n, n * n), dtype=complex)
    for start in range(0, U.shape[1], step):
        u, w = U[:, start:start + step], wts[start:start + step]
        A = np.einsum("ip,jp->ijp", u, u).reshape(n * n, -1)
        B = np.einsum("kp,np->knp", u.conj(), u.conj() * w[None, :]).reshape(n * n, -1)
        T += A @ B.T
    T = T.reshape(n, n, n, n)  # indices (i, j, k, n)
    T = np.transpose(T, (3, 0, 1, 2))  # -> (n, i, j, k)
    return 0.5 * (T + T.transpose(0, 2, 1, 3))


@dataclass
class ModalSystem:
    """Everything the projected amplitude equations need.

    gram is the mode overlap matrix over Q, source_vec the point-mass
    pairings, cubic_tensor the interior cubic products and interior_values
    the (N, P) C-contiguous mode values at the interior quadrature nodes,
    all on the upper half-plane x2 >= 0.
    The modes themselves are kept so response fields can be evaluated at
    arbitrary points; search is the resonance-search record of
    find_resonances, and request the cache_request the system answers,
    which alone holds the exterior panel size (the box follows from the
    array). omegas (the N complex resonances), gram_inverse and the
    interior rule (which depends on the array alone) are derived from these
    on construction.
    """

    array: ResonatorArray
    params: WaveParams
    modes: list[Eigenmode]
    gram: np.ndarray
    source_vec: np.ndarray
    cubic_tensor: np.ndarray
    interior_values: np.ndarray = field(repr=False)
    request: dict = field(repr=False)
    search: dict = field(repr=False)
    omegas: np.ndarray = field(init=False)
    gram_inverse: np.ndarray = field(init=False, repr=False)
    _interior_rule: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.omegas = np.array([m.resonance.omega for m in self.modes])
        self.gram_inverse = np.linalg.inv(self.gram)
        self._interior_rule = interior_rule(self.array)

    @property
    def n(self) -> int:
        return len(self.modes)

    @property
    def source_gain(self) -> np.ndarray:
        """Vector g with g_m = sum_n [gram^{-1}]_{n,m} source_vec_n."""
        return self.gram_inverse.T @ self.source_vec

    def mode_fields_at(self, points) -> np.ndarray:
        """(N, P) matrix of mode values at the given points."""
        return _mode_values(self.modes, np.atleast_2d(np.asarray(points, dtype=float)))

    def interior_quadrature(self):
        """(points, weights, disk index, mode values) over the disk interiors.

        The mode values are the stored samples; no field is evaluated.
        """
        return (*self._interior_rule, self.interior_values)

    # -- serialization ------------------------------------------------

    def to_json(self) -> str:
        """The cache entry: the request once (array, params and every mode's
        truncation M are read back from it), then the results."""
        modes = self.modes
        return json.dumps({
            "request": self.request,
            "resonances": {
                "omega": _encode(self.omegas),
                "residual": [m.resonance.residual for m in modes],
                "drift": [m.resonance.drift for m in modes],
            },
            "sv_gaps": [m.sv_gap for m in modes],
            "psi": _encode([m.density.psi for m in modes]),
            "phi": _encode([m.density.phi for m in modes]),
            **{name: _encode(getattr(self, name)) for name in _ARRAYS},
            "search": self.search,
        })

    @classmethod
    def from_json(cls, text: str, *, request: dict) -> "ModalSystem":
        """Inverse of to_json for an entry written for request; an entry
        written for any other request raises ValueError naming the keys
        that differ."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"modal cache entry must be an object, got {type(data).__name__}")
        if data.get("request") != request:
            stored = data["request"] if isinstance(data.get("request"), dict) else {}
            differ = [k for k in sorted(request.keys() | stored.keys())
                      if stored.get(k) != request.get(k)]
            raise ValueError(
                f"modal cache entry is for another request (differs in {', '.join(differ)})")
        inputs = data["request"]["inputs"]
        array = ResonatorArray(**inputs["array"])
        params = WaveParams(**inputs["params"])
        res = data["resonances"]
        columns = zip(
            _decode(res["omega"]), res["residual"], res["drift"],
            data["sv_gaps"], _decode(data["psi"]), _decode(data["phi"]), strict=True,
        )
        modes = [
            Eigenmode(
                resonance=Resonance(omega=complex(omega), residual=residual,
                                    truncation=data["request"]["M"], drift=drift),
                density=MultipoleDensity(psi=psi, phi=phi),
                array=array,
                params=params,
                sv_gap=gap,
            )
            for omega, residual, drift, gap, psi, phi in columns
        ]
        return cls(array=array, params=params, modes=modes,
                   **{name: _decode(data[name]) for name in _ARRAYS},
                   request=data["request"], search=data["search"])


# the stored arrays of a ModalSystem besides the modes
_ARRAYS = ("gram", "source_vec", "cubic_tensor", "interior_values")


@functools.cache
def _source_digest() -> str:
    """SHA-256 over the name and bytes of every module of the package, read
    once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _encode(a) -> dict:
    """A complex array, exactly: its shape and its little-endian complex128 bytes in base64."""
    a = np.asarray(a, dtype="<c16")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode(d) -> np.ndarray:
    """Inverse of _encode: a writable C-contiguous complex array."""
    raw = bytearray(base64.b64decode(d["data"], validate=True))
    return np.frombuffer(raw, dtype="<c16").reshape(d["shape"])


def cache_request(
    array: ResonatorArray,
    params: WaveParams,
    M: int,
    panel_size: float,
) -> dict:
    """What a build computes from, as JSON values: the inputs (geometry,
    material, exterior panel size), the truncation M and the digest of the
    package source, which stands for the code."""
    inputs = {"array": asdict(array), "params": asdict(params), "panel_size": panel_size}
    request = {"inputs": inputs, "M": M, "source": _source_digest()}
    return json.loads(json.dumps(request))  # tuples become lists, as in a loaded entry


def modal_cache_key(request: dict) -> str:
    """Content hash of a cache_request: any changed input, setting or
    module gives a new key."""
    return hashlib.sha256(json.dumps(request, sort_keys=True).encode()).hexdigest()


def build_modal_system(
    array: ResonatorArray,
    params: WaveParams,
    M: int,
    panel_size: float = PANEL_SIZE,
) -> ModalSystem:
    """Full pipeline: resonances -> eigenmodes -> projection quantities."""
    nodes, wts, rule = _nodes(array, panel_size)
    points = np.vstack([nodes, np.asarray(array.source, dtype=float)[None, :]])
    resonances = find_resonances(array, params, M=M)
    modes, U = sample_eigenmodes(array, params, resonances, rule, points, len(wts) - len(rule[1]))
    gram, source_vec = _gram_from_values(U[:, :-1], wts), U[:, -1].conj()
    interior = np.ascontiguousarray(U[:, -1 - len(rule[1]):-1])
    del U  # freed before the cubic tensor
    return ModalSystem(
        array=array,
        params=params,
        modes=modes,
        gram=gram,
        source_vec=source_vec,
        cubic_tensor=cubic_tensor_from_values(interior, rule[1]),
        interior_values=interior,
        request=cache_request(array, params, M, panel_size),
        search=resonances.search,
    )

