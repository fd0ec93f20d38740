import pytest

from hopfarray.boundary import WaveParams, evaluate_field
from hopfarray.geometry import ResonatorArray, build_graded_array
from hopfarray.modal import build_modal_system
from hopfarray.spectral import Resonances, extract_eigenmode, find_resonances


@pytest.fixture(scope="session")
def params():
    return WaveParams(v=1.0, v_b=1.0, delta=1e-3)


@pytest.fixture(scope="session")
def single_array():
    return build_graded_array(1, 1.0, 1.0, 0.5, -5.0)


@pytest.fixture(scope="session")
def pair_array():
    # two identical circles mirrored in the x2-axis
    return ResonatorArray(center_x=(-1.25, 1.25), radius=(1.0, 1.0), source_x=-6.0)


@pytest.fixture(scope="session")
def six_array():
    # desk-scale default: 6 circles, r0 = 1, s = 1.05, gap ratio 0.5, source at (-5, 0)
    return build_graded_array(n=6, first_radius=1.0, s=1.05, gap_ratio=0.5, source_x=-5.0)


@pytest.fixture(scope="session")
def single_resonances(single_array, params):
    return find_resonances(single_array, params, M=4)


@pytest.fixture(scope="session")
def single_mode(single_array, params, single_resonances):
    return extract_eigenmode(single_array, params, single_resonances[0])


def _resonances(system):
    """The resonances a modal system's build found, with their search record."""
    found = Resonances(mode.resonance for mode in system.modes)
    found.search = system.search
    return found


@pytest.fixture(scope="session")
def pair_system(pair_array, params):
    # the CLI's build path: one search, then every mode sampled once
    return build_modal_system(pair_array, params, M=5)


@pytest.fixture(scope="session")
def pair_resonances(pair_system):
    return _resonances(pair_system)


@pytest.fixture(scope="session")
def pair_modes(pair_system):
    return pair_system.modes


@pytest.fixture(scope="session")
def twelve_array():
    return build_graded_array(12, 1.0, 1.05, 0.5, -5.0)


@pytest.fixture(scope="session")
def twelve_resonances(twelve_array, params):
    # paper scale: the search runs once for the spectral and modal tests
    return find_resonances(twelve_array, params, M=5)


@pytest.fixture(scope="session")
def twelve_system(twelve_array, twelve_resonances, params):
    import hopfarray.modal as modal

    # the shared search result stands in for the search; everything after it
    # runs as in a cold build
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modal, "find_resonances", lambda *args, **kwargs: twelve_resonances)
        return build_modal_system(twelve_array, params, M=5)


@pytest.fixture(scope="session")
def six_system(six_array, params):
    # the system `hopfarray resonances` builds for the README default config
    return build_modal_system(six_array, params, M=5)


@pytest.fixture(scope="session")
def six_resonances(six_system):
    return _resonances(six_system)


def mode_field(mode, points):
    """A normalized eigenmode's field at one or many points off every circle."""
    return evaluate_field(mode.array, mode.params, mode.resonance.omega, mode.density, points)


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion
# ---------------------------------------------------------------------------
_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else "")
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
