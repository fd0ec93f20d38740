import pytest

from hopfarray.boundary import WaveParams
from hopfarray.geometry import Resonator, ResonatorArray, build_graded_array, default_array
from hopfarray.modal import build_modal_system
from hopfarray.spectral import extract_eigenmode, find_resonances


@pytest.fixture(scope="session")
def params():
    return WaveParams(v=1.0, v_b=1.0, delta=1e-3)


@pytest.fixture(scope="session")
def single_array():
    return build_graded_array(1, 1.0, 1.0, 0.5, -5.0)


@pytest.fixture(scope="session")
def pair_array():
    # two identical circles mirrored in the x2-axis
    return ResonatorArray(
        resonators=(
            Resonator(center=(-1.25, 0.0), radius=1.0),
            Resonator(center=(1.25, 0.0), radius=1.0),
        ),
        source=(-6.0, 0.0),
        grading_factor=1.0,
    )


@pytest.fixture(scope="session")
def six_array():
    return default_array()


@pytest.fixture(scope="session")
def single_resonances(single_array, params):
    return find_resonances(single_array, params, M=4)


@pytest.fixture(scope="session")
def single_mode(single_array, params, single_resonances):
    return extract_eigenmode(single_array, params, single_resonances[0])


@pytest.fixture(scope="session")
def pair_resonances(pair_array, params):
    return find_resonances(pair_array, params, M=5)


@pytest.fixture(scope="session")
def pair_modes(pair_array, params, pair_resonances):
    return [extract_eigenmode(pair_array, params, r) for r in pair_resonances]


@pytest.fixture(scope="session")
def twelve_array():
    return build_graded_array(12, 1.0, 1.05, 0.5, -5.0)


@pytest.fixture(scope="session")
def twelve_resonances(twelve_array, params):
    # paper scale: the search runs once for the spectral and modal tests
    return find_resonances(twelve_array, params, M=5)


@pytest.fixture(scope="session")
def six_resonances(six_array, params):
    return find_resonances(six_array, params, M=5)


@pytest.fixture(scope="session")
def six_system(six_array, params, six_resonances):
    modes = [extract_eigenmode(six_array, params, r) for r in six_resonances]
    return build_modal_system(six_array, params, M=5, modes=modes)


@pytest.fixture(scope="session")
def pair_system(pair_array, params, pair_modes):
    return build_modal_system(pair_array, params, M=5, modes=pair_modes)


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
