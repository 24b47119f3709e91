import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the child interpreters of the demo, trace, CLI and import tests fail on an escaped RuntimeWarning, as the
# suite does in process (pyproject's filterwarnings)
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"

from fracsplap import DomainSpec, FracOperatorParams, build_space


@pytest.fixture(scope="session")
def unit_domain():
    return DomainSpec(0.0, 1.0)


@pytest.fixture(scope="session")
def space16(unit_domain):
    return build_space(unit_domain, m=16, n_modes=16)


@pytest.fixture(scope="session")
def space32(unit_domain):
    return build_space(unit_domain, m=32, n_modes=32)


@pytest.fixture(scope="session")
def space64(unit_domain):
    return build_space(unit_domain, m=64, n_modes=64)


@pytest.fixture(scope="session")
def params_s05_p2():
    return FracOperatorParams(s=0.5, p=2.0)
