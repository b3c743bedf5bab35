"""Shared fixtures and a deterministic hypothesis profile."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, settings

from pdisc.modelio import leslie_system

# without the explain phase, which runs a shrunk failing example again
# many times to report which of its parts matter: a failing property
# reports in seconds, not minutes
settings.register_profile(
    "suite",
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("suite")


@pytest.fixture
def leslie_b() -> object:
    """The reference system in the stable-interior regime (1-AC > 0)."""
    return leslie_system(Fraction(1), Fraction(1), Fraction(1, 2))


@pytest.fixture
def leslie_collapse() -> object:
    """The boundary regime AC = 1 where two equilibria merge."""
    return leslie_system(Fraction(1), Fraction(1), Fraction(1))


@pytest.fixture
def model_file(tmp_path) -> str:
    path = tmp_path / "model.vf"
    path.write_text(
        "params: A=1, B=1, C=1/2\n"
        "dx = x*(C+x)*(1-x-A*y)\n"
        "dy = B*y*(C+x-y)\n",
        encoding="utf-8",
    )
    return str(path)
