import json
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def pinned():
    return json.loads((FIXTURES / "pinned.json").read_text())


@pytest.fixture
def inflated_plans(monkeypatch):
    """Every materialised morph plan reports twice its longest tree, past
    both planner bounds."""
    from kemst import morph

    real = morph._materialize

    def inflated(ev, cfg, steps, base):
        plan = real(ev, cfg, steps, base)
        plan.max_intermediate *= 2.0
        return plan

    monkeypatch.setattr(morph, "_materialize", inflated)
