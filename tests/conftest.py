import pytest

from ordercones.acceptance import run_all


@pytest.fixture(scope="session")
def acceptance_seed7():
    """The full-size acceptance run at seed 7, computed once per session."""
    return run_all(seed=7)
