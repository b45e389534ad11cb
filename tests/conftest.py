import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run and never time out, so
# they neither flake nor stretch the suite on a slow machine
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=40,
                          database=None)
# opt in with --hypothesis-profile=sweep (see tools/hypothesis_sweep.py): fresh
# draws for each --hypothesis-seed, and more of them
settings.register_profile("sweep", derandomize=False, deadline=None, max_examples=300,
                          database=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
