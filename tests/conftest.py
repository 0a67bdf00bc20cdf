import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from delpair import pairs


@pytest.fixture(scope="session")
def catalog7():
    return {p.pair_id: p for p in pairs.catalog(7)}


@pytest.fixture(scope="session")
def catalog12():
    """The 114 deletion pairs of rank at most 12, in catalog order."""
    return pairs.catalog(12)


@pytest.fixture(scope="session")
def maximal_triple(catalog7):
    """The three maximal non-quadric pairs, smallest ambient first."""
    return [catalog7[pid] for pid in ("D5:a5/a3", "E6:a6/a5", "E7:a7/a6")]
