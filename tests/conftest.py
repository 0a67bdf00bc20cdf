import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from delpair import pairs
from delpair.checks import (
    correspondence_checks,
    degeneracy_checks,
    infinity_checks,
    normal_bundle_checks,
)
from delpair.report import bundle_json
import pins


@pytest.fixture(scope="session")
def catalog7():
    return {p.pair_id: p for p in pairs.catalog(7)}


@pytest.fixture(scope="session")
def catalog12():
    """The 114 deletion pairs of rank at most 12, in catalog order."""
    return pairs.catalog(12)


@pytest.fixture(scope="session")
def catalog20():
    """The 346 deletion pairs of rank at most 20, in catalog order."""
    return pairs.catalog(20)


@pytest.fixture(scope="session")
def rank40_witnesses():
    """(check_id, pair id) -> (status, witnesses) of the five pair rows on
    every pair of ``pairs.catalog(40)``.

    MAX_RANK stays 20, so no bundle reaches rank 40: the four pair checks of
    run-all's pair rows run here on each pair in turn, as those rows do.
    """
    out, catalog = {}, pairs.catalog(40)
    for check in (correspondence_checks, degeneracy_checks, infinity_checks,
                  normal_bundle_checks):
        for pair in catalog:
            for rep in check(pair):
                out[rep.check_id, rep.subject] = rep.status, rep.witnesses
    return out


@pytest.fixture(scope="session")
def maximal_triple(catalog7):
    """The three maximal non-quadric pairs, smallest ambient first."""
    return [catalog7[pid] for pid in ("D5:a5/a3", "E6:a6/a5", "E7:a7/a6")]


def _pinned_bundle(name: str):
    """The bundle of pin ``name`` from the one build that ``test_pin_holds``
    checks, and at the end of the session a check that no test changed it."""
    code, _, sha, _, doc = pins.build(name)
    assert code == 0
    yield doc
    assert hashlib.sha256(bundle_json(doc).encode("utf-8")).hexdigest() == sha, (
        f"a test changed the shared {name} bundle")


@pytest.fixture(scope="session")
def default_bundle():
    """The default bundle, as ``delpair run-all --out bundle.json`` writes it."""
    yield from _pinned_bundle("default")


@pytest.fixture(scope="session")
def rank_sweep_bundle():
    """The bundle at max_rank 12 with the smallest lab primes."""
    yield from _pinned_bundle("rank_sweep")


@pytest.fixture(scope="session")
def rank20_bundle():
    """The bundle at max_rank 20 with the smallest lab primes."""
    yield from _pinned_bundle("max_rank_20")
