"""The SUITES table: what each row reads, and that run-all is its rows together."""
import pytest

from delpair import cli
from delpair.checks import SUITES, run_all
from delpair.report import RunConfig

# Two values of each field: the default, and another a row that reads the
# field reports differently on.
VARIED = {"max_rank": 5, "primes_plucker": (3,), "primes_segre": (2,)}


def _rows(name, config):
    reports, _ = SUITES[name]
    return [rep.to_dict() for rep in reports(config)]


@pytest.mark.parametrize("name", list(SUITES))
def test_each_row_reads_exactly_the_fields_it_declares(name):
    _, reads = SUITES[name]
    assert set(reads) <= {*RunConfig._fields, "seed"} - {"fmt"}
    usual = _rows(name, RunConfig())
    for field, value in VARIED.items():
        varied = _rows(name, RunConfig(**{field: value}))
        assert (varied != usual) == (field in reads), field


@pytest.mark.parametrize("fixture, config", [
    ("default_bundle", RunConfig()),
    ("rank_sweep_bundle", RunConfig(max_rank=12, primes_plucker=(3,), primes_segre=(2,))),
])
def test_run_all_is_every_row_together(fixture, config, request):
    doc = request.getfixturevalue(fixture)
    rows = [row for name in SUITES for row in _rows(name, config)]
    keys = [(row["check_id"], row["subject"]) for row in rows]
    assert len(set(keys)) == len(keys)
    assert sorted(rows, key=lambda row: (row["check_id"], row["subject"])) == doc["reports"]
    # the bundle echoes format and the fields the rows read, nothing else
    reads = {field for _, fields in SUITES.values() for field in fields}
    assert doc["config"].keys() == {"format"} | reads


def test_cli_run_all_is_this_run_all():
    assert cli.run_all is run_all
