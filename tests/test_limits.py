"""The largest rank and primes a run accepts, at the bound and one past it."""
import time

import pytest

from delpair import cli
from delpair.cli import main, parse_pair_id
from delpair.report import MAX_PLUCKER_PRIME, MAX_RANK, MAX_SEGRE_PRIME, RunConfig, is_prime
from delpair.rootsys import DiagramError


def test_bounds_cover_the_pinned_bundles_and_are_prime():
    assert MAX_RANK >= 20                        # the max_rank-20 bundle is pinned
    assert is_prime(MAX_PLUCKER_PRIME) and MAX_PLUCKER_PRIME >= 11      # --primes 7,11 pin
    # CI runs segre fitting --q 23 within 15 s; one representative per orbit
    # brought the Segre bound up to the Plücker one
    assert is_prime(MAX_SEGRE_PRIME) and MAX_SEGRE_PRIME == MAX_PLUCKER_PRIME == 23


def test_run_config_takes_the_largest_rank_and_refuses_one_more():
    assert RunConfig(max_rank=MAX_RANK).max_rank == MAX_RANK
    with pytest.raises(ValueError, match=f"^max_rank must be between 4 and {MAX_RANK}$"):
        RunConfig(max_rank=MAX_RANK + 1)


# Two primes that trial division takes 0.7 s and 7 s to confirm, and a 20-digit
# number: past the square of its bound a prime is refused without dividing.
HUGE = (100000000000031, 10000000000000061, 12345678901234567891)


def _next_prime(n: int) -> int:
    return next(p for p in range(n + 1, 2 * n + 2) if is_prime(p))


@pytest.mark.parametrize("field, bound", [("primes_plucker", MAX_PLUCKER_PRIME),
                                          ("primes_segre", MAX_SEGRE_PRIME)])
def test_run_config_takes_the_largest_prime_and_refuses_larger(field, bound):
    assert getattr(RunConfig(**{field: (bound,)}), field) == (bound,)
    for p in (_next_prime(bound), 1000003, *HUGE):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{field} takes primes up to {bound}, not {p}$"):
            RunConfig(**{field: (3, p)})
        assert time.perf_counter() - t0 < 0.1
    with pytest.raises(ValueError, match=f"^{bound + 1} is not prime$"):
        RunConfig(**{field: (bound + 1,)})           # primality is checked first


def test_parse_pair_id_takes_the_largest_rank_and_refuses_one_more():
    assert parse_pair_id(f"B{MAX_RANK}:a1/a5").pair_id == f"B{MAX_RANK}:a1/a5"
    literal = f"B{MAX_RANK + 1}:a1/a5"
    with pytest.raises(DiagramError, match=f"^pair id '{literal}' has rank {MAX_RANK + 1}, "
                                           f"above the largest rank {MAX_RANK}$"):
        parse_pair_id(literal)


@pytest.mark.parametrize("argv, message", [
    (["catalog", "--max-rank", str(MAX_RANK + 1)], "max_rank must be between"),
    (["run-all", "--max-rank", str(MAX_RANK + 1)], "max_rank must be between"),
    (["verify-pair", "--pair", f"B{MAX_RANK + 1}:a1/a5"], "above the largest rank"),
    (["degeneracy", "--pair", "A1200:a1/a2"], "above the largest rank"),
    (["pluecker", "section", "--point", "e2^e4", "--primes", "1000003"],
     f"primes_plucker takes primes up to {MAX_PLUCKER_PRIME}, not 1000003"),
    (["pluecker", "survey", "--primes", f"5,{MAX_PLUCKER_PRIME + 6}"],
     f"primes_plucker takes primes up to {MAX_PLUCKER_PRIME}"),
    (["segre", "fitting", "--q", str(_next_prime(MAX_SEGRE_PRIME))],
     f"primes_segre takes primes up to {MAX_SEGRE_PRIME}"),
    (["pluecker", "survey", "--primes", str(HUGE[-1])],
     f"primes_plucker takes primes up to {MAX_PLUCKER_PRIME}, not {HUGE[-1]}"),
    (["segre", "fitting", "--q", str(HUGE[-1])],
     f"primes_segre takes primes up to {MAX_SEGRE_PRIME}, not {HUGE[-1]}"),
    (["run-all", "--primes", ",".join(["3"] * 65000)], "primes_plucker repeats 3"),
])
def test_over_the_bound_exits_2_with_one_line(argv, message, tmp_path, capsys):
    out = tmp_path / "b.json"
    t0 = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 0.5           # refused before any work
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert captured.out == "" and not out.exists()


# Linux lets one argument hold 128 KiB - 1 bytes (execve(2), MAX_ARG_STRLEN),
# and int() refuses a decimal string of more than 4 300 digits.  Per option, a
# token that the option takes and one that it refuses; each is repeated up to
# that length, and a number one digit past int()'s limit is tried as well.
ARG_LIMIT = 128 * 1024 - 1
TOKENS = {
    "--format": ("json", "yaml"),
    "--out": ("o", "/"),
    "--max-rank": ("7", "x"),
    "--primes": ("3,", "x,"),
    "--q": ("3", "x"),
    "--pair": ("E7:a7/a6", "E7:a7,a7/a6"),
    "--mode": ("sigma", "x"),
    "--point": ("+ e2^e4 ", "e2^e2"),
}
COMMAND_OPTIONS = [(path, flag) for path, _, options in cli.COMMANDS
                   for flag in (*cli._COMMON, *options)]


def _long(token: str) -> str:
    return (token * (ARG_LIMIT // len(token) + 1))[:ARG_LIMIT]


def test_every_option_has_its_tokens():
    assert TOKENS.keys() == cli._OPTIONS.keys()
    assert len(COMMAND_OPTIONS) == 35


@pytest.mark.parametrize("path, flag", COMMAND_OPTIONS)
def test_a_value_of_argument_length_ends_within_a_second(path, flag, tmp_path, monkeypatch,
                                                         capsys):
    # the other required options take short valid values; --out is given only
    # when it is the option under test, in an empty directory
    monkeypatch.chdir(tmp_path)
    options = next(options for p, _, options in cli.COMMANDS if p == path)
    required = [arg for other in options if other != flag
                and cli._OPTIONS[other][1].get("required")
                for arg in (other, TOKENS[other][0].strip(" +"))]
    valid, invalid = TOKENS[flag]
    for value in (_long(valid), _long(invalid), "1" + "0" * 4300):
        t0 = time.perf_counter()
        code = main([*path.split(), *required, flag, value])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (flag, value[:20])
        assert elapsed < 1.0, (flag, value[:20], elapsed)
        assert err.count("\n") <= 1, (flag, value[:20], err[:200])
        assert len(err) <= len("error: \n") + 243, (flag, value[:20], len(err))
    assert list(tmp_path.iterdir()) == []
