import argparse
import gc
import hashlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest

import delpair
from delpair import checks, cli, hss, labs, pairs, report, sff, usage
from delpair.chevalley import ChevalleyTable, build_table
from delpair.cli import main, parse_pair_id, run_all
from delpair.pairs import CorrespondenceError
from delpair.projgeo import plucker, segre
from delpair.projgeo.plucker import dee_exhaustive_survey
from delpair.projgeo.segre import segre_fitting_report
from delpair.report import (
    DEFAULT_SEED,
    FAIL,
    RunConfig,
    bundle_json,
    bundle_markdown,
    require_prime,
)
from delpair.rootsys import (
    ChainError,
    DiagramError,
    MarkError,
    build_root_system,
    descriptor,
    parse_diagram,
    parse_marked,
)
from oracles import (
    FAMILY_CLOSED_FORMS,
    PAIR_ROWS,
    decomposability_bivectors,
    family_reading,
    generator_jacobi_triples,
)
import pins


# The byte contract: every pinned sha256 and how tests/pins.py builds it.
GOLDENS = pins.table()


def small_config(**kw):
    defaults = dict(max_rank=4, primes_plucker=(5,), primes_segre=(2,))
    defaults.update(kw)
    return RunConfig(**defaults)


def test_parse_pair_id_examples():
    assert parse_pair_id("E7:a7/a6").name == "(E6/P6 in E7/P7)"
    assert parse_pair_id("B4:a1/a2").name == "(Q^5 in Q^7)"


def test_parse_pair_id_distinct_errors():
    with pytest.raises(DiagramError):
        parse_pair_id("Z9:a1/a2")
    with pytest.raises(MarkError, match="not cominuscule"):
        parse_pair_id("E7:a6/a5")
    with pytest.raises(ChainError):
        parse_pair_id("B4:a1/a4")
    with pytest.raises(ChainError, match="catalog"):
        parse_pair_id("E6:a1/a3")    # valid deletion but disconnected survivor


def test_parse_pair_id_resolves_every_catalog_id(catalog12):
    # the catalog at a pair's own rank (at least 4) decides it, so B3 resolves
    for pair in catalog12:
        resolved = parse_pair_id(pair.pair_id)
        assert resolved == pair and resolved.name == pair.name
        assert resolved.chain == pair.chain and resolved.sub == pair.sub
    assert parse_pair_id("B3:a1/a2") in catalog12
    with pytest.raises(ChainError, match="catalog"):
        parse_pair_id("E6:a1/a3")


def test_parse_pair_id_does_not_build_the_catalog(monkeypatch):
    def refuse(max_rank):
        raise AssertionError("parse_pair_id built the catalog")

    monkeypatch.setattr(pairs, "catalog", refuse)
    assert parse_pair_id("B4:a1/a3").pair_id == "B4:a1/a3"
    with pytest.raises(ChainError, match="catalog"):
        parse_pair_id("E6:a1/a3")


def test_an_over_rank_pair_id_is_refused_before_its_diagram_is_built():
    # classifying A100000 would take minutes; the rank is summed from the literal
    argv = [sys.executable, "-m", "delpair.cli", "verify-pair", "--pair", "A100000:a1/a2"]
    done = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, timeout=5)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("error: pair id 'A100000:a1/a2' has rank 100000, "
                           "above the largest rank 20\n")


def test_run_all_small_config_is_green():
    code, doc = run_all(small_config())
    assert code == 0
    assert doc["summary"][FAIL] == 0
    rows = {r["subject"] for r in doc["reports"]
            if r["check_id"] == "pairs.correspondence"}
    assert "B4:a1/a2" in rows
    assert not any(s.startswith("E7") for s in rows)
    chain = next(r for r in doc["reports"] if r["check_id"] == "hss.vmrt_chain")
    assert chain["status"] == "skipped"


def test_run_all_bundle_reports_sorted_and_seed_echoed():
    code, doc = run_all(small_config())
    keys = [(r["check_id"], r["subject"]) for r in doc["reports"]]
    assert keys == sorted(keys)
    assert doc["config"]["seed"] == DEFAULT_SEED


def test_exit_code_mirrors_fail_entries():
    code, doc = run_all(small_config())
    assert (code == 0) == all(r["status"] != "fail" for r in doc["reports"])


def test_markdown_statuses_match_json():
    _, doc = run_all(small_config())
    md = bundle_markdown(doc)
    rows = [line for line in md.splitlines() if line.startswith("| ") and
            not line.startswith("| check") and not line.startswith("|---")]
    assert len(rows) == len(doc["reports"])
    for row, rep in zip(rows, doc["reports"]):
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[0] == rep["check_id"]
        assert cells[1] == rep["subject"]
        assert cells[2] == rep["status"]


def test_cli_catalog_rank_filter(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["catalog", "--max-rank", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(not r["subject"].startswith("E7") for r in doc["reports"])


def test_cli_verify_pair_and_exit_codes(tmp_path):
    out = tmp_path / "pair.json"
    assert main(["verify-pair", "--pair", "E7:a7/a6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["status"] == "pass"
    assert main(["verify-pair", "--pair", "E7:a6/a5", "--out", str(out)]) == 2


@pytest.mark.parametrize("pair_id, message", [
    ("E8:a8/a7", "a8 is not cominuscule in E8: highest root coefficient is 2"),
    ("E8:a4/a3", "a4 is not cominuscule in E8: highest root coefficient is 6"),
    ("E7:a4/a3", "a4 is not cominuscule in E7: highest root coefficient is 4"),
    ("E6:a4/a3", "a4 is not cominuscule in E6: highest root coefficient is 3"),
    ("G2:a2/a1", "a2 is not cominuscule in G2: highest root coefficient is 2"),
    ("G2:a1/a2", "a1 is not cominuscule in G2: highest root coefficient is 3"),
    ("F4:a4/a1", "a4 is not cominuscule in F4: highest root coefficient is 2"),
    ("F4:a3/a2", "a3 is not cominuscule in F4: highest root coefficient is 4"),
    ("B4:a2/a1", "a2 is not cominuscule in B4: highest root coefficient is 2"),
    ("C4:a1/a4", "a1 is not cominuscule in C4: highest root coefficient is 2"),
    ("D5:a2/a1", "a2 is not cominuscule in D5: highest root coefficient is 2"),
    ("B3:a1,a2/a3", "component B3 carries several marks"),
])
def test_cli_refuses_non_cominuscule_marks(pair_id, message, tmp_path, capsys):
    out = tmp_path / "pair.json"
    assert main(["verify-pair", "--pair", pair_id, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("pair_id", ["E7:a7/", "E7:a7/a6/a5"])
def test_pair_id_with_empty_or_extra_part_exits_2(pair_id, tmp_path, capsys):
    out = tmp_path / "pair.json"
    assert main(["verify-pair", "--pair", pair_id, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: pair id {pair_id!r} is not of the form D:g/g0\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("pair_id, message", [
    ("E9:a1/a2", "rank 9 out of range for type E"),
    ("X7:a7/a6", "cannot parse diagram literal 'X7'"),
    ("E7:/a6", "marked node set must be nonempty"),
    ("E7:a7,a7/a6", "mark label 'a7' is repeated"),
    ("E7:a7,/a6", "marked literal 'E7:a7,' has an empty mark label"),
    ("E7:a9/a6", "unknown marked nodes ['a9']"),
    ("E7:a7/a7", "gamma0 coincides with the marked node"),
    ("C4:a4/a3", "a4 and a3 are not connected by a type-A chain: "
                 "bond (a4, a3) has multiplicity 2"),
    ("A3+A3:a1/a4", "a1 and a4 lie in different components"),
    ("E7:a7/a9", "unknown node in path query (a7, a9)"),
    ("E7/a6:a7", "marked literal 'E7' needs ':' and mark labels"),
    ("E7:a7/a1", "E7:a7/a1 is not a catalog deletion pair"),
])
def test_cli_refuses_pair_ids_that_name_no_deletion_pair(pair_id, message, capsys):
    # without --out a bundle would go to stdout
    assert main(["verify-pair", "--pair", pair_id]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_degeneracy_modes(tmp_path):
    out = tmp_path / "deg.json"
    assert main(["degeneracy", "--pair", "D5:a5/a3", "--mode", "sigma",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["check_id"] for r in doc["reports"]] == ["sff.kernel_sigma"]


def test_cli_infinity_locus_and_normal_bundle(tmp_path):
    out = tmp_path / "x.json"
    assert main(["infinity-locus", "--pair", "E6:a6/a5", "--out", str(out)]) == 0
    assert main(["normal-bundle", "--pair", "E6:a6/a5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["status"] == "pass"


def test_cli_pluecker_commands(tmp_path):
    out = tmp_path / "p.json"
    assert main(["pluecker", "section", "--point", "e2^e4", "--primes", "5,7",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["reports"][0]["witnesses"][0]["lines"]) == 2
    assert main(["pluecker", "collinear", "--point", "e4^e5",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["witnesses"][0]["witness"] is None


def test_cli_segre_command(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["segre", "fitting", "--q", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["status"] == "pass"
    assert doc["reports"][0]["subject"] == "F2"
    assert doc["config"]["primes_segre"] == [2]       # the echo names what ran
    capsys.readouterr()
    assert main(["segre", "fitting", "--q", "2", "--primes", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_cli_section_certification_failure_is_one_line_exit_1(tmp_path, capsys):
    # 5 divides a coefficient of b = (e1 + 5 e2) ^ e4, so the F5 reduction of
    # the rational plane disagrees with its F5 enumeration
    out = tmp_path / "c.json"
    assert main(["pluecker", "section", "--point", "e1^e4 + 5 e2^e4",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: rational locus and F_5")
    assert not out.exists()


def _one_line_exit_1(argv, out, capsys):
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), captured.err
    assert captured.out == "" and not out.exists()
    return err[0]


def test_internal_value_error_is_one_line_exit_1(monkeypatch, tmp_path, capsys):
    # a plane line listed with its first point twice breaks a hypothesis of
    # SegreLine inside the Segre suite; the input was fine, so this is an
    # internal failure, not a usage error
    line_points = segre._line_points

    def first_point_twice(cov, plane_pts, q):
        found = line_points(cov, plane_pts, q)
        return found[:1] + found

    monkeypatch.setattr(segre, "_line_points", first_point_twice)
    _one_line_exit_1(["segre", "fitting", "--q", "3"], tmp_path / "s.json", capsys)


def test_internal_assertion_in_run_all_is_one_line_exit_1(monkeypatch, tmp_path, capsys):
    # a broken internal invariant of a pair check is an internal failure too:
    # one error line, exit 1 and no bundle, not a traceback
    def broken(pair):
        raise AssertionError("sub-VMRT tangent leaves Psi_gamma: [(0, 1)]")

    monkeypatch.setattr(sff.SFFContext, "for_pair", staticmethod(broken))
    err = _one_line_exit_1(["run-all"], tmp_path / "b.json", capsys)
    assert err == "error: sub-VMRT tangent leaves Psi_gamma: [(0, 1)]"


def test_internal_assertion_in_the_survey_is_one_line_exit_1(monkeypatch, tmp_path, capsys):
    # every class read as rank 2 makes each witness one on an exact section
    real = plucker._survey_class
    monkeypatch.setattr(plucker, "_survey_class", lambda *args: (2, *real(*args)[1:]))
    err = _one_line_exit_1(["pluecker", "survey", "--primes", "5"], tmp_path / "s.json", capsys)
    assert err == ("error: collinearity witness without extra section component "
                   "(4675 boundary points)")



def test_internal_assertion_in_a_chevalley_table_is_one_line_exit_1(monkeypatch, tmp_path,
                                                                     capsys):
    # every squared norm tripled keeps each mixed constant's length ratio,
    # so the first failure is a coroot [e_a, e_-a] of the property row's
    # Jacobi triples, whose coefficients are no longer integers
    def tripled_norms(rs):
        table = ChevalleyTable(rs)
        table._norm = [3 * norm for norm in table._norm]
        return table

    monkeypatch.setattr(labs, "build_table", tripled_norms)
    err = _one_line_exit_1(["run-all"], tmp_path / "b.json", capsys)
    assert err == "error: non-integral coroot for (1, 1, 1, 1)"

def test_property_suite_draws_the_pinned_samples(monkeypatch):
    # the triples handed to jacobi_failures and the bivectors tested for
    # decomposability over Q and mod 5, in the order the suite draws them
    triples, rational, mod5 = [], [], []
    jacobi = labs.jacobi_failures
    membership, quadrics = labs.grassmannian_membership, labs.plucker_quadrics

    def recorded_jacobi(table, drawn):
        triples.append(drawn := list(drawn))
        return jacobi(table, drawn)

    monkeypatch.setattr(labs, "jacobi_failures", recorded_jacobi)
    monkeypatch.setattr(labs, "grassmannian_membership",
                        lambda omega: rational.append(omega) or membership(omega))
    monkeypatch.setattr(labs, "plucker_quadrics",
                        lambda omega: mod5.append(omega) or quadrics(omega))
    reports = labs.property_suite(checks._PROPERTY_SYSTEMS)
    assert all(rep.status == "pass" for rep in reports)
    dims = [build_table(build_root_system(parse_diagram(lit))).dimension
            for lit in checks._PROPERTY_SYSTEMS]
    assert triples == [generator_jacobi_triples(DEFAULT_SEED, lit, dim)
                       for lit, dim in zip(checks._PROPERTY_SYSTEMS, dims)]
    # the Q-orbit check tests its 100 images after the 500 rational samples
    assert len(rational) == 600
    assert rational[:500] == decomposability_bivectors(DEFAULT_SEED, "QQ")
    assert mod5 == decomposability_bivectors(DEFAULT_SEED, "F5")


def _src_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(delpair.__file__).resolve().parents[1])}


# Commands that read no lab: the pair commands, the VMRT chain and a pair id
# refused as malformed.  Then the two point commands, which read the Plücker lab.
PAIR_COMMANDS = (["catalog"], ["verify-pair", "--pair", "E7:a7/a6"],
                 ["degeneracy", "--pair", "D5:a5/a3"], ["infinity-locus", "--pair", "E6:a6/a5"],
                 ["normal-bundle", "--pair", "E7:a7/a6"], ["vmrt-chain"],
                 ["verify-pair", "--pair", "E7:a7"])
LAB_COMMAND = ["pluecker", "collinear", "--point", "e1^e4"]
SECTION_COMMAND = ["pluecker", "section", "--point", "e2^e4"]


HELP_COMMAND = ["run-all", "--help"]


@pytest.fixture(scope="module")
def import_modules():
    """Every module in sys.modules, in one fresh interpreter: before any import
    ("bare"), after `import delpair.checks`, after `import delpair.cli`, after
    main on each of PAIR_COMMANDS, LAB_COMMAND and SECTION_COMMAND, and after HELP_COMMAND,
    keyed by that module or command.  The interpreter runs under -S, so
    "bare" holds no module that `site` and its .pth files would load."""
    commands = [*PAIR_COMMANDS, LAB_COMMAND, SECTION_COMMAND]
    probe = ("import sys; print(*sys.modules)\n"
             "import os, delpair.checks; print(*sys.modules)\n"
             "import delpair.cli; print(*sys.modules)\n"
             f"for argv in {commands!r}:\n"
             "    delpair.cli.main([*argv, '--out', os.devnull]); print(*sys.modules)\n"
             "stdout, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
             "try:\n"
             f"    delpair.cli.main({HELP_COMMAND!r})\n"
             "except SystemExit:\n"
             "    sys.stdout = stdout\n"
             "print(*sys.modules)\n")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=_src_env(),
                          capture_output=True, text=True, check=True)
    keys = ["bare", "delpair.checks", "delpair.cli", *(" ".join(argv) for argv in commands),
            " ".join(HELP_COMMAND)]
    lines = done.stdout.splitlines()
    assert len(lines) == len(keys)
    return {key: set(line.split()) for key, line in zip(keys, lines)}


@pytest.fixture(scope="module")
def cli_import_modules(import_modules):
    """Every module in sys.modules after `import delpair.cli` in a fresh interpreter."""
    return import_modules["delpair.cli"]


def test_checks_import_leaves_the_command_line_out(import_modules):
    # the checks run, and run_all builds a bundle, without the argument parser
    modules = import_modules["delpair.checks"]
    assert "delpair.checks" in modules
    assert "argparse" not in modules and "delpair.cli" not in modules
    assert "delpair.labs" not in modules


def _lab_modules(modules: set) -> set:
    return {name for name in modules if name in ("delpair.labs", "delpair.chevalley", "fractions")
            or name.startswith("delpair.projgeo")}


@pytest.mark.parametrize("step", ["delpair.cli", *(" ".join(argv) for argv in PAIR_COMMANDS)])
def test_pair_commands_load_no_lab_code(import_modules, step):
    # a pair command reads no Chevalley table, projective-geometry lab or
    # Fraction, so neither importing the command line nor running it loads them
    assert _lab_modules(import_modules[step]) == set()


def test_point_commands_load_only_the_plucker_lab(import_modules):
    # the point commands run reports of projgeo.plucker, which computes on
    # ints and reads bivector literals by str methods: neither command loads
    # the other labs, random, fractions (nor the decimal it imports), re or
    # typing
    refused = {"fractions", "decimal", "re", "typing", "random", "delpair.labs",
               "delpair.chevalley", "delpair.projgeo.segre"}
    for argv in (LAB_COMMAND, SECTION_COMMAND):
        loaded = import_modules[" ".join(argv)] - import_modules["bare"]
        assert "delpair.projgeo.plucker" in loaded, argv
        assert loaded & refused == set(), argv


# The two lab commands that run SUITES rows, with the lab module each reads.
LAB_ROW_COMMANDS = {"pluecker survey --primes 3": "delpair.projgeo.plucker",
                    "segre fitting --q 2": "delpair.projgeo.segre"}


@pytest.mark.parametrize(("command", "own"), list(LAB_ROW_COMMANDS.items()))
def test_lab_row_commands_load_only_their_lab(command, own):
    # each in a fresh interpreter, under -S: the survey and the Segre fitting
    # load their own lab, and neither the other lab nor the property suite
    # with its chevalley and random
    probe = ("import os, sys; bare = set(sys.modules); import delpair.cli\n"
             f"assert delpair.cli.main([*{command.split()!r}, '--out', os.devnull]) == 0\n"
             "print(*set(sys.modules) - bare)\n")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=_src_env(),
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    refused = {"random", "delpair.labs", "delpair.chevalley", *LAB_ROW_COMMANDS.values()}
    assert own in loaded
    assert loaded & (refused - {own}) == set()


def _argparse_and_json(modules: set) -> set:
    return {name for name in modules if name.split(".")[0] in ("argparse", "json", "_json")}


@pytest.mark.parametrize("step", ["delpair.cli", *(" ".join(argv) for argv in PAIR_COMMANDS),
                                  " ".join(LAB_COMMAND), " ".join(SECTION_COMMAND)])
def test_commands_load_neither_argparse_nor_json(import_modules, step):
    # the table parser reads these argvs and report writes JSON itself;
    # loading argparse and json cost about half of `import delpair.cli`
    assert _argparse_and_json(import_modules[step] - import_modules["bare"]) == set()


@pytest.mark.parametrize("step", ["delpair.cli", *(" ".join(argv) for argv in PAIR_COMMANDS)])
def test_pair_commands_load_neither_typing_nor_re(import_modules, step):
    # the records are Frozen values and diagram literals are read by str
    # methods; typing and re together cost more than the rest of the import
    loaded = import_modules[step] - import_modules["bare"]
    assert {name for name in loaded if name.split(".")[0] in ("typing", "re")} == set()


def test_help_loads_argparse(import_modules):
    # the table parser declines --help, and argparse writes the help
    assert "argparse" in import_modules[" ".join(HELP_COMMAND)] - import_modules["bare"]


def test_cli_import_leaves_sympy_out(cli_import_modules):
    assert "delpair.cli" in cli_import_modules
    assert "sympy" not in cli_import_modules


def test_cli_import_leaves_dataclasses_and_inspect_out(cli_import_modules):
    # importing dataclasses (which imports inspect) and decorating the value
    # classes with it once cost more than a one-query CLI process spent on its query
    assert "dataclasses" not in cli_import_modules
    assert "inspect" not in cli_import_modules


@pytest.mark.parametrize("module, frozen", [("delpair.cli", True), ("delpair.checks", False)])
def test_only_the_command_line_freezes_the_heap_at_exit(module, frozen):
    # each count is compared with a bare interpreter's from the same probe:
    # Python 3.12.1 reports 375 frozen objects before any import, even under -S
    counts = []
    for imported in ("", f", {module}"):
        probe = f"import atexit, gc{imported}; atexit._run_exitfuncs(); print(gc.get_freeze_count())"
        done = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                              capture_output=True, text=True, check=True)
        counts.append(int(done.stdout))
    bare, count = counts
    assert (count > bare) == frozen


# Commands whose runs of main must leave no reference cycle behind.
ACYCLIC_COMMANDS = (["run-all"], ["run-all", "--max-rank", "20", "--primes", "3"],
                    ["verify-pair", "--pair", "E7:a7/a6"], ["pluecker", "survey", "--primes", "5"],
                    ["segre", "fitting", "--q", "5"])


def test_command_line_runs_leave_no_cyclic_garbage():
    # main runs with the collector off, so a command that starts leaving
    # reference cycles would hold their memory until exit; here the
    # collector is off from the start and each run is collected after it
    probe = ("import gc, os; gc.disable(); import delpair.cli; gc.collect()\n"
             f"for argv in {ACYCLIC_COMMANDS!r}:\n"
             "    assert delpair.cli.main([*argv, '--out', os.devnull]) == 0, argv\n"
             "    print(gc.collect())\n")
    done = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0"] * len(ACYCLIC_COMMANDS)


def test_main_runs_with_the_collector_off(monkeypatch, tmp_path):
    seen, real = [], cli.verdict
    monkeypatch.setattr(cli, "verdict", lambda *args: seen.append(gc.isenabled()) or real(*args))
    assert gc.isenabled()
    assert main(["vmrt-chain", "--out", str(tmp_path / "v.json")]) == 0
    assert seen == [False] and gc.isenabled()


def _broken_verdict(*args):
    raise AssertionError("broken internal invariant")


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv, broken, code", [
    (["vmrt-chain"], False, 0),
    (["vmrt-chain"], True, 1),                  # an internal failure
    (["run-all", "--max-rank", "3"], False, 2),
    (["frob"], False, 2),                       # refused by argparse
    (["run-all", "--help"], False, None),       # argparse exits 0
], ids=["exit-0", "exit-1", "exit-2", "argparse-exit-2", "help"])
def test_main_gives_back_the_callers_collector_setting(argv, broken, code, enabled,
                                                       monkeypatch, tmp_path, capsys):
    if broken:
        monkeypatch.setattr(cli, "verdict", _broken_verdict)
    argv = [*argv, "--out", str(tmp_path / "out")]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("fmt, digest", [("json", GOLDENS["default"]["sha256"]),
                                         ("markdown", GOLDENS["default_markdown"]["sha256"])],
                         ids=["json", "markdown"])
def test_cli_process_writes_the_pinned_bundle_through_a_frozen_exit(fmt, digest, tmp_path):
    # stdout is flushed and the --out file written in full by a process that
    # exits with its heap frozen
    argv = [sys.executable, "-m", "delpair.cli", "run-all", "--format", fmt]
    out = tmp_path / "bundle"
    printed = subprocess.run(argv, env=_src_env(), capture_output=True, check=True).stdout
    subprocess.run(argv + ["--out", str(out)], env=_src_env(), capture_output=True, check=True)
    assert hashlib.sha256(printed).hexdigest() == digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_bad_config_exit_2(tmp_path, capsys):
    assert main(["run-all", "--max-rank", "3"]) == 2
    assert main(["pluecker", "section", "--point", "garbage"]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing" / "x.json"
    for argv in (["vmrt-chain"], ["run-all", "--max-rank", "4", "--primes", "3"]):
        for path in (str(missing), ""):     # an empty path is a path, not stdout
            assert main(argv + ["--out", path]) == 2
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and repr(path) in err[0]
            assert captured.out == ""


def test_root_count_check_names_a_wrong_closed_form(monkeypatch):
    closed_form = checks._closed_form_count
    monkeypatch.setattr(checks, "_closed_form_count",
                        lambda letter, n: closed_form(letter, n) + (letter == "D"))
    rep = checks.root_count_check()
    assert rep.status == FAIL and rep.subject == "A4,B4,D5,E6,E7"
    assert rep.witnesses == [{"system": "D5", "generated": 20, "formula": 21}]


def test_closed_form_dimensions_match_the_noncompact_roots():
    # every ambient and sub space of the rank-20 catalog, and the marks of
    # the table that the catalog never reaches (A off mark 2, C, E6 at a1)
    spaces = {md for pair in pairs.catalog(20) for md in (pair.ambient, pair.sub)}
    spaces |= {parse_marked(f"A{n}:a{m}") for n in range(1, 9) for m in range(1, n + 1)}
    spaces |= {parse_marked(f"C{n}:a{n}") for n in range(2, 9)}
    spaces.add(parse_marked("E6:a1"))
    letters = set()
    for md in spaces:
        letters.update(letter for letter, _, _ in descriptor(md))
        formula = sum(checks._closed_form_dimension(*d) for d in descriptor(md))
        assert formula == len(hss.noncompact_positive_roots(md)), md
    assert letters == {"A", "B", "C", "D", "E"}


def test_a_wrong_closed_form_dimension_fails_the_affected_rows(monkeypatch):
    closed_form = checks._closed_form_dimension
    monkeypatch.setattr(checks, "_closed_form_dimension",
                        lambda letter, n, m: closed_form(letter, n, m) + (letter == "E" and n == 7))
    rows = [rep for pair in pairs.catalog(7) for rep in checks.correspondence_checks(pair)]
    failed = {rep.subject: rep.notes for rep in rows if rep.status == FAIL}
    assert failed == {f"E7:a7/{g0}": "E7/P7 has 27 noncompact positive roots, closed form 28"
                      for g0 in ("a4", "a5", "a6")}
    assert all(rep.status == "pass" for rep in rows if rep.subject not in failed)


def test_every_input_error_is_a_value_error():
    # main reports a ValueError in one line with exit 2; an error class that
    # stopped subclassing it would escape as a traceback
    for cls in (DiagramError, MarkError, ChainError, CorrespondenceError):
        assert issubclass(cls, ValueError)
    with pytest.raises(ValueError, match="^delpair: bad usage$"):
        usage._Parser(prog="delpair").error("bad usage")


def test_run_config_has_no_seed_setting():
    assert RunConfig._fields == ("max_rank", "primes_plucker", "primes_segre", "fmt")
    with pytest.raises(TypeError):
        RunConfig(seed=7)
    config = RunConfig()
    assert config.seed == DEFAULT_SEED
    with pytest.raises(AttributeError):
        config.seed = 7


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(primes_plucker=(4,))
    with pytest.raises(ValueError):
        RunConfig(fmt="yaml")
    with pytest.raises(ValueError, match="^primes_plucker repeats 5$"):
        RunConfig(primes_plucker=(5, 7, 5))
    with pytest.raises(ValueError, match="^primes_segre repeats 2$"):
        RunConfig(primes_segre=(2, 2))


@pytest.mark.parametrize("p", [0, 1, 4, 9, 25, 2, 7])
def test_one_primality_check_for_config_and_fields(p):
    if p in (2, 7):
        assert RunConfig(primes_plucker=(p,), primes_segre=(p,)).primes_segre == (p,)
        require_prime(p)
        return
    message = f"^{p} is not prime$"
    with pytest.raises(ValueError, match=message):
        RunConfig(primes_plucker=(p,))
    with pytest.raises(ValueError, match=message):
        RunConfig(primes_segre=(p,))
    for check in (require_prime, dee_exhaustive_survey, segre_fitting_report):
        with pytest.raises(ValueError, match=message):
            check(p)


def test_non_prime_arguments_exit_2(capsys):
    assert main(["run-all", "--primes", "4"]) == 2
    assert capsys.readouterr().err == "error: 4 is not prime\n"
    assert main(["segre", "fitting", "--q", "1"]) == 2
    assert capsys.readouterr().err == "error: 1 is not prime\n"


@pytest.mark.parametrize("argv, message", [
    (["run-all", "--primes", "5,5"], "primes_plucker repeats 5"),
    (["pluecker", "survey", "--primes", "3,3"], "primes_plucker repeats 3"),
    (["pluecker", "survey", "--primes", "5,"], "--primes"),
    (["pluecker", "survey", "--primes", ","], "--primes"),
    (["run-all", "--primes", "5,,7"], "--primes"),
    (["run-all", "--primes", ""], "--primes"),
    (["pluecker", "section", "--point", "e2^e4", "--primes", "x"], "--primes"),
    (["pluecker", "section", "--point", "e1^e2 e3^e4"], "needs + or - before 'e3^e4'"),
    (["pluecker", "collinear", "--point", "e1^e2 e3^e4"], "needs + or - before 'e3^e4'"),
    (["pluecker", "section", "--point", "e1^e2 - e1^e2"], "'e1^e2 - e1^e2' is zero"),
    (["pluecker", "collinear", "--point", "e1^e2 - e1^e2"], "'e1^e2 - e1^e2' is zero"),
    (["pluecker", "collinear", "--point", "0 e1^e2"], "'0 e1^e2' is zero"),
    (["run-all", "--primes", "2"], "characteristic 2 degenerates the Plücker quadrics"),
    (["pluecker", "survey", "--primes", "3,2"], "characteristic 2 degenerates"),
    (["pluecker", "section", "--point", "e2^e4", "--primes", "2"], "characteristic 2"),
    (["pluecker", "section", "--point", "e1^e2 - 3 e1^e3"],
     "plane must have projective dimension exactly 2"),
    (["pluecker", "collinear", "--point", "e1^e2 + e3^e4"], "bivector is not decomposable"),
])
def test_bad_primes_list_exits_2_with_one_line(argv, message, tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert captured.out == "" and not out.exists()


def test_a_trailing_blank_ends_a_bivector_literal(capsys):
    # parse_bivector stops at a blank tail; the bundle differs from the bare
    # literal's only in the subject, which echoes the literal as given
    printed = []
    for point in ("e1^e4", "e1^e4 "):
        assert main(["pluecker", "collinear", "--point", point]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0].count('"subject": "e1^e4"') == 1
    assert printed[1] == printed[0].replace('"subject": "e1^e4"', '"subject": "e1^e4 "')


def _choose_from(*names: str) -> str:
    """The "(choose from ...)" text this Python's argparse prints for ``names``;
    whether it quotes them depends on the release."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("name", choices=names)
    with pytest.raises(argparse.ArgumentError) as exc:
        probe.parse_args(["frob"])
    text = str(exc.value)
    return text[text.index("(choose from"):]


@pytest.mark.parametrize("argv, message", [
    (["run-all", "--max-rank", "abc"], "argument --max-rank: invalid int value: 'abc'"),
    (["run-all", "--format", "yaml"], "argument --format: invalid choice: 'yaml'"),
    (["verify-pair"], "the following arguments are required: --pair"),
    (["frob"], "argument command: invalid choice: 'frob'"),
    # a first word that names no command: the parser is built in full
    (["frob"], "argument command: invalid choice: 'frob' " + _choose_from(
        "catalog", "verify-pair", "degeneracy", "infinity-locus", "normal-bundle",
        "vmrt-chain", "run-all", "pluecker", "segre")),
    (["pluecker", "frob"], "argument pluecker_command: invalid choice: 'frob' "
     + _choose_from("survey", "section", "collinear")),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_exit_2_with_one_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: delpair") and message in err[0]
    assert captured.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-all", "--help"])
    assert exc.value.code == 0
    assert "usage: delpair run-all" in capsys.readouterr().out


# A value of each option that the table parser reads and that keeps each run
# small, and values to put in its place: a number argparse reads as a value
# and not as an option, a bivector literal that starts with "-", and values
# that the option's type or choices refuse.
TABLE_VALUES = {"--format": "markdown", "--out": None, "--max-rank": "5", "--primes": "3",
                "--q": "2", "--pair": "E6:a6/a5", "--mode": "tau", "--point": "- e2^e4"}
OTHER_VALUES = ("-3", "- e1^e2 + e3^e4", "x", "5,", "")


def _table_argvs(out: str):
    """Every COMMANDS row with each subset of its options and --format/--out."""
    for path, _, options in cli.COMMANDS:
        flags = (*cli._COMMON, *options)
        for k in range(len(flags) + 1):
            for subset in itertools.combinations(flags, k):
                yield path.split() + [word for flag in subset
                                      for word in (flag, TABLE_VALUES[flag] or out)]


# Argvs the table parser declines: "=", an abbreviation, a repeat, an unread
# option, a missing required option or value, a missing or unknown command.
DECLINED_ARGVS = (["run-all", "--max-rank=5"], ["run-all", "--max", "5"],
                  ["run-all", "--primes", "3", "--primes", "5"], ["vmrt-chain", "--max-rank", "5"],
                  ["verify-pair"], ["verify-pair", "--pair"],
                  ["pluecker", "section", "--point", "-e2^e4"], ["pluecker"], ["frob"], [])


def _oracle_args(argv):
    """argparse's mapping of argv, or None for a usage error."""
    try:
        return usage.parse_args(argv)
    except ValueError:
        return None


def test_table_parser_matches_argparse():
    argvs = list(_table_argvs("x.json"))
    # argparse refuses the argvs without a required option; the table reads every other
    for argv in argvs:
        assert cli._table_args(argv) == _oracle_args(argv), argv
    assert sum(cli._table_args(argv) is not None for argv in argvs) == 76
    # each option in turn given each other value: argparse may read what the table declines
    for argv in argvs:
        for i in range(len(argv) - 1, 0, -2):
            if not argv[i - 1].startswith("--"):
                break
            for value in OTHER_VALUES:
                changed = argv[:i] + [value] + argv[i + 1:]
                args = cli._table_args(changed)
                if args is not None:
                    assert args == _oracle_args(changed), changed
    for argv in DECLINED_ARGVS:
        assert cli._table_args(argv) is None, argv


def _run_main(argv, out, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    written = out.read_text() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, captured.out, captured.err, written


def test_main_matches_the_argparse_only_path(monkeypatch, tmp_path, capsys):
    out = tmp_path / "t.out"
    forms = [argv + [value] for argv in (
        ["pluecker", "section", "--point"], ["pluecker", "collinear", "--point"],
        ["verify-pair", "--pair"], ["catalog", "--max-rank"]) for value in OTHER_VALUES]
    argvs = [*_table_argvs(str(out)), *forms, *DECLINED_ARGVS]
    table = [_run_main(argv, out, capsys) for argv in argvs]
    # argparse reads the abbreviation --max as --max-rank
    code, printed, _, _ = table[argvs.index(["run-all", "--max", "5"])]
    doc = json.loads(printed)
    assert code == 0 and doc["config"]["max_rank"] == 5 and doc["reports"]
    monkeypatch.setattr(cli, "_table_args", lambda argv: None)
    for argv, expected in zip(argvs, table):
        assert _run_main(argv, out, capsys) == expected, argv


# Witnesses of `pluecker section` and `pluecker collinear` at the default
# primes, recorded before plane sections moved off field objects.  run-all
# never calls the collinearity scan, so the bundle shas do not cover it.
PINNED_POINTS = {
    "e2^e4": (
        {"lines": [[0, 0, 1], [0, 1, 0]], "isolated_points": [], "full_plane": False},
        {"common_vector": ["0", "-1", "0", "0", "0"], "param": ["1", "0"]}),
    "e1^e4": (
        {"lines": [], "isolated_points": [], "full_plane": True},
        {"common_vector": ["-1", "0", "0", "0", "0"], "param": "all"}),
    "e4^e5": (
        {"lines": [[0, 0, 1]], "isolated_points": [[0, 0, 0, 0, 0, 0, 0, 0, 0, 1]],
         "full_plane": False},
        None),
    "e2^e3": (
        {"lines": [], "isolated_points": [], "full_plane": True},
        {"common_vector": ["0", "-1", "0", "0", "0"], "param": "all"}),
    "e3^e5 - e4^e5": (
        {"lines": [[0, 0, 1]], "isolated_points": [[0, 0, 0, 0, 0, 0, 0, 0, 1, -1]],
         "full_plane": False},
        None),
    "- 2 e1^e2 + 6 e1^e3 - e1^e5 - 6 e2^e3 + 3 e3^e5": (
        {"lines": [[0, 0, 1], [1, 0, -2]], "isolated_points": [], "full_plane": False},
        {"common_vector": ["-1/2", "0", "3/2", "0", "0"], "param": ["0", "-3/2"]}),
    "2 e1^e2 + 5 e1^e3 + 3 e1^e4 + e1^e5 + 3 e2^e3 + 3 e2^e4 + e2^e5 + 3 e3^e4 + e3^e5": (
        {"lines": [[0, 0, 1], [1, -1, 1]], "isolated_points": [], "full_plane": False},
        {"common_vector": ["-1/2", "-1/2", "-1/2", "0", "0"], "param": ["1/2", "1/2"]}),
    "18 e1^e2 - 6 e1^e3 + 12 e1^e5 + 6 e2^e3 + 6 e2^e4 - 6 e2^e5 - 2 e3^e4 - 2 e3^e5"
    " - 4 e4^e5": (
        {"lines": [[0, 0, 1]], "isolated_points": [[9, -3, 0, 6, 3, 3, -3, -1, -1, -2]],
         "full_plane": False},
        None),
}


def test_pluecker_section_and_collinear_witnesses_pinned(tmp_path):
    out = tmp_path / "w.json"
    for point, (section, witness) in PINNED_POINTS.items():
        for command, expected in (("section", {**section, "certified_over": ["QQ", "F5", "F7"]}),
                                  ("collinear", {"witness": witness})):
            assert main(["pluecker", command, "--point", point, "--out", str(out)]) == 0
            (report,) = json.loads(out.read_text())["reports"]
            assert report["witnesses"] == [expected], (command, point)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: _certify certifies at F5, where the rational plane of this "
    "point reduces badly, and exits 1 with 'rational locus and F_5 enumeration disagree'"))
def test_pluecker_section_certifies_a_point_whose_plane_reduces_badly_at_5(capsys):
    assert main(["pluecker", "section", "--point", "e1^e4 + 5 e2^e4"]) == 0


def test_default_bundle_does_not_depend_on_root_set_order():
    # root sets iterate in an order fixed by the hashes of their tuples and,
    # where those collide in the table, by insertion order.  A tuple of ints
    # hashes the same under every PYTHONHASHSEED, so the probe changes the
    # insertion order instead: every root set is built in reverse sorted order
    probe = """
import hashlib, json
from delpair import rootsys
embedded = rootsys._embedded_roots
rootsys._embedded_roots = lambda n, shape: frozenset(sorted(embedded(n, shape), reverse=True))
from delpair.cli import run_all
from delpair.report import RunConfig, bundle_json
code, doc = run_all(RunConfig())
order = list(rootsys.build_root_system(rootsys.parse_diagram("E6")).positive_roots)
print(json.dumps([code, hashlib.sha256(bundle_json(doc).encode("utf-8")).hexdigest(), order]))
"""
    done = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True,
                          text=True, check=True)
    code, digest, order = json.loads(done.stdout)
    usual = list(map(list, build_root_system(parse_diagram("E6")).positive_roots))
    assert sorted(order) == sorted(usual) and order != usual     # the patch took effect
    assert (code, digest) == (0, GOLDENS["default"]["sha256"])


@pytest.mark.parametrize("name", list(GOLDENS))
def test_pin_holds(name):
    assert pins.check(name) is None


def test_every_readme_command_is_a_pin():
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("delpair ")]
    pinned = [entry["argv"] for entry in GOLDENS.values() if "argv" in entry]
    assert len(commands) == 13
    assert [" ".join(argv) for argv in commands if argv not in pinned] == []


def test_pin_runner_names_each_pin_that_differs(monkeypatch, capsys):
    # in process, on a table with one entry doctored for each way a pin can
    # differ (sha, summary, exit code) and a name the table lacks
    summary = {**GOLDENS["catalog_7"]["summary"], "pass": -1}
    table = {**GOLDENS, "vmrt_chain": {**GOLDENS["vmrt_chain"], "sha256": "0" * 64},
             "catalog_7": {**GOLDENS["catalog_7"], "summary": summary},
             "refused": {"sha256": "0" * 64, "argv": ["verify-pair", "--pair", "E7:a7/a7"]}}
    monkeypatch.setattr(pins, "table", lambda: table)
    names = ["vmrt_chain", "catalog_7", "refused", "verify_pair_e7", "unpinned"]
    assert pins.main(names) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"vmrt_chain: sha256 {GOLDENS['vmrt_chain']['sha256']}, pinned {'0' * 64}",
        "catalog_7: summary {'fail': 0, 'indeterminate': 0, 'pass': 34, 'skipped': 0}, "
        f"pinned {summary}",
        "refused: exit 2: error: gamma0 coincides with the marked node",
        "verify_pair_e7: ok",
        "unpinned: no such pin",
        "4 pins differ: vmrt_chain catalog_7 refused unpinned"]
    # the exit status, from the runner under -S with only src on the path
    done = subprocess.run([sys.executable, "-S", pins.__file__, "unpinned"],
                          env=_src_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.splitlines() == ["unpinned: no such pin", "1 pins differ: unpinned"]


@pytest.mark.parametrize("max_rank", [7, 12, 20])
def test_the_pairs_that_pass_every_pair_row(max_rank, request):
    # the paper's answer: G(2, n-2) in G^II(n,n) for n >= 5, G^II(5,5) in
    # E6/P6 and E6/P6 in E7/P7.  The hyperquadric ambients are indeterminate
    # in normalbundle, and the non-maximal pairs skip it and sff.infinity_locus.
    doc = request.getfixturevalue(
        {7: "default_bundle", 12: "rank_sweep_bundle", 20: "rank20_bundle"}[max_rank])
    status = {(r["check_id"], r["subject"]): r["status"] for r in doc["reports"]}
    subjects = {subject for check_id, subject in status if check_id == "pairs.correspondence"}
    passing = {pair_id for pair_id in subjects
               if all(status[check_id, pair_id] == "pass" for check_id in PAIR_ROWS)}
    family = {f"D{n}:a{n}/a{n - 2}" for n in range(5, max_rank + 1)}
    assert passing == family | {"E6:a6/a5", "E7:a7/a6"}
    assert len(passing) == {7: 5, 12: 10, 20: 18}[max_rank]


def test_the_passing_pairs_meet_their_closed_forms(rank20_bundle):
    witnesses = {(r["check_id"], r["subject"]): r["witnesses"] for r in rank20_bundle["reports"]}
    expected = {pair_id: forms for pair_id, forms in FAMILY_CLOSED_FORMS.items()
                if ("pairs.correspondence", pair_id) in witnesses}
    assert len(expected) == 18
    for pair_id, forms in expected.items():
        assert family_reading(witnesses, pair_id) == forms, pair_id


def test_in_process_bundles_equal_their_json(default_bundle, rank_sweep_bundle):
    # witnesses hold lists, never tuples, so a bundle reads back as it was built
    for doc in (default_bundle, rank_sweep_bundle):
        assert json.loads(bundle_json(doc)) == doc


def json_dumps_oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("fixture", ["default_bundle", "rank_sweep_bundle", "rank20_bundle"])
def test_bundle_writer_matches_json_dumps_on_bundles(fixture, request):
    doc = request.getfixturevalue(fixture)
    assert bundle_json(doc) == json_dumps_oracle(doc)


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ()},
    {"reports": [{"x": [1, 2], "y": [{"z": None}]}, {"w": [[1, [2, 3]], []]}]},
    {"flags": [True, False], "mixed": [1, True, 0, False], "ints": [0, -2, 10 ** 30],
     "bool": True, "int": 1, "none": None},
    {"notes": "naïve ℓ ∧ e₁, \"quoted\" \\ back\n\ttab \x00", "ключ": "é"},
    # what a failed Segre check carries: points and lines as nested tuples
    {"witnesses": [{"check": "a-witness", "y": (0, 1, 1), "point": ((1, 0), (1, 2, 0))},
                   {"check": "b-section", "x": (0, 1), "L": 3, "point": ((1, 1), (0, 0, 1))}]},
    {"b": 1, "a": 2, "B": 3, "_": 4, "a0": 5, "": 6},
])
def test_bundle_writer_matches_json_dumps_on_edge_values(doc):
    assert bundle_json(doc) == json_dumps_oracle(doc)


QUOTED_CHARACTERS = [*map(chr, range(0x100)), "\u2028", "\u2029", "\uffff", "\U0001f600",
                     "\ud800", "\udfff"]


def test_string_quoting_matches_json():
    # the encoder behind json.dumps with ensure_ascii is the oracle
    for text in (*QUOTED_CHARACTERS, "".join(QUOTED_CHARACTERS), "", "ℓ ∧ e₁ and e1^e2"):
        assert report._quote(text) == encode_basestring_ascii(text), repr(text)


@pytest.mark.parametrize("doc", [{"x": 1.5}, {"x": Fraction(1, 2)}, {"x": {1: 2}}, {"x": {"y"}}])
def test_bundle_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        bundle_json(doc)


def test_pair_commands_agree_with_run_all(default_bundle, catalog7, tmp_path):
    rows = {(r["check_id"], r["subject"]): r for r in default_bundle["reports"]}
    # a non-maximal pair: the infinity-locus lemma does not apply, so skipped, exit 0
    assert rows[("sff.infinity_locus", "B4:a1/a3")]["status"] == "skipped"
    out = tmp_path / "pair.json"
    seen = set()
    pair_argvs = [[command, "--pair", pair_id] for pair_id in catalog7
                  for command in ("verify-pair", "degeneracy", "infinity-locus", "normal-bundle")]
    # `pluecker section` is left out: its witnesses list the locus, run-all's count it
    suite_argvs = [["catalog"], ["vmrt-chain"], ["pluecker", "survey", "--primes", "5,7"],
                   ["segre", "fitting", "--q", "2"], ["segre", "fitting", "--q", "3"]]
    for argv in pair_argvs + suite_argvs:
        code = main(argv + ["--out", str(out)])
        reports = json.loads(out.read_text())["reports"]
        assert reports, argv
        for rep in reports:
            key = (rep["check_id"], rep["subject"])
            assert rep == rows[key], argv
            seen.add(key)
        assert code == (1 if any(r["status"] == FAIL for r in reports) else 0)
    assert {key for key in seen if key[1] in catalog7} == {
        key for key in rows if key[1] in catalog7}
    # every run-all row but the property suite's is printed by some subcommand
    assert {check_id for check_id, _ in rows.keys() - seen} == {
        "rootsys.counts", "chevalley.properties", "projgeo.decomposability",
        "projgeo.qorbit_invariance"}


# Each subcommand, the options it reads besides --format and --out, and the
# config fields its bundle echoes besides format.
COMMAND_READS = [
    (["catalog"], {"--max-rank"}, {"max_rank"}),
    (["verify-pair", "--pair", "E6:a6/a5"], {"--pair"}, set()),
    (["degeneracy", "--pair", "E6:a6/a5"], {"--pair", "--mode"}, set()),
    (["infinity-locus", "--pair", "E6:a6/a5"], {"--pair"}, set()),
    (["normal-bundle", "--pair", "E6:a6/a5"], {"--pair"}, set()),
    (["vmrt-chain"], set(), {"max_rank"}),
    (["pluecker", "survey"], {"--primes"}, {"primes_plucker"}),
    (["pluecker", "section", "--point", "e2^e4"], {"--point", "--primes"}, {"primes_plucker"}),
    (["pluecker", "collinear", "--point", "e1^e4"], {"--point"}, set()),
    (["segre", "fitting"], {"--q"}, {"primes_segre"}),
    (["run-all"], {"--max-rank", "--primes"},
     {"max_rank", "primes_plucker", "primes_segre", "seed"}),
]


def _words(argv):
    """The subcommand's words: argv up to its first option."""
    return list(itertools.takewhile(lambda word: not word.startswith("--"), argv))


OPTION_VALUES = {"--max-rank": "5", "--primes": "5", "--seed": "3", "--q": "2",
                 "--pair": "E6:a6/a5", "--mode": "tau", "--point": "e4^e5"}


@pytest.mark.parametrize("argv, option", [
    pytest.param(argv, option, id=f"{' '.join(_words(argv))} {option}")
    for argv, reads, _ in COMMAND_READS for option in OPTION_VALUES if option not in reads])
def test_unread_options_are_refused(argv, option, tmp_path, capsys):
    out = tmp_path / "u.json"
    assert main(argv + [option, OPTION_VALUES[option], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and option in err[0]
    assert captured.out == "" and not out.exists()


def test_help_lists_only_the_options_read(capsys):
    accepted = 0
    for argv, reads, _ in COMMAND_READS:
        with pytest.raises(SystemExit) as exc:
            main(_words(argv) + ["--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert listed == {"--format", "--out"} | reads, argv
        accepted += len(listed)
    assert accepted == 35


@pytest.mark.parametrize("argv, reads, echoed", COMMAND_READS,
                         ids=[" ".join(_words(argv)) for argv, _, _ in COMMAND_READS])
def test_config_echoes_exactly_the_fields_read(argv, reads, echoed, tmp_path):
    given = [word for option in sorted(reads - {"--pair", "--point"})
             for word in (option, OPTION_VALUES[option])]
    out = tmp_path / "c.out"
    assert main(argv + given + ["--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config.keys() == {"format"} | echoed
    expected = {"max_rank": 5, "primes_plucker": [5], "primes_segre": [2], "seed": DEFAULT_SEED}
    if argv == ["run-all"]:
        expected["primes_segre"] = [2, 3]       # run-all runs the default Segre primes
    if argv == ["vmrt-chain"]:
        expected["max_rank"] = 7                # vmrt-chain checks the E7 chain
    assert config == {"format": "json", **{k: expected[k] for k in echoed}}
    assert main(argv + given + ["--format", "markdown", "--out", str(out)]) == 0
    line = next(line for line in out.read_text().splitlines() if line.startswith("config: "))
    assert set(re.findall(r"(\w+)=", line)) == {"format"} | echoed
