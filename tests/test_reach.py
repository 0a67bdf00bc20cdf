"""The reachability gate of ``tests/reach.py``, on a synthetic module.

These tests call the gate's functions directly; they do not run pytest
under the monitor.
"""
import sys

import pytest

import reach

MODULE = '''\
def f(x):
    """A docstring, which the gate does not count."""
    if x:
        return 1
    return 2


class C:
    limit = 3

    def g(self):
        global seen
        return [
            self.limit]
'''


def test_statements_are_the_function_bodies_without_docstrings_or_declarations():
    assert [(function, text, list(lines)) for function, text, lines in reach.statements(MODULE)] \
        == [("f", "if x:", [3]), ("f", "return 1", [4]), ("f", "return 2", [5]),
            ("C.g", "return [", [13, 14])]


def test_the_gate_reports_an_unlisted_unrun_statement_and_a_listed_one_that_ran():
    # f(1) and C().g() ran: return 2 is unrun but not listed, return 1 is
    # listed but ran
    missed = reach.unrun("m.py", MODULE, {3, 4, 14})
    assert missed == [(5, "m.py:f:return 2")]
    unlisted, stale = reach.compare([key for _, key in missed], ["m.py:f:return 1"])
    assert unlisted == ["m.py:f:return 2"]
    assert stale == ["m.py:f:return 1"]
    assert reach.compare(["m.py:f:return 2"], ["m.py:f:return 2"]) == ([], [])


def test_each_listed_key_needs_one_reason():
    text = "# allowed\nm.py:f:return 2\n    only f(0) returns 2\n"
    assert reach.read_listed(text) == ["m.py:f:return 2"]
    with pytest.raises(ValueError, match="no reason given for 'm.py:f:return 2'"):
        reach.read_listed("m.py:f:return 2\n")
    with pytest.raises(ValueError, match="^line 4: a reason line needs its own key line above it$"):
        reach.read_listed(text + "    a second reason\n")


def test_the_list_in_the_repository_reads():
    reach.read_listed(reach.LISTED.read_text(encoding="utf-8"))


def test_before_python_3_12_the_gate_exits_2_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "version_info", (3, 11, 7))
    assert reach.main(["-q"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: reach.py needs sys.monitoring, which Python 3.12 added\n"
    assert captured.out == ""
