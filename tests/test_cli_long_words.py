"""`vecauto run` on long words, in process.

Registers pass 2**60 within a few dozen letters of these words, so the
runs multiply letter blocks. Each run prints one record; Accept exits 0,
Reject 1 and BudgetExceeded 3. The blind machines are eq, an
intersection, pow_r (whose end-marker is read after the word's
letters), leq, and eq given an end-marker and rid of it again, which is
nondeterministic only in its rules into a sink. The non-blind ones read
the register's status inside the blocks: dyck on balanced words, and a
VA whose wide register returns to status `=`.
"""

from fractions import Fraction

import pytest

from test_cli import run_cli
from vecauto.exact import Matrix
from vecauto.fileformat import write_machine
from vecauto.machines import (
    DETERMINISTIC,
    STATUS_ANY,
    STATUS_EQ,
    STATUS_NE,
    VA,
    MachineSpec,
    TransitionRule,
)


def word(a, b):
    return "a" * a + "b" * b


def home_returning_va():
    """A non-blind VA over a/b: under a at home its first entry stays 1
    while its second grows; b doubles the first entry, and the next a
    halves it on the way to q, whose a leads back home."""
    rules = [("p", "a", STATUS_EQ, "p", [[1, 1], [0, 2]]),
             ("p", "a", STATUS_NE, "q", [[Fraction(1, 2), 0], [0, 1]]),
             ("p", "b", STATUS_ANY, "p", [[2, 0], [0, 1]]),
             ("q", "a", STATUS_ANY, "p", [[1, 0], [0, 3]])]
    return MachineSpec(
        kind=VA, mode=DETERMINISTIC, blind=False, endmarker=False, realtime=True,
        alphabet=("a", "b"), states=("p", "q"), initial_state="p", accept_states={"p"},
        dimension=2, initial_vector=[1, 1],
        transitions=[TransitionRule(q, x, s, t, Matrix.from_rows(m)) for q, x, s, t, m in rules])


def records_of(capsys, *argv):
    """Runs a command that must exit 0 and print records only."""
    code, records = run_cli(capsys, *argv)
    assert code == 0
    assert records
    return records


def machine_file(capsys, folder, name):
    """The file of a catalog machine, or of a machine a transform makes of
    them, built through the CLI, which must print its records."""
    path = str(folder / f"{name}.mach")
    if name == "both":
        records_of(capsys, "transform", "intersect", machine_file(capsys, folder, "eq"), path,
                   "--with", machine_file(capsys, folder, "evenab"))
    elif name == "eq_unmarked":
        marked = str(folder / "eq_marked.mach")
        records_of(capsys, "transform", "attach-endmarker", machine_file(capsys, folder, "eq"),
                   marked)
        records_of(capsys, "transform", "remove-endmarker", marked, path)
    elif name == "home_returning":
        (folder / "home_returning.mach").write_text(write_machine(home_returning_va()))
    else:
        code, _ = run_cli(capsys, "build", name, "-o", path)
        assert code == 0
    return path


RUNS = [
    ("eq", word(3000, 3000), (), 0, "Accept"),
    ("both", word(3000, 3000), (), 0, "Accept"),
    ("both", word(3001, 3001), (), 1, "Reject"),
    ("pow_r", word(4096, 12), (), 0, "Accept"),
    ("leq", word(150, 150), (), 0, "Accept"),
    ("leq", word(151, 150), (), 1, "Reject"),
    ("eq_unmarked", word(3000, 3000), (), 0, "Accept"),
    ("eq_unmarked", word(3001, 3000), (), 1, "Reject"),
    ("eq_unmarked", word(3000, 3000), ("--budget", "5000"), 3, "BudgetExceeded"),
    # the status of ) read at every depth, at depth 0 in the middle too
    ("dyck", "(" * 3000 + ")" * 3000, (), 0, "Accept"),
    ("dyck", ("(" * 1500 + "()" * 500 + ")" * 1500) * 2, (), 0, "Accept"),
    ("dyck", "(" * 3000 + ")" * 2999, (), 1, "Reject"),
    ("dyck", "(" * 3000 + ")" * 3001, (), 1, "Reject"),
    # status `=` read on a wide register again after each b and two a's
    ("home_returning", "a" * 3000 + "baaa" * 1000, (), 0, "Accept"),
    ("home_returning", "a" * 3000 + "baaa" * 1000 + "b", (), 1, "Reject"),
]


@pytest.mark.parametrize("name, text, options, code, verdict", RUNS,
                         ids=[f"{run[0]}-{len(run[1])}-{run[4]}" for run in RUNS])
def test_a_long_word_run_prints_one_record(capsys, tmp_path, name, text, options, code,
                                           verdict):
    path = machine_file(capsys, tmp_path, name)
    got, records = run_cli(capsys, "run", path, text, *options)
    assert got == code
    assert len(records) == 1
    assert records[0]["verdict"] == verdict
