import argparse
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from vecauto import builders, diophantine, langlab, transforms
from vecauto.builders import example
from vecauto.cli import main
from test_diophantine import EQ_SYSTEM, unsupported_famw
from test_fileformat import TWO_CYCLE_DFA
from machine_gen import random_nbhva_endmarker
from walk_oracles import eps_chain_machine
from vecauto.exact import Matrix
from vecauto.fileformat import load_machine, write_machine
from vecauto.machines import (
    DETERMINISTIC,
    FAM,
    NONDETERMINISTIC,
    STATUS_ANY,
    VA,
    MachineSpec,
    TransitionRule,
    stateless,
    validate,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, records


# files no document parser can read: bytes that are not UTF-8, and JSON
# nested past the parser's recursion limit
BAD_DOCUMENTS = {"not_utf8": b"\xff\xfe\x00", "too_deep": "[" * 100_000}


def write_document(path, text):
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)


@pytest.fixture
def powr_path(tmp_path, capsys):
    path = tmp_path / "powr.mach"
    assert main(["build", "pow_r", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


class TestValidateCommand:
    def test_built_machine_is_valid(self, capsys, powr_path):
        code, records = run_cli(capsys, "validate", str(powr_path))
        assert code == 0
        assert records[0]["verdict"] == "Valid"

    def test_wrong_shape_matrix(self, capsys, tmp_path, powr_path):
        text = powr_path.read_text().replace('"dimension": 2', '"dimension": 3')
        bad = tmp_path / "bad.mach"
        bad.write_text(text)
        code, records = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert records[0]["verdict"] == "Invalid"
        assert any("dim" in d for d in records[0]["diagnostics"])

    def test_unknown_kind(self, capsys, tmp_path, powr_path):
        bad = tmp_path / "bad.mach"
        bad.write_text(powr_path.read_text().replace('"HVA"', '"XFA"'))
        code, records = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert records[0]["verdict"] == "ParseError"

    def test_missing_file(self, capsys):
        code, records = run_cli(capsys, "validate", "no_such.mach")
        assert code == 2

    @pytest.mark.parametrize(
        "changes,status,diagnostic",
        [({"mode": "nondeterministic"}, "*", "GFA is deterministic and blind"),
         ({"blind": False}, "=", "GFA is deterministic and blind"),
         ({"accept_states": []}, "*", "GFA accepts by its value; its one state must be accepting")],
        ids=["nondeterministic", "unblind-with-status", "state-not-accepting"],
    )
    def test_gfa_relabelled_mod3(self, capsys, tmp_path, changes, status, diagnostic):
        doc = json.loads(write_machine(example("mod", 3)))
        doc.update(changes, kind="GFA", gfa_final_vector=["1", "0", "0"], gfa_cutpoint="1")
        doc["transitions"][0]["status"] = status
        path = tmp_path / "gfa.mach"
        path.write_text(json.dumps(doc))
        code, records = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert records[0]["verdict"] == "Invalid"
        assert records[0]["diagnostics"] == [diagnostic]


class TestRunCommand:
    def test_accept_with_trace(self, capsys, powr_path):
        code, records = run_cli(capsys, "run", str(powr_path), "aab", "--trace")
        assert code == 0
        record = records[0]
        assert record["verdict"] == "Accept"
        last = record["trace"][-1]
        assert last["state"] == "q3"
        assert last["register"] == ["1", "1"]

    def test_reject_exit_code(self, capsys, powr_path):
        code, records = run_cli(capsys, "run", str(powr_path), "ab")
        assert code == 1
        assert records[0]["verdict"] == "Reject"

    def test_foreign_symbol_is_usage_error(self, capsys, powr_path):
        code, records = run_cli(capsys, "run", str(powr_path), "abc")
        assert code == 2
        assert records[0]["verdict"] == "UsageError"

    def test_eq_accepts_ab(self, capsys, tmp_path):
        path = tmp_path / "eq.mach"
        main(["build", "eq", "-o", str(path)])
        capsys.readouterr()
        code, records = run_cli(capsys, "run", str(path), "ab")
        assert code == 0

    def test_leq_rejects_a(self, capsys, tmp_path):
        path = tmp_path / "leq.mach"
        main(["build", "leq", "-o", str(path)])
        capsys.readouterr()
        code, records = run_cli(capsys, "run", str(path), "a")
        assert code == 1

    @pytest.mark.parametrize("machine,word,flags,verdict,stats", [
        ("leq", "ab", [], "Accept", (4, 2, None, 2)),
        ("leq", "abbb", ["--budget", "1"], "BudgetExceeded", (1, 1, "max_configurations", 2)),
        # the budget leaves the last position unexpanded, which no move
        # leaves without an end-marker: nothing was cut off
        ("leq", "a", ["--budget", "1"], "Reject", (1, 1, None, 2)),
        ("leq", "a" * 150 + "b" * 150, [], "Accept", (11626, 151, None, 151)),
        ("eps_chain", "a", ["--eps-per-path", "1"], "BudgetExceeded", (2, 2, "eps_per_path", 2)),
        # the figures are the word's letters' alone: the end-marker's
        # configurations, counted too, would read 4 register bits
        ("nbhva_endmarker", "b", [], "Reject", (2, 1, None, 3)),
    ], ids=["leq_ab", "leq_budget_1", "leq_last_unexpanded", "leq_a150b150", "eps_chain_cap_1",
            "nbhva_endmarker_b"])
    def test_stats_of_a_nondeterministic_run(self, capsys, tmp_path, machine, word, flags,
                                             verdict, stats):
        # configurations expanded, the peak frontier, the limit that cut a
        # move off and the widest register in bits; with the flag off the
        # record is the same but for its stats
        path = tmp_path / f"{machine}.mach"
        made = {"eps_chain": eps_chain_machine,
                "nbhva_endmarker": lambda: random_nbhva_endmarker(random.Random(0))}
        path.write_text(write_machine(made[machine]() if machine in made else example(machine)))
        plain = run_cli(capsys, "run", str(path), word, *flags)
        code, records = run_cli(capsys, "run", str(path), word, *flags, "--stats")
        (record,) = records
        assert record.pop("stats") == dict(
            zip(("expanded", "peak_frontier", "limit", "register_bits"), stats))
        assert record["verdict"] == verdict and (code, [record]) == plain

    def test_stats_leave_a_deterministic_run_as_it_is(self, capsys, powr_path):
        plain = run_cli(capsys, "run", str(powr_path), "aab")
        assert run_cli(capsys, "run", str(powr_path), "aab", "--stats") == plain


class TestTransformCommand:
    def test_remove_endmarker_writes_equivalent_file(self, capsys, tmp_path, powr_path):
        out_path = tmp_path / "powr_nm.mach"
        code, records = run_cli(
            capsys, "transform", "remove-endmarker", str(powr_path), str(out_path)
        )
        assert code == 0
        assert records[0]["pass"] == "remove_endmarker"
        out = load_machine(out_path)
        assert validate(out) == []
        assert not out.endmarker
        code, records = run_cli(
            capsys, "verify", str(out_path), "--against", str(powr_path), "--maxlen", "7"
        )
        assert code == 0

    def test_eliminate_states_via_cli(self, capsys, tmp_path):
        from test_transforms import two_state_double_a_dva

        dva_path = tmp_path / "dva.mach"
        dva_path.write_text(write_machine(two_state_double_a_dva()))
        out_path = tmp_path / "flat.mach"
        code, records = run_cli(
            capsys, "transform", "eliminate-states", str(dva_path), str(out_path)
        )
        assert code == 0
        out = load_machine(out_path)
        assert len(out.states) == 1
        assert out.dimension == 3

    def test_counters_pipeline_via_cli(self, capsys, tmp_path):
        from machine_gen import blind_counter_ab

        cm_path = tmp_path / "cm.mach"
        cm_path.write_text(write_machine(blind_counter_ab()))
        out_path = tmp_path / "hva3.mach"
        code, records = run_cli(
            capsys, "transform", "counters-to-integer-hva3", str(cm_path), str(out_path)
        )
        assert code == 0
        assert load_machine(out_path).dimension == 3

    def test_invalid_output_is_not_written(self, capsys, tmp_path):
        # a DFA over a two-letter symbol converts, but the machine fails
        # validation (alphabet symbols are single characters)
        dfa_path = tmp_path / "dfa.json"
        dfa_path.write_text(json.dumps({
            "states": ["q"], "alphabet": ["ab"], "initial_state": "q", "accept_states": ["q"],
            "transitions": [{"from": "q", "input": "ab", "to": "q"}]}))
        out_path = tmp_path / "out.mach"
        code, records = run_cli(capsys, "transform", "dfa-to-stateless", str(dfa_path), str(out_path))
        assert code == 2
        assert records[0]["verdict"] == "Invalid"
        assert any("single characters" in d for d in records[0]["diagnostics"])
        assert not out_path.exists()

    def test_unsupported_pass_is_usage_error(self, capsys, tmp_path, powr_path):
        code, records = run_cli(
            capsys, "transform", "eliminate-states", str(powr_path),
            str(tmp_path / "x.mach"),
        )
        assert code == 2
        assert "vector automata" in records[0]["detail"]


class TestMalformedArguments:
    @pytest.mark.parametrize(
        "argv,env",
        [
            (["transform", "scale-initial-vector", "{powr}", "{out}", "--scale", "abc"], {}),
            (["transform", "scale-initial-vector", "{powr}", "{out}", "--scale", "1/0"], {}),
            (["transform", "intersect", "{powr}", "{out}"], {}),
            (["transform", "intersect", "{powr}", "{out}", "--with", "{invalid}"], {}),
            (["enumerate", "{powr}", "--maxlen", "2"], {"VECAUTO_MAX_CONFIGS": "lots"}),
            (["run", "{eq}", "ab"], {"VECAUTO_MAX_CONFIGS": "lots"}),
            (["run", "{leq}", "ab"], {"VECAUTO_MAX_CONFIGS": "lots"}),
            (["run", "{dir}", "a"], {}),
            (["verify", "{powr}", "--against", "eq", "--maxlen", "-1"], {}),
            (["enumerate", "{powr}", "--maxlen", "two"], {}),
            (["run", "{powr}", "ab", "--budget", "-1"], {}),
            (["run", "{powr}", "ab", "--eps-per-path", "-1"], {}),
            (["enumerate", "{powr}", "--maxlen", "2"], {"VECAUTO_EPS_PER_PATH": "-1"}),
            (["enumerate", "{powr}", "--maxlen", "2"], {"VECAUTO_MAX_CONFIGS": "-1"}),
            (["check", "suffix", "{powr}", "--maxlen", "-1"], {}),
            (["run", "{powr}", "ab", "--eps-per-path", "x"], {}),
            (["diophantine", "solve", "{system}", "--bound", "-1"], {}),
            (["run", "{transitions_not_list}", "a"], {}),
            (["run", "{initial_vector_not_list}", "a"], {}),
            (["transform", "dfa-to-stateless", "{dfa_not_object}", "{out}"], {}),
            (["transform", "dfa-to-stateless", "{dfa_transitions_not_list}", "{out}"], {}),
            (["diophantine", "solve", "{system_not_object}", "--bound", "2"], {}),
            (["diophantine", "solve", "{system_float}", "--bound", "3"], {}),
            (["diophantine", "solve", "{system_bool}", "--bound", "3"], {}),
            (["run", "{not_utf8}", "a"], {}),
            (["run", "{too_deep}", "a"], {}),
            (["verify", "{eq}", "--against", "{not_utf8}", "--maxlen", "2"], {}),
            (["verify", "{eq}", "--against", "{too_deep}", "--maxlen", "2"], {}),
            (["transform", "dfa-to-stateless", "{not_utf8}", "{out}"], {}),
            (["transform", "dfa-to-stateless", "{too_deep}", "{out}"], {}),
            (["diophantine", "to-famw", "{not_utf8}", "-o", "{out}"], {}),
            (["diophantine", "to-famw", "{too_deep}", "-o", "{out}"], {}),
            (["diophantine", "solve", "{not_utf8}", "--bound", "2"], {}),
            (["diophantine", "solve", "{too_deep}", "--bound", "2"], {}),
            (["diophantine", "from-famw", "{famw_symbol_without_rule}", "-o", "{out}"], {}),
            (["diophantine", "from-famw", "{famw_endmarker_rule}", "-o", "{out}"], {}),
            (["diophantine", "from-famw", "{famw_non_accepting_state}", "-o", "{out}"], {}),
            (["transform", "dfa-to-stateless", "{dfa_unknown_target}", "{out}"], {}),
            (["verify", "{mod2}", "--against", "mystery", "--maxlen", "2"], {}),
            (["verify", "{mod2}", "--against", "mod", "--maxlen", "2"], {}),
            (["verify", "{mod2}", "--against", "mod:x", "--maxlen", "2"], {}),
            (["verify", "{mod2}", "--against", "mod:0", "--maxlen", "2"], {}),
            (["verify", "{powr}", "--against", "eq:5", "--maxlen", "2"], {}),
            (["verify", "{eq}", "--against", "eq:", "--maxlen", "2"], {}),
            (["check", "commutative-matrices", "{powr}", "--maxlen", "2"], {}),
            (["separate", "1a", "--model", "dbhva", "-o", "{out}"], {}),
            (["separate", "3", "--model", "dbhva", "-o", "{out}"], {}),
            (["separate", "12", "--model", "dbhva", "--base", "2", "-o", "{out}"], {}),
            (["separate", "12", "21", "--base", "11", "-o", "{out}"], {}),
            (["separate", "1\u00b2", "-o", "{out}"], {}),
            (["separate", "12", "--base", "x", "-o", "{out}"], {}),
            (["separate", "12", "13", "-o", "{out}"], {}),
            (["separate", "12", "21"], {}),
            (["separate", "", "-o", "{out}"], {}),
            (["separate", "", "--model", "dbhva", "-o", "{out}"], {}),
            (["separate", "1a", "--model", "gfa", "-o", "{out}"], {}),
            (["build", "mod", "x"], {}),
            (["build", "eq"], {}),
            (["diophantine", "to-famw", "{system}"], {}),
            (["diophantine", "from-famw", "{famw}"], {}),
            (["run", "{eq}"], {}),
            (["verify", "{eq}", "--maxlen", "2"], {}),
            (["frobnicate"], {}),
            (["check", "nosuch", "{eq}", "--maxlen", "1"], {}),
            (["enumerate", "{eq}", "--maxlen", "2", "--bogus"], {}),
            ([], {}),
        ],
        ids=["bad-scale", "zero-denominator-scale", "intersect-without-with",
             "intersect-with-invalid-machine", "bad-env-budget",
             "bad-env-budget-deterministic-run", "bad-env-budget-nondeterministic-run",
             "directory-as-machine",
             "negative-maxlen", "non-integer-maxlen", "negative-budget", "negative-eps-per-path",
             "negative-env-eps-per-path", "negative-env-max-configs", "negative-check-maxlen",
             "non-integer-eps-per-path", "negative-bound", "transitions-not-a-list", "initial-vector-not-a-list",
             "dfa-not-an-object", "dfa-transitions-not-a-list", "system-not-an-object",
             "system-float-coefficient", "system-bool-coefficient",
             "run-not-utf8", "run-too-deep", "verify-against-not-utf8",
             "verify-against-too-deep", "dfa-not-utf8", "dfa-too-deep",
             "to-famw-not-utf8", "to-famw-too-deep", "solve-not-utf8", "solve-too-deep",
             "famw-symbol-without-rule", "famw-endmarker-rule", "famw-non-accepting-state",
             "dfa-move-to-unknown-state", "unknown-reference", "reference-without-parameter",
             "non-integer-reference-parameter", "zero-reference-parameter",
             "reference-with-extra-parameter", "reference-with-extra-empty-parameter",
             "commutative-matrices-with-states",
             "separate-letter-digit", "separate-digit-of-the-base", "separate-base-two",
             "separate-base-eleven", "separate-superscript-digit", "separate-non-integer-base",
             "separate-other-with-a-foreign-symbol",
             "separate-without-output", "separate-empty-flat", "separate-empty-homing",
             "separate-gfa-letter-digit",
             "build-non-integer-parameter", "build-without-output", "to-famw-without-output",
             "from-famw-without-output", "missing-positional", "missing-required-option",
             "unknown-command", "invalid-choice", "unknown-flag", "empty-argv"],
    )
    def test_usage_error_record(self, capsys, monkeypatch, tmp_path, powr_path, argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        powr = json.loads(powr_path.read_text())
        dfa = TWO_CYCLE_DFA
        texts = {
            "invalid": powr_path.read_text().replace('"dimension": 2', '"dimension": 3'),
            "transitions_not_list": json.dumps(dict(powr, transitions=5)),
            "initial_vector_not_list": json.dumps(dict(powr, initial_vector=5)),
            "dfa_not_object": "5",
            "dfa_transitions_not_list": json.dumps(dict(dfa, transitions=5)),
            "system_not_object": "5",
            "system_float": '{"alphabet": ["a", "b"], "coefficients": [[1.5, -1]]}',
            "system_bool": '{"alphabet": ["a", "b"], "coefficients": [[true, -1]]}',
            "dfa_unknown_target": json.dumps(
                dict(dfa, transitions=[{"from": "q0", "input": "a", "to": "q9"}])),
            "mod2": write_machine(example("mod", 2)),
            "eq": write_machine(example("eq")),
            "leq": write_machine(example("leq")),
            "system": '{"alphabet": ["a", "b"], "coefficients": [[1, -1]]}',
            "famw": write_machine(diophantine.famw_from_system(EQ_SYSTEM)),
            **BAD_DOCUMENTS,
        }
        for case in ("symbol-without-rule", "endmarker-rule", "non-accepting-state"):
            texts["famw_" + case.replace("-", "_")] = write_machine(unsupported_famw(case)[0])
        paths = dict(powr=powr_path, out=tmp_path / "out.mach", dir=tmp_path)
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.json"
            write_document(paths[name], text)
        argv = [a.format(**paths) for a in argv]
        code, records = run_cli(capsys, *argv)
        assert code == 2
        assert [r["verdict"] for r in records] == ["UsageError"]
        assert not paths["out"].exists()
        # a bad count names the option or environment variable it came from
        name, _, rest = records[0]["detail"].partition(" must be a nonnegative integer, got ")
        if rest:
            given = env.get(name) or argv[argv.index(name) + 1]
            assert rest == repr(given)

    @pytest.mark.parametrize(
        "argv,record",
        [
            (["transform", "eliminate-states", "{unmarked_va}", "{out}"],
             ("UsageError", "state elimination relies on the end-marker acceptance step")),
            (["transform", "attach-endmarker", "{powr}", "{out}"],
             ("UsageError", "can only attach an end-marker to a plain HVA")),
            (["transform", "rationals-to-integers", "{dyck}", "{out}"],
             ("UsageError", "integer conversion applies to blind homing machines")),
            (["transform", "counters-to-hva1", "{eq}", "{out}"],
             ("UsageError", "prime encoding applies to counter machines")),
            (["transform", "intersect", "{eq}", "{out}", "--with", "{powr}"],
             ("UsageError", "intersection needs matching end-marker flags")),
            (["build", "mod", "0", "-o", "{out}"], ("UsageError", "modulus must be >= 1")),
            (["build", "unary_point", "-1", "-o", "{out}"],
             ("UsageError", "exponent must be nonnegative")),
            (["validate", "{integer_alphabet}"],
             ("ParseError", "alphabet: expected a list of strings")),
            (["validate", "{transition_without_to}"], ("ParseError", "transitions[0].to: missing")),
            (["validate", "{not_utf8}"],
             ("ParseError", "document: not UTF-8 text (invalid start byte)")),
            (["validate", "{too_deep}"],
             ("ParseError", "document: nested past the parser's recursion limit")),
            (["transform", "dfa-to-stateless", "{dfa_unknown_initial}", "{out}"],
             ("UsageError", "DFA initial state is not a state")),
            (["diophantine", "from-famw", "{two_state_fam}", "-o", "{out}"],
             ("UsageError", "system extraction applies to stateless machines")),
        ],
        ids=["eliminate-states-without-end-marker", "attach-endmarker-to-marked",
             "rationals-to-integers-non-blind", "counters-to-hva1-not-counters",
             "intersect-end-marker-flags-differ", "build-mod-zero", "build-negative-exponent",
             "integer-alphabet", "transition-without-to", "validate-not-utf8",
             "validate-too-deep", "dfa-unknown-initial-state",
             "from-famw-two-states"],
    )
    def test_refusal_record(self, capsys, tmp_path, argv, record):
        # a valid machine that a command refuses, or a file its parser
        # refuses: one whole record, exit 2, and no output file
        one, two = Matrix.from_rows([[1]]), Matrix.from_rows([[2]])
        powr = json.loads(write_machine(example("pow_r")))
        without_to = [dict(powr["transitions"][0])] + powr["transitions"][1:]
        del without_to[0]["to"]
        two_state_fam = MachineSpec(
            kind=FAM, mode=DETERMINISTIC, blind=True, endmarker=False, realtime=True,
            alphabet=("a",), states=("p", "q"), initial_state="p", accept_states={"p"},
            dimension=1, initial_vector=[1],
            transitions=[TransitionRule("p", "a", STATUS_ANY, "q", two),
                         TransitionRule("q", "a", STATUS_ANY, "p", two)])
        texts = {
            "unmarked_va": write_machine(stateless(VA, ("a",), 1, [1], [("a", one)])),
            "powr": json.dumps(powr),
            "dyck": write_machine(example("dyck")),
            "eq": write_machine(example("eq")),
            "integer_alphabet": json.dumps(dict(powr, alphabet=[1, 2])),
            "transition_without_to": json.dumps(dict(powr, transitions=without_to)),
            "dfa_unknown_initial": json.dumps(dict(TWO_CYCLE_DFA, initial_state="q9")),
            "two_state_fam": write_machine(two_state_fam),
            **BAD_DOCUMENTS,
        }
        paths = {"out": tmp_path / "out.mach"}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.json"
            write_document(paths[name], text)
        argv = [a.format(**paths) for a in argv]
        verdict, detail = record
        assert run_cli(capsys, *argv) == (2, [{"verdict": verdict, "detail": detail}])
        assert not paths["out"].exists()

    def test_argparse_error_is_one_record(self, capsys, tmp_path):
        path = tmp_path / "eq.mach"
        path.write_text(write_machine(example("eq")))
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert [json.loads(line) for line in captured.out.splitlines()] == [
            {"verdict": "UsageError",
             "detail": "vecauto run: the following arguments are required: input"}]
        assert captured.err.startswith("usage: vecauto run")

    def test_help_exits_zero(self, capsys):
        assert main(["run", "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: vecauto run")
        assert captured.err == ""

    @pytest.mark.parametrize(
        "argv",
        [["validate", "{machine}"], ["run", "{machine}", "ab"],
         ["run", "{machine}", "ab", "--trace"],
         ["verify", "{machine}", "--against", "eq", "--maxlen", "2"],
         ["enumerate", "{machine}", "--maxlen", "2"],
         ["check", "star-closure", "{machine}", "--maxlen", "2"],
         ["transform", "remove-endmarker", "{machine}", "{out}"]],
        ids=["validate", "run", "run-trace", "verify", "enumerate", "check-star-closure",
             "transform-remove-endmarker"],
    )
    def test_a_conflicting_machine_is_refused(self, capsys, tmp_path, argv):
        # a deterministic VA whose rules conflict on a letter and on the
        # end-marker: `validate` lists both conflicts, and every other
        # command refuses the file before it runs the machine
        one = Matrix.from_rows([[1]])
        rules = [("p", "a", "p"), ("p", "a", "q"), ("p", "b", "p"), ("p", "$", "q"),
                 ("p", "$", "p")]
        spec = MachineSpec(
            kind=VA, mode=DETERMINISTIC, blind=True, endmarker=True, realtime=True,
            alphabet=("a", "b"), states=("p", "q"), initial_state="p", accept_states={"q"},
            dimension=1, initial_vector=[1],
            transitions=[TransitionRule(q, x, STATUS_ANY, t, one) for q, x, t in rules])
        diagnostics = ["deterministic conflict: transitions #0 and #1 both apply in (p,a)",
                       "deterministic conflict: transitions #3 and #4 both apply in (p,$)"]
        paths = {"machine": tmp_path / "conflict.mach", "out": tmp_path / "out.mach"}
        paths["machine"].write_text(write_machine(spec))
        code = main([a.format(**paths) for a in argv])
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        if argv[0] == "validate":
            assert records == [{"verdict": "Invalid", "diagnostics": diagnostics,
                                "machine": spec.summary()}]
        else:
            assert records == [{"verdict": "UsageError", "detail": "; ".join(diagnostics)}]
        assert (code, captured.err) == (2, "")
        assert not paths["out"].exists()


class TestBuildAndSeparate:
    def test_build_writes_the_file_only(self, capsys, tmp_path):
        path = tmp_path / "mod6.mach"
        code = main(["build", "mod", "6", "-o", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["dimension"] == 6

    def test_separate_verifies_the_machine(self, capsys, tmp_path):
        out_path = tmp_path / "sep.mach"
        code, records = run_cli(
            capsys, "separate", "12", "21", "--model", "dbva", "-o", str(out_path)
        )
        assert code == 0
        assert records[0]["verdict"] == "Separated"
        assert records[0]["failures"] == []
        assert validate(load_machine(out_path)) == []

    def test_separate_reports_a_machine_that_fails(self, capsys, monkeypatch, tmp_path):
        # a distinguisher of another string accepts that string and rejects
        # x: both are failures, and the record says so with exit 1
        build = builders.binary_distinguisher
        monkeypatch.setattr(builders, "binary_distinguisher", lambda x, base: build("21", base))
        code, records = run_cli(capsys, "separate", "12", "21", "-o", str(tmp_path / "sep.mach"))
        assert (code, records) == (1, [{"verdict": "Failed", "accepts": "12", "rejects": ["21"],
                                        "failures": ["12", "21"]}])

    def test_separate_homing_model(self, capsys, tmp_path):
        code, records = run_cli(
            capsys, "separate", "121", "211", "112", "--model", "dbhva",
            "-o", str(tmp_path / "sep.mach"),
        )
        assert code == 0

    def test_separate_gfa_model_builds_the_empty_string(self, capsys, tmp_path):
        # dbva and dbhva refuse "", the GFA of {""} accepts it alone
        out_path = tmp_path / "sep.mach"
        code, records = run_cli(capsys, "separate", "", "1", "--model", "gfa",
                                "-o", str(out_path))
        assert (code, records) == (0, [{"verdict": "Separated", "accepts": "",
                                        "rejects": ["1"], "failures": []}])
        spec = load_machine(out_path)
        assert validate(spec) == []
        assert langlab.enumerate_accepted(spec, 3) == [""]


class TestVerifyAndCheck:
    def test_verify_against_reference(self, capsys, tmp_path):
        path = tmp_path / "abstar.mach"
        main(["build", "ab_star", "-o", str(path)])
        capsys.readouterr()
        code, records = run_cli(
            capsys, "verify", str(path), "--against", "ab_star", "--maxlen", "8"
        )
        assert code == 0
        assert records[0]["verdict"] == "Equal"

    def test_verify_against_reference_with_empty_parameter(self, capsys, tmp_path):
        # `singleton:` is the language {eps}: the empty parameter is read
        # as the empty string, not as a missing one
        path = tmp_path / "sep.mach"
        main(["separate", "12", "21", "-o", str(path)])
        capsys.readouterr()
        code, records = run_cli(
            capsys, "verify", str(path), "--against", "singleton:", "--maxlen", "3"
        )
        assert code == 1
        assert records[0]["counterexample"] == ""
        assert records[0]["against"] == {"reference": "only_"}

    def test_verify_a_permuted_alphabet(self, capsys, tmp_path):
        # eq with its alphabet listed as b, a holds eq's letters
        ba, eq = tmp_path / "ba.mach", tmp_path / "eq.mach"
        ba.write_text(write_machine(replace(example("eq"), alphabet=("b", "a"))))
        main(["build", "eq", "-o", str(eq)])
        capsys.readouterr()
        for against, record in (("eq", {"reference": "eq"}), (str(eq), {"machine": HVA_1})):
            assert run_cli(capsys, "verify", str(ba), "--against", against, "--maxlen", "4") == (
                0, [equal(4, HVA_1, record)])

    def test_verify_counterexample_exit_one(self, capsys, tmp_path):
        m2 = tmp_path / "m2.mach"
        m3 = tmp_path / "m3.mach"
        main(["build", "mod", "2", "-o", str(m2)])
        main(["build", "mod", "3", "-o", str(m3)])
        capsys.readouterr()
        code, records = run_cli(
            capsys, "verify", str(m2), "--against", str(m3), "--maxlen", "6"
        )
        assert code == 1
        assert records[0]["counterexample"] == "aa"

    def test_check_star_closure(self, capsys, tmp_path):
        path = tmp_path / "eq.mach"
        main(["build", "eq", "-o", str(path)])
        capsys.readouterr()
        code, records = run_cli(capsys, "check", "star-closure", str(path), "--maxlen", "7")
        assert code == 0
        assert records[0]["verdict"] == "Ok"

    def test_check_commutative_matrices_not_applicable(self, capsys, tmp_path):
        path = tmp_path / "abk.mach"
        main(["build", "ab_k_star", "2", "-o", str(path)])
        capsys.readouterr()
        code, records = run_cli(
            capsys, "check", "commutative-matrices", str(path), "--maxlen", "6"
        )
        assert code == 0
        assert records[0]["verdict"] == "NotApplicable"


class TestDispatchTables:
    """Each command reaches its verifier or pass through the module
    attribute at call time, so rebinding that attribute (as the
    benchmark's tracer does) is seen; a table that bound its functions
    at import time fails here."""

    @pytest.mark.parametrize(
        "argv,module,name",
        [
            (["check", "star-closure", "{mod2}"], langlab, "check_star_closure"),
            (["check", "suffix", "{mod2}"], langlab, "check_suffix_property"),
            (["check", "gcd", "{mod2}"], langlab, "check_gcd_property"),
            (["check", "commutative-matrices", "{mod2}"], langlab, "check_commutative_matrices"),
            (["check", "commutative", "{mod2}"], diophantine, "check_commutative"),
            (["enumerate", "{mod2}"], langlab, "enumerate_accepted"),
            (["verify", "{mod2}", "--against", "mod:2"], langlab, "matches_reference"),
            (["verify", "{mod2}", "--against", "{mod2}"], langlab, "equivalent_up_to"),
            (["transform", "rationals-to-integers", "{powr}", "{out}"], transforms,
             "rationals_to_integers"),
        ],
        ids=["star-closure", "suffix", "gcd", "commutative-matrices", "commutative",
             "enumerate", "verify-reference", "verify-machine", "transform"],
    )
    def test_patched_function_runs(self, capsys, monkeypatch, tmp_path, powr_path,
                                   argv, module, name):
        calls = []
        original = getattr(module, name)

        def patched(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, patched)
        paths = dict(mod2=tmp_path / "mod2.mach", powr=powr_path, out=tmp_path / "out.mach")
        paths["mod2"].write_text(write_machine(example("mod", 2)))
        argv = [a.format(**paths) for a in argv]
        if argv[0] != "transform":
            argv += ["--maxlen", "4"]
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == [name]


class TestEnumerateCommand:
    def test_ab_star_up_to_six(self, capsys, tmp_path):
        path = tmp_path / "abstar.mach"
        main(["build", "ab_star", "-o", str(path)])
        capsys.readouterr()
        code, records = run_cli(capsys, "enumerate", str(path), "--maxlen", "6")
        assert code == 0
        words = [r["accepted"] for r in records]
        assert words == ["", "ab", "aabb", "abab", "aaabbb", "aabbab", "abaabb", "ababab"]

    def test_non_blind_counter_machine(self, capsys, tmp_path):
        from machine_gen import counter_ab_endmarker

        path = tmp_path / "counter.mach"
        path.write_text(write_machine(counter_ab_endmarker()))
        code, records = run_cli(capsys, "enumerate", str(path), "--maxlen", "7")
        assert code == 0
        assert [r["accepted"] for r in records] == ["", "ab", "aabb", "aaabbb"]
        code, records = run_cli(capsys, "verify", str(path), "--against", "ab", "--maxlen", "8")
        assert code == 0 and records[0]["verdict"] == "Equal"


class TestBudgetAndKinds:
    def test_env_var_budget_override(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "leq.mach"
        main(["build", "leq", "-o", str(path)])
        capsys.readouterr()
        monkeypatch.setenv("VECAUTO_MAX_CONFIGS", "1")
        code, records = run_cli(capsys, "run", str(path), "ab")
        assert code == 3
        assert records[0]["verdict"] == "BudgetExceeded"

    def test_budget_flag(self, capsys, tmp_path):
        path = tmp_path / "leq.mach"
        main(["build", "leq", "-o", str(path)])
        capsys.readouterr()
        code, records = run_cli(capsys, "run", str(path), "ab", "--budget", "1")
        assert code == 3

    @pytest.mark.parametrize(
        "prop", ["star-closure", "suffix", "gcd", "commutative", "commutative-matrices"])
    def test_check_honours_budget(self, capsys, tmp_path, prop):
        # gcd needs a unary machine; the budget only matters to
        # nondeterministic ones
        if prop == "gcd":
            spec = replace(example("mod", 2), mode=NONDETERMINISTIC)
        else:
            spec = example("leq")
        path = tmp_path / "machine.mach"
        path.write_text(write_machine(spec))
        code, records = run_cli(capsys, "check", prop, str(path), "--maxlen", "4", "--budget", "1")
        assert code == 3
        assert records[0]["verdict"] == "BudgetExceeded"

    def test_gfa_run_reports_value(self, capsys, tmp_path):
        from walk_oracles import one_state_gfa

        path = tmp_path / "gfa.mach"
        path.write_text(write_machine(one_state_gfa()))
        code, records = run_cli(capsys, "run", str(path), "aaa")
        assert code == 0
        assert records[0]["value"] == "8"

    def test_gfa_run_trace_ends_at_the_valued_register(self, capsys, tmp_path):
        from walk_oracles import one_state_gfa

        path = tmp_path / "gfa.mach"
        path.write_text(write_machine(one_state_gfa()))
        code, records = run_cli(capsys, "run", str(path), "aa", "--trace")
        assert code == 1
        assert records[0]["verdict"] == "Reject"
        assert records[0]["value"] == "4"
        assert [c["register"] for c in records[0]["trace"]] == [["1"], ["2"], ["4"]]

    def test_every_catalog_machine_builds_and_validates(self, capsys, tmp_path):
        cases = [
            ("pow_r", None), ("ab_star", None), ("mod", 3), ("mod_rot", 4),
            ("ab_k_star", 2), ("eq", None), ("leq", None), ("dyck", None),
            ("evenab", None), ("l_epsilon", None), ("unary_point", 1),
        ]
        for name, param in cases:
            path = tmp_path / f"{name}.mach"
            argv = ["build", name] + ([str(param)] if param is not None else [])
            assert main(argv + ["-o", str(path)]) == 0
            capsys.readouterr()
            code, records = run_cli(capsys, "validate", str(path))
            assert code == 0, (name, records)


class TestDiophantineCommand:
    def test_solve(self, capsys, tmp_path):
        sys_path = tmp_path / "eq.sys"
        sys_path.write_text('{"alphabet": ["a", "b"], "coefficients": [[1, -1]]}')
        code, records = run_cli(capsys, "diophantine", "solve", str(sys_path), "--bound", "2")
        assert code == 0
        assert [r["solution"] for r in records] == [[0, 0], [1, 1], [2, 2]]

    @pytest.mark.parametrize(
        "alphabet,diagnostic",
        [(["a", "a"], "duplicate alphabet"), (["eps"], "reserved symbol")],
        ids=["duplicate-symbol", "reserved-symbol"],
    )
    def test_to_famw_invalid_output_is_not_written(self, capsys, tmp_path, alphabet, diagnostic):
        # like `transform`, to-famw validates the machine it would write
        sys_path = tmp_path / "bad.sys"
        sys_path.write_text(json.dumps({"alphabet": alphabet, "coefficients": [[1] * len(alphabet)]}))
        out_path = tmp_path / "out.mach"
        code, records = run_cli(capsys, "diophantine", "to-famw", str(sys_path), "-o", str(out_path))
        assert code == 2
        assert len(records) == 1 and records[0]["verdict"] == "Invalid"
        assert any(diagnostic in d for d in records[0]["diagnostics"])
        assert not out_path.exists()

    def test_to_famw_and_back(self, capsys, tmp_path):
        sys_path = tmp_path / "eq.sys"
        sys_path.write_text('{"alphabet": ["a", "b"], "coefficients": [[1, -1]]}')
        mach_path = tmp_path / "eq.mach"
        assert main(["diophantine", "to-famw", str(sys_path), "-o", str(mach_path)]) == 0
        capsys.readouterr()
        code, records = run_cli(
            capsys, "verify", str(mach_path), "--against", "eq", "--maxlen", "8"
        )
        assert code == 0
        sys_out = tmp_path / "back.sys"
        assert main(["diophantine", "from-famw", str(mach_path), "-o", str(sys_out)]) == 0
        assert json.loads(sys_out.read_text())["coefficients"] == [[1, -1]]


class TestSharedParser:
    """`main` builds its parser once per process; no call sees anything
    of an earlier call's arguments."""

    @pytest.fixture
    def leq_path(self, tmp_path, capsys):
        path = tmp_path / "leq.mach"
        assert main(["build", "leq", "-o", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_second_call_registers_no_arguments(self, capsys, monkeypatch, tmp_path):
        out = str(tmp_path / "eq.mach")
        assert main(["build", "eq", "-o", out]) == 0
        added = []
        original = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            added.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        assert main(["build", "eq", "-o", out]) == 0
        capsys.readouterr()
        assert added == []

    def test_trace_does_not_leak(self, capsys, leq_path):
        code, records = run_cli(capsys, "run", str(leq_path), "ab", "--trace")
        assert code == 0 and "accepting_path" in records[0]
        code, records = run_cli(capsys, "run", str(leq_path), "ab")
        assert code == 0 and "accepting_path" not in records[0]

    def test_others_do_not_leak(self, capsys, tmp_path):
        out = str(tmp_path / "sep.mach")
        code, records = run_cli(capsys, "separate", "12", "21", "-o", out)
        assert code == 0 and records[0]["rejects"] == ["21"]
        code, records = run_cli(capsys, "separate", "12", "-o", out)
        assert code == 0 and records[0]["rejects"] == []

    def test_budget_does_not_leak(self, capsys, leq_path):
        code, _ = run_cli(capsys, "enumerate", str(leq_path), "--maxlen", "3", "--budget", "1")
        assert code == 3
        code, records = run_cli(capsys, "enumerate", str(leq_path), "--maxlen", "3")
        assert code == 0
        assert [r["accepted"] for r in records] == langlab.enumerate_accepted(
            load_machine(leq_path), 3)

    def test_usage_error_then_valid_command(self, capsys, leq_path):
        usual = run_cli(capsys, "run", str(leq_path), "ab")
        code, records = run_cli(capsys, "run", str(leq_path))
        assert code == 2 and records[0]["verdict"] == "UsageError"
        assert run_cli(capsys, "run", str(leq_path), "ab") == usual


# the summary records of the catalog machines the shell commands read
HVA_1 = {"kind": "HVA", "states": 1, "dimension": 1}


def equal(bound, machine, against):
    return {"verdict": "Equal", "counterexample": None, "bound": bound, "machine": machine,
            "against": against}


class TestShellCommands:
    """Commands as a shell user runs them, one after another in one folder
    that holds eq.mach, powr.mach and leq.mach built by `vecauto build`:
    each step's exit code and the whole of its records."""

    @pytest.fixture
    def folder(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, path in (("eq", "eq.mach"), ("pow_r", "powr.mach"), ("leq", "leq.mach")):
            assert main(["build", name, "-o", path]) == 0
        assert capsys.readouterr().out == ""
        return tmp_path

    @pytest.mark.parametrize("steps", [
        [(["verify", "eq.mach", "--against", "eq.mach", "--maxlen", "8"], 0,
          [equal(8, HVA_1, {"machine": HVA_1})])],
        [(["check", "commutative", "eq.mach", "--maxlen", "6"], 0,
          [{"verdict": "Ok", "machine": HVA_1, "bound": 6}])],
        [(["check", "suffix", "eq.mach", "--maxlen", "6"], 0,
          [{"verdict": "Ok", "machine": HVA_1, "bound": 6}])],
        [(["enumerate", "eq.mach", "--maxlen", "4"], 0,
          [{"accepted": w} for w in ("", "ab", "ba", "aabb", "abab", "abba", "baab", "baba",
                                     "bbaa")])],
        [(["separate", "12", "21", "-o", "sep.mach"], 0,
          [{"verdict": "Separated", "accepts": "12", "rejects": ["21"], "failures": []}]),
         (["verify", "sep.mach", "--against", "singleton:12", "--maxlen", "6"], 0,
          [equal(6, {"kind": "VA", "states": 1, "dimension": 2}, {"reference": "only_12"})])],
        [(["separate", "12", "21", "--model", "gfa", "-o", "sep_gfa.mach"], 0,
          [{"verdict": "Separated", "accepts": "12", "rejects": ["21"], "failures": []}]),
         (["verify", "sep_gfa.mach", "--against", "singleton:12", "--maxlen", "6"], 0,
          [equal(6, {"kind": "GFA", "states": 1, "dimension": 2}, {"reference": "only_12"})])],
        [(["separate", "212", "--model", "dbhva", "-o", "sep_hva.mach"], 0,
          [{"verdict": "Separated", "accepts": "212", "rejects": [], "failures": []}]),
         (["verify", "sep_hva.mach", "--against", "singleton:212", "--maxlen", "6"], 0,
          [equal(6, {"kind": "HVA", "states": 2, "dimension": 2}, {"reference": "only_212"})])],
        # verdicts read at the end-marker
        [(["verify", "powr.mach", "--against", "pow_r", "--maxlen", "10"], 0,
          [equal(10, {"kind": "HVA", "states": 3, "dimension": 2}, {"reference": "pow_r"})])],
        # a traced nondeterministic run, and nondeterministic verifies on the
        # shared walk, one within budget and one out of it
        [(["run", "leq.mach", "ab", "--trace"], 0,
          [{"verdict": "Accept", "machine": HVA_1, "input": "ab", "accepting_path": [0, 1]}])],
        [(["verify", "leq.mach", "--against", "leq", "--maxlen", "8"], 0,
          [equal(8, HVA_1, {"reference": "leq"})])],
        [(["verify", "leq.mach", "--against", "leq", "--maxlen", "6", "--budget", "1"], 3,
          [{"verdict": "BudgetExceeded", "detail": "search budget exhausted on input 'aa'"}])],
        [(["run", "leq.mach", "abbb", "--budget", "1"], 3,
          [{"verdict": "BudgetExceeded", "machine": HVA_1, "input": "abbb"}])],
    ], ids=["verify-against-a-machine", "check-commutative", "check-suffix", "enumerate",
            "separate-and-verify", "separate-gfa-and-verify", "separate-homing-and-verify",
            "verify-at-the-end-marker", "traced-run", "verify-nondeterministic", "verify-out-of-budget",
            "run-out-of-budget"])
    def test_records_and_exit_codes(self, capsys, folder, steps):
        for argv, code, records in steps:
            assert run_cli(capsys, *argv) == (code, records), argv


class TestModuleEntryPoint:
    """`python -m vecauto`, one process per command as a shell user runs it."""

    @staticmethod
    def vecauto(cwd, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "vecauto", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_build_verify_and_usage_error(self, tmp_path):
        built = self.vecauto(tmp_path, "build", "eq", "-o", "eq.mach")
        assert built.returncode == 0 and built.stdout == ""
        assert (tmp_path / "eq.mach").read_text() == write_machine(example("eq"))
        verified = self.vecauto(tmp_path, "verify", "eq.mach", "--against", "eq", "--maxlen", "6")
        assert verified.returncode == 0
        assert [json.loads(line)["verdict"] for line in verified.stdout.splitlines()] == ["Equal"]
        bad = self.vecauto(tmp_path, "frobnicate")
        assert bad.returncode == 2
        assert [json.loads(line)["verdict"] for line in bad.stdout.splitlines()] == ["UsageError"]
