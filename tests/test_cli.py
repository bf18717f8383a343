import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from vecauto import diophantine, langlab, transforms
from vecauto.builders import example
from vecauto.cli import main
from test_diophantine import EQ_SYSTEM, unsupported_famw
from test_fileformat import TWO_CYCLE_DFA
from vecauto.fileformat import load_machine, write_machine
from vecauto.machines import NONDETERMINISTIC, validate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, records


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
            (["run", "{transitions_not_list}", "a"], {}),
            (["run", "{initial_vector_not_list}", "a"], {}),
            (["transform", "dfa-to-stateless", "{dfa_not_object}", "{out}"], {}),
            (["transform", "dfa-to-stateless", "{dfa_transitions_not_list}", "{out}"], {}),
            (["diophantine", "solve", "{system_not_object}", "--bound", "2"], {}),
            (["diophantine", "solve", "{system_float}", "--bound", "3"], {}),
            (["diophantine", "solve", "{system_bool}", "--bound", "3"], {}),
            (["diophantine", "from-famw", "{famw_symbol_without_rule}", "-o", "{out}"], {}),
            (["diophantine", "from-famw", "{famw_endmarker_rule}", "-o", "{out}"], {}),
            (["diophantine", "from-famw", "{famw_non_accepting_state}", "-o", "{out}"], {}),
            (["transform", "dfa-to-stateless", "{dfa_unknown_target}", "{out}"], {}),
            (["verify", "{mod2}", "--against", "mystery", "--maxlen", "2"], {}),
            (["verify", "{mod2}", "--against", "mod", "--maxlen", "2"], {}),
            (["verify", "{mod2}", "--against", "mod:x", "--maxlen", "2"], {}),
            (["verify", "{mod2}", "--against", "mod:0", "--maxlen", "2"], {}),
            (["verify", "{powr}", "--against", "eq:5", "--maxlen", "2"], {}),
            (["check", "commutative-matrices", "{powr}", "--maxlen", "2"], {}),
            (["separate", "1a", "--model", "dbhva", "-o", "{out}"], {}),
            (["separate", "3", "--model", "dbhva", "-o", "{out}"], {}),
            (["separate", "12", "--model", "dbhva", "--base", "2", "-o", "{out}"], {}),
            (["separate", "12", "21", "--base", "11", "-o", "{out}"], {}),
            (["separate", "1\u00b2", "-o", "{out}"], {}),
            (["separate", "12", "--base", "x", "-o", "{out}"], {}),
            (["separate", "12", "21"], {}),
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
             "negative-env-eps-per-path", "transitions-not-a-list", "initial-vector-not-a-list",
             "dfa-not-an-object", "dfa-transitions-not-a-list", "system-not-an-object",
             "system-float-coefficient", "system-bool-coefficient",
             "famw-symbol-without-rule", "famw-endmarker-rule", "famw-non-accepting-state",
             "dfa-move-to-unknown-state", "unknown-reference", "reference-without-parameter",
             "non-integer-reference-parameter", "zero-reference-parameter",
             "reference-with-extra-parameter", "commutative-matrices-with-states",
             "separate-letter-digit", "separate-digit-of-the-base", "separate-base-two",
             "separate-base-eleven", "separate-superscript-digit", "separate-non-integer-base",
             "separate-without-output",
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
        }
        for case in ("symbol-without-rule", "endmarker-rule", "non-accepting-state"):
            texts["famw_" + case.replace("-", "_")] = write_machine(unsupported_famw(case)[0])
        paths = dict(powr=powr_path, out=tmp_path / "out.mach", dir=tmp_path)
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        argv = [a.format(**paths) for a in argv]
        code, records = run_cli(capsys, *argv)
        assert code == 2
        assert [r["verdict"] for r in records] == ["UsageError"]
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

    def test_separate_homing_model(self, capsys, tmp_path):
        code, records = run_cli(
            capsys, "separate", "121", "211", "112", "--model", "dbhva",
            "-o", str(tmp_path / "sep.mach"),
        )
        assert code == 0


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
        from test_machines import one_state_gfa

        path = tmp_path / "gfa.mach"
        path.write_text(write_machine(one_state_gfa()))
        code, records = run_cli(capsys, "run", str(path), "aaa")
        assert code == 0
        assert records[0]["value"] == "8"

    def test_gfa_run_trace_ends_at_the_valued_register(self, capsys, tmp_path):
        from test_machines import one_state_gfa

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
