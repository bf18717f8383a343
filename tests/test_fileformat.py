import json

import pytest

from machine_gen import blind_counter_abc, counter_ab_endmarker
from vecauto.builders import cyclic_dfa, example
from vecauto.diophantine import DiophantineSystem
from vecauto.errors import MachineFileError
from vecauto.fileformat import (
    parse_dfa,
    parse_machine,
    parse_system,
    write_dfa,
    write_machine,
    write_system,
)
from vecauto.machines import validate


ALL_EXAMPLES = [
    ("pow_r", None),
    ("ab_star", None),
    ("mod", 4),
    ("mod_rot", 4),
    ("ab_k_star", 2),
    ("eq", None),
    ("leq", None),
    ("dyck", None),
    ("evenab", None),
    ("l_epsilon", None),
    ("unary_point", 2),
]


def rule(**changes):
    """One transition object of a one-state machine, with `changes`."""
    return dict({"from": "q", "input": "a", "status": "*", "to": "q", "matrix": [["1"]]},
                **changes)


COUNTER = "CounterMachine"


class TestMachineRoundTrip:
    @pytest.mark.parametrize("name,param", ALL_EXAMPLES)
    def test_parse_inverts_write(self, name, param):
        spec = example(name, param)
        assert parse_machine(write_machine(spec)) == spec

    @pytest.mark.parametrize("name,param", ALL_EXAMPLES)
    def test_write_is_canonical(self, name, param):
        text = write_machine(example(name, param))
        assert write_machine(parse_machine(text)) == text

    def test_counter_machine_round_trip(self):
        spec = blind_counter_abc()
        assert parse_machine(write_machine(spec)) == spec

    def test_counter_statuses_round_trip_byte_for_byte(self):
        spec = counter_ab_endmarker()
        text = write_machine(spec)
        assert json.loads(text)["transitions"][1]["status"] == ["!="]
        assert parse_machine(text) == spec
        assert write_machine(parse_machine(text)) == text

    def test_gfa_round_trip(self):
        from test_machines import one_state_gfa

        spec = one_state_gfa()
        again = parse_machine(write_machine(spec))
        assert again == spec
        assert validate(again) == []


class TestParseErrors:
    def test_syntax_error_carries_line(self):
        with pytest.raises(MachineFileError, match="line"):
            parse_machine("{ not json")

    def test_missing_field(self):
        with pytest.raises(MachineFileError, match="kind"):
            parse_machine("{}")

    def test_unknown_kind(self):
        text = write_machine(example("eq")).replace('"HVA"', '"TURING"')
        with pytest.raises(MachineFileError, match="kind"):
            parse_machine(text)

    def test_bad_rational(self):
        text = write_machine(example("eq")).replace('"2"', '"two"')
        with pytest.raises(MachineFileError, match="rational"):
            parse_machine(text)

    def test_ragged_matrix(self):
        import json

        doc = json.loads(write_machine(example("pow_r")))
        doc["transitions"][0]["matrix"][0].pop()
        with pytest.raises(MachineFileError, match="lengths"):
            parse_machine(json.dumps(doc))

    def test_boolean_dimension(self):
        text = write_machine(example("eq")).replace('"dimension": 1', '"dimension": true')
        with pytest.raises(MachineFileError, match="dimension"):
            parse_machine(text)

    @pytest.mark.parametrize(
        "parse,change,field",
        [
            (parse_machine, {"transitions": 5}, "transitions"),
            (parse_machine, {"initial_vector": 5}, "initial_vector"),
            (parse_machine, {"transitions": [5]}, r"transitions\[0\]"),
            (parse_machine, {"transitions": [{"from": ["q"], "input": "a", "status": "*",
                                              "to": "q", "matrix": [["2"]]}]}, "from"),
            (parse_machine, [], "document"),
            (parse_machine, {"mode": "random"}, "mode: unknown mode 'random'"),
            (parse_machine, {"blind": "yes"}, "blind: expected true or false"),
            (parse_machine, {"transitions": [rule(status=["="])]},
             r"transitions\[0\]\.status: malformed status"),
            (parse_machine, {"kind": COUNTER, "transitions": [rule(status=["=", "?"])]},
             r"transitions\[0\]\.status: counter status components must be"),
            (parse_machine, {"transitions": [rule(matrix=["1"])]},
             r"transitions\[0\]\.matrix: expected a nested row-major array"),
            (parse_machine, {"kind": COUNTER, "transitions": [rule(matrix=[["1"], ["0"]])]},
             r"transitions\[0\]\.matrix: counter updates are a single row"),
            (parse_machine, {"kind": COUNTER, "transitions": [rule(matrix=[["1/2"]])]},
             r"transitions\[0\]\.matrix: expected an integer"),
            (parse_machine, {"kind": COUNTER, "initial_vector": ["1/2"]},
             "initial_vector: expected an integer"),
            (parse_dfa, {"transitions": 5}, "transitions"),
            (parse_dfa, {"states": 5}, "states"),
            (parse_dfa, {"transitions": [{"from": "q0", "input": ["a"], "to": "q1"}]}, "input"),
            (parse_dfa, 5, "document"),
            (parse_system, 5, "document"),
            (parse_system, {"coefficients": [[1.5]]}, "coefficients"),
            (parse_system, {"coefficients": [[1.0]]}, "coefficients"),
            (parse_system, {"coefficients": [[True]]}, "coefficients"),
            (parse_system, {"coefficients": [["1"]]}, "coefficients"),
        ],
        ids=["machine-transitions", "machine-initial-vector", "machine-transition-item",
             "machine-source", "machine-document", "machine-mode", "machine-flag",
             "machine-list-status", "counter-status", "machine-flat-matrix", "counter-rows",
             "counter-fraction-update", "counter-fraction-start", "dfa-transitions", "dfa-states",
             "dfa-input", "dfa-document", "system-document", "system-float",
             "system-integral-float", "system-bool", "system-string"],
    )
    def test_wrong_json_type(self, parse, change, field):
        base = {
            parse_machine: lambda: json.loads(write_machine(example("eq"))),
            parse_dfa: lambda: json.loads(write_dfa(cyclic_dfa(2))),
            parse_system: lambda: json.loads(write_system(DiophantineSystem(("a",), ((1,),)))),
        }[parse]()
        doc = dict(base, **change) if isinstance(change, dict) else change
        with pytest.raises(MachineFileError, match=field):
            parse(json.dumps(doc))

    def test_bad_status(self):
        text = write_machine(example("eq")).replace('"*"', '"?"', 1)
        with pytest.raises(MachineFileError, match="status"):
            parse_machine(text)


class TestDfaFiles:
    def test_round_trip(self):
        dfa = cyclic_dfa(3)
        again = parse_dfa(write_dfa(dfa))
        assert again.states == dfa.states
        assert again.delta == dfa.delta
        assert again.accept_states == dfa.accept_states

    def test_duplicate_move_rejected(self):
        text = """
        {"states": ["q"], "alphabet": ["a"], "initial_state": "q",
         "accept_states": ["q"],
         "transitions": [{"from": "q", "input": "a", "to": "q"},
                         {"from": "q", "input": "a", "to": "q"}]}
        """
        with pytest.raises(MachineFileError, match="duplicate"):
            parse_dfa(text)


class TestSystemFiles:
    def test_round_trip(self):
        system = DiophantineSystem(("a", "b"), ((2, -1), (0, 3)))
        assert parse_system(write_system(system)) == system

    def test_ragged_rows_rejected(self):
        with pytest.raises(MachineFileError):
            parse_system('{"alphabet": ["a", "b"], "coefficients": [[1]]}')
