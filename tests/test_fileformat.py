import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machine_gen import blind_counter_abc, counter_ab_endmarker
from vecauto.builders import cyclic_dfa, example
from vecauto.diophantine import DiophantineSystem
from vecauto.errors import MachineFileError
from vecauto.fileformat import (
    parse_dfa,
    parse_machine,
    parse_system,
    write_machine,
    write_system,
)
from vecauto.machines import validate


# the file of cyclic_dfa(2)
TWO_CYCLE_DFA = {
    "states": ["q0", "q1"], "alphabet": ["a"], "initial_state": "q0", "accept_states": ["q0"],
    "transitions": [{"from": "q0", "input": "a", "to": "q1"},
                    {"from": "q1", "input": "a", "to": "q0"}],
}

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
        from walk_oracles import one_state_gfa

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
            parse_dfa: lambda: TWO_CYCLE_DFA,
            parse_system: lambda: json.loads(write_system(DiophantineSystem(("a",), ((1,),)))),
        }[parse]()
        doc = dict(base, **change) if isinstance(change, dict) else change
        with pytest.raises(MachineFileError, match=field):
            parse(json.dumps(doc))

    def test_bad_status(self):
        text = write_machine(example("eq")).replace('"*"', '"?"', 1)
        with pytest.raises(MachineFileError, match="status"):
            parse_machine(text)


def token_machine(kind, start, update):
    """A one-state, dimension-1 machine document whose initial vector is
    ``[start]`` and whose one rule's matrix is ``[[update]]``."""
    return json.dumps({
        "kind": kind, "mode": "deterministic", "blind": True, "endmarker": False,
        "realtime": True, "alphabet": ["a"], "states": ["q"], "initial_state": "q",
        "accept_states": ["q"], "dimension": 1, "initial_vector": [start],
        "transitions": [rule(matrix=[[update]])],
    })


def as_fraction(token):
    """What a token meant before parsed tokens were shared: Fraction of its
    text, stripped."""
    return Fraction(str(token).strip())


# every form a rational token takes: "p", "-p", "p/q", spaces, decimals,
# exponents, and JSON ints and floats
RATIONAL_TOKENS = ["3", "-3", "+3", "0", "2/4", "-6/4", "4/2", " 1/2 ", " 7", "0.25", "-1.50",
                   "1e3", "2.5e-1", 3, -3, 0, 0.5, 2.0, -0.125]
MALFORMED_TOKENS = [True, False, None, "1/0", "", " ", "two", "1/2/3", "1 / 2", "1/", [1]]


class TestRationalTokens:
    @pytest.mark.parametrize("token", RATIONAL_TOKENS, ids=repr)
    def test_token_parses_as_fraction_did(self, token):
        # the second use of a token, in the matrix, reads the parsed one
        spec = parse_machine(token_machine("HVA", token, token))
        value = as_fraction(token)
        for parsed in (spec.initial_vector.entries[0], spec.transitions[0].effect.entries[0]):
            assert parsed == value
            assert type(parsed) is (int if value.denominator == 1 else Fraction)

    @pytest.mark.parametrize("token", [t for t in RATIONAL_TOKENS if as_fraction(t).denominator == 1],
                             ids=repr)
    def test_integral_token_is_a_counter_value(self, token):
        spec = parse_machine(token_machine(COUNTER, token, token))
        assert spec.initial_vector == spec.transitions[0].effect == (as_fraction(token),)

    @pytest.mark.parametrize("token", MALFORMED_TOKENS, ids=repr)
    @pytest.mark.parametrize("kind", ["HVA", COUNTER])
    def test_malformed_token_names_its_field(self, kind, token):
        with pytest.raises(MachineFileError, match=r"^initial_vector: expected a rational"):
            parse_machine(token_machine(kind, token, "1"))
        # after a parsed "1": JSON true hash-equals 1 and must not read it
        with pytest.raises(MachineFileError,
                           match=r"^transitions\[0\]\.matrix: expected a rational"):
            parse_machine(token_machine(kind, "1", token))

    def test_non_integral_token_in_a_counter_field(self):
        with pytest.raises(MachineFileError, match="^initial_vector: expected an integer"):
            parse_machine(token_machine(COUNTER, "1/2", "1"))
        with pytest.raises(MachineFileError,
                           match=r"^transitions\[0\]\.matrix: expected an integer"):
            parse_machine(token_machine(COUNTER, "1", "1/2"))

    @settings(max_examples=200)
    @given(st.integers(-10**20, 10**20), st.integers(1, 10**6),
           st.sampled_from(["{p}/{q}", " {p}/{q} ", "{p}", "{d}", "json-int", "json-float"]))
    def test_drawn_token_parses_as_fraction_did(self, p, q, form):
        if form == "json-int":
            token = p
        elif form == "json-float":
            token = p / q
        else:
            token = form.format(p=p, q=q, d=float(Fraction(p, q)))
        spec = parse_machine(token_machine("HVA", token, token))
        assert spec.initial_vector.entries[0] == as_fraction(token)
        assert spec.transitions[0].effect.entries[0] == as_fraction(token)


class TestDfaFiles:
    def test_round_trip(self):
        dfa = cyclic_dfa(2)
        again = parse_dfa(json.dumps(TWO_CYCLE_DFA))
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
