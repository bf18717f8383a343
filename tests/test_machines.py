import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machine_gen import blind_counter_ab, counter_ab_endmarker, random_dva
from vecauto import machines
from vecauto.builders import example
from vecauto.errors import AlphabetError, InconsistentSpecError, UndecidedError, UnsupportedKindError
from vecauto.exact import Matrix, RowVector
from vecauto.machines import (
    ACCEPT,
    BUDGET_EXCEEDED,
    COUNTER_MACHINE,
    DETERMINISTIC,
    EXTENDED_FA,
    FAM,
    GFA,
    HVA,
    NONDETERMINISTIC,
    REJECT,
    STATUS_ANY,
    STATUS_EQ,
    STATUS_NE,
    Configuration,
    MachineSpec,
    SearchBudget,
    TransitionRule,
    accepts,
    embed_monoid_effect,
    extendedfa_embed,
    flattened_identity,
    gfa_value,
    run_deterministic,
    run_nondeterministic,
    stateless,
    validate,
)
from vecauto.langlab import all_strings


def hva1(rules, mode=DETERMINISTIC, blind=True, alphabet=("a", "b")):
    return MachineSpec(
        kind=HVA,
        mode=mode,
        blind=blind,
        endmarker=False,
        realtime=True,
        alphabet=alphabet,
        states=("q",),
        initial_state="q",
        accept_states=frozenset({"q"}),
        dimension=1,
        initial_vector=RowVector([1]),
        transitions=tuple(rules),
    )


def scalar_rule(sym, value, status=STATUS_ANY):
    return TransitionRule("q", sym, status, "q", Matrix.from_rows([[Fraction(value)]]))


@pytest.fixture
def powr():
    return example("pow_r")


@pytest.fixture
def leq():
    return example("leq")


class TestStatelessConstructor:
    def test_matches_the_explicit_machine(self):
        # one state, initial and accepting; rules default to the wildcard
        spec = stateless(HVA, ("a", "b"), 1, [1], [
            ("a", Matrix.from_rows([[2]])),
            ("b", Matrix.from_rows([[Fraction(1, 2)]]), STATUS_EQ),
        ], blind=False)
        assert spec == hva1(
            [scalar_rule("a", 2), scalar_rule("b", Fraction(1, 2), STATUS_EQ)], blind=False
        )


def monoid_machine():
    """A valid matrix-monoid machine over 2 x 2 matrices."""
    return stateless(EXTENDED_FA, ("a",), 2, flattened_identity(2),
                     [("a", embed_monoid_effect(Matrix.from_rows([[1, 1], [0, 1]])))],
                     mode=NONDETERMINISTIC)


VALID = {
    "hva": lambda: example("eq"),  # q: a doubles, b halves
    "counter": blind_counter_ab,  # q1 -a-> q1, q1 -b-> q2, q2 -b-> q2
    "gfa": lambda: one_state_gfa(),
    "monoid": monoid_machine,
    "fam": lambda: stateless(FAM, ("a",), 1, [1], [("a", Matrix.from_rows([[2]]))]),
}


def first_rule(**changes):
    """A change to the transitions: the first rule with `changes`."""
    return lambda spec: {"transitions": (replace(spec.transitions[0], **changes),)
                         + spec.transitions[1:]}


# (valid machine, the fields one replace changes, one diagnostic it gives)
DIAGNOSTICS = [
    ("hva", {"kind": "Turing"}, "unknown kind: 'Turing'"),
    ("hva", {"mode": "random"}, "unknown mode: 'random'"),
    ("hva", {"states": (), "initial_state": None, "accept_states": ()},
     "machine needs at least one state"),
    ("hva", {"states": ("q", "q")}, "duplicate state names"),
    ("hva", {"initial_state": "p"}, "initial state 'p' not among states"),
    ("hva", {"accept_states": ("q", "p")}, "accept state 'p' not among states"),
    ("hva", {"alphabet": (), "transitions": ()}, "alphabet is empty"),
    ("hva", {"alphabet": ("a", "b", "a")}, "duplicate alphabet symbols"),
    ("hva", {"alphabet": ("a", "b", "$")}, "reserved symbol '$' cannot be in the alphabet"),
    ("hva", {"alphabet": ("a", "b", "cd")}, "alphabet symbols must be single characters, got 'cd'"),
    ("hva", {"dimension": 0}, "dimension must be >= 1, got 0"),
    ("counter", {"initial_vector": (0, 0)},
     "counter machine initial vector must have one integer per counter"),
    ("counter", {"initial_vector": (1,)}, "counters must start at zero"),
    ("hva", {"initial_vector": [1, 0]}, "initial vector has dim 2, expected 1"),
    ("monoid", {"initial_vector": [1, 0, 0, 0]},
     "matrix-monoid machines must start from the flattened identity"),
    ("fam", {"initial_vector": [2]}, "multiplicative registers must start at 1"),
    ("hva", {"realtime": False}, "deterministic machines must be real-time"),
    ("gfa", {"gfa_cutpoint": None}, "GFA needs a final vector and a cutpoint"),
    ("gfa", {"gfa_final_vector": [1, 0]}, "GFA final vector dimension mismatch"),
    ("gfa", {"mode": NONDETERMINISTIC}, "GFA is deterministic and blind"),
    ("gfa", {"blind": False}, "GFA is deterministic and blind"),
    ("gfa", {"endmarker": True}, "GFA does not process an end-marker"),
    ("gfa", {"realtime": False}, "GFA is real-time; eps rules are not allowed"),
    ("gfa", {"states": ("q", "p")}, "GFA control is carried by the matrices; use a single state"),
    ("gfa", {"accept_states": ()}, "GFA accepts by its value; its one state must be accepting"),
    ("gfa", lambda spec: {"transitions": spec.transitions * 2},
     "GFA must have exactly one matrix per symbol; 'a' repeats"),
    ("gfa", {"transitions": ()}, "GFA is missing the matrix for symbol 'a'"),
    ("hva", {"gfa_cutpoint": 1}, "final vector / cutpoint are only meaningful for GFA"),
    ("monoid", {"blind": False}, "matrix-monoid machines are blind by definition"),
    ("monoid", {"mode": DETERMINISTIC},
     "matrix-monoid machines are nondeterministic by definition"),
    ("fam", {"dimension": 2}, "multiplicative-register machines are one-dimensional"),
    ("hva", first_rule(source="p"), "transition #0 (p,a): unknown source state"),
    ("hva", first_rule(target="p"), "transition #0 (q,a): unknown target state"),
    ("hva", first_rule(input="eps"), "transition #0 (q,eps): eps rule in a real-time machine"),
    ("gfa", lambda spec: {"transitions": spec.transitions + (
        TransitionRule("q", "eps", STATUS_ANY, "q", Matrix.identity(1)),)},
     "transition #1 (q,eps): eps rule in a GFA"),
    ("hva", first_rule(input="$"),
     "transition #0 (q,$): end-marker rule but endmarker flag is off"),
    ("hva", first_rule(input="c"), "transition #0 (q,c): symbol 'c' not in alphabet"),
    ("hva", first_rule(status="?"), "transition #0 (q,a): malformed status '?'"),
    ("counter", first_rule(status=("=", "=")), "transition #0 (q1,a): malformed status ('=', '=')"),
    ("hva", first_rule(status=STATUS_EQ),
     "transition #0 (q,a): blind machine must use the wildcard status"),
    ("counter", first_rule(effect=(1, 0)),
     "transition #0 (q1,a): counter update must have one entry per counter"),
    ("counter", first_rule(effect=(2,)),
     "transition #0 (q1,a): counter updates must lie in {-1,0,1}"),
    ("hva", first_rule(effect=(1,)), "transition #0 (q,a): effect must be a matrix"),
    ("hva", first_rule(effect=Matrix.identity(2)),
     "transition #0 (q,a): effect is 2x2, expected 1x1"),
    ("fam", first_rule(effect=Matrix.from_rows([[-2]])),
     "transition #0 (q,a): multiplicative register updates must be positive"),
    ("monoid", first_rule(effect=Matrix.from_rows(
        [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])),
     "transition #0 (q,a): effect is not of the form I tensor M"),
    ("hva", lambda spec: {"transitions": spec.transitions * 2},
     "deterministic conflict: transitions #0 and #2 both apply in (q,a)"),
]


class TestValidate:
    def test_powr_is_clean(self, powr):
        assert validate(powr) == []

    @pytest.mark.parametrize("name", sorted(VALID))
    def test_every_base_machine_is_valid(self, name):
        assert validate(VALID[name]()) == []

    @pytest.mark.parametrize("name,changes,message", DIAGNOSTICS,
                             ids=[message for _, _, message in DIAGNOSTICS])
    def test_each_diagnostic(self, name, changes, message):
        spec = VALID[name]()
        if callable(changes):
            changes = changes(spec)
        assert message in validate(replace(spec, **changes))

    def test_deterministic_conflict(self):
        spec = hva1([scalar_rule("a", 2), scalar_rule("a", 3)])
        assert any("deterministic conflict" in d for d in validate(spec))

    def test_fam_positivity(self):
        spec = MachineSpec(
            kind="FAM",
            mode=DETERMINISTIC,
            blind=True,
            endmarker=False,
            realtime=True,
            alphabet=("a",),
            states=("q",),
            initial_state="q",
            accept_states=frozenset({"q"}),
            dimension=1,
            initial_vector=RowVector([1]),
            transitions=(scalar_rule("a", -2),),
        )
        assert any("positive" in d for d in validate(spec))

    def test_blind_requires_wildcard(self):
        spec = hva1([scalar_rule("a", 2, STATUS_EQ), scalar_rule("b", 2)])
        assert any("wildcard" in d for d in validate(spec))

    def test_eps_rule_needs_one_way_flag(self):
        spec = hva1(
            [TransitionRule("q", "eps", STATUS_ANY, "q", Matrix.identity(1))],
            mode=NONDETERMINISTIC,
        )
        assert any("eps" in d for d in validate(spec))

    def test_counter_update_range(self):
        spec = MachineSpec(
            kind=COUNTER_MACHINE,
            mode=DETERMINISTIC,
            blind=True,
            endmarker=False,
            realtime=True,
            alphabet=("a",),
            states=("q",),
            initial_state="q",
            accept_states=frozenset({"q"}),
            dimension=1,
            initial_vector=(0,),
            transitions=(TransitionRule("q", "a", STATUS_ANY, "q", (2,)),),
        )
        assert any("{-1,0,1}" in d for d in validate(spec))

    def test_endmarker_rule_without_flag(self):
        spec = hva1([scalar_rule("$", 1)])
        assert any("end-marker" in d for d in validate(spec))


class TestStatus:
    def test_hva_status_tracks_initial_vector(self):
        spec = example("eq")
        status, _ = spec.register_tests
        assert status(spec.initial_vector) == STATUS_EQ
        assert status(RowVector([2])) == STATUS_NE

    def test_va_status_checks_first_entry(self):
        status, _ = example("unary_point", 0).register_tests
        assert status(RowVector([1])) == STATUS_EQ
        assert status(RowVector([3])) == STATUS_NE

    def test_counter_status_is_componentwise(self):
        spec = MachineSpec(
            kind=COUNTER_MACHINE,
            mode=DETERMINISTIC,
            blind=True,
            endmarker=False,
            realtime=True,
            alphabet=("a",),
            states=("q",),
            initial_state="q",
            accept_states=frozenset({"q"}),
            dimension=2,
            initial_vector=(0, 0),
            transitions=(TransitionRule("q", "a", STATUS_ANY, "q", (0, 1)),),
        )
        status, _ = spec.register_tests
        assert status((0, 5)) == (STATUS_EQ, STATUS_NE)

    def test_gfa_home_is_the_cutpoint(self):
        # value = register times final vector; cutpoint 8 with f = (1)
        status, accepting = one_state_gfa().register_tests
        assert accepting(RowVector([8]))
        assert not accepting(RowVector([4]))
        assert status(RowVector([8])) == STATUS_EQ
        assert status(RowVector([1])) == STATUS_NE


class TestNonBlindCounterMachine:
    def test_validates(self):
        assert validate(counter_ab_endmarker()) == []

    def test_accepts_in_an_accept_state_whatever_the_counters(self):
        status, accepting = counter_ab_endmarker().register_tests
        assert accepting((0,)) and accepting((3,))
        assert status((3,)) == (STATUS_NE,)


class TestDeterministicRuns:
    def test_powr_first_letter(self, powr):
        succ = run_nondeterministic(powr, "a").trace[1]
        assert succ.state == "q1"
        assert succ.register == RowVector([2, 1])
        assert succ.position == 1

    def test_powr_accepts_with_full_trace(self, powr):
        result = run_deterministic(powr, "aab")
        assert result.verdict == ACCEPT
        assert result.last == ("q3", RowVector([1, 1]), 4)
        trace = run_nondeterministic(powr, "aab").trace
        assert len(trace) == 5  # aab$ plus the start configuration
        assert trace[-1] == result.last

    def test_powr_rejects_ab(self, powr):
        result = run_deterministic(powr, "ab")
        assert result.verdict == REJECT
        assert result.last.register == RowVector([0, 0])

    def test_eq_accepts_empty(self):
        assert run_deterministic(example("eq"), "").verdict == ACCEPT

    def test_dead_path_truncates_trace(self, powr):
        result = run_deterministic(powr, "aba")
        assert result.verdict == REJECT
        assert result.last.position == 2  # died before the third letter
        assert len(run_nondeterministic(powr, "aba").trace) == 3

    def test_spec_pickles_after_a_run(self, powr):
        # the cached transition function stays out of the pickle
        assert accepts(powr, "aab")
        again = pickle.loads(pickle.dumps(powr))
        assert again == powr
        assert accepts(again, "aab")

    def test_accepts_builds_no_per_letter_configuration(self, powr, monkeypatch):
        built = []

        def counting(*fields):
            built.append(fields)
            return Configuration(*fields)

        monkeypatch.setattr(machines, "Configuration", counting)
        assert accepts(powr, "a" * 16 + "b" * 4)
        assert len(built) <= 1

    def test_conflicting_spec_is_reported(self):
        spec = hva1([scalar_rule("a", 2), scalar_rule("a", 3)])
        with pytest.raises(InconsistentSpecError):
            run_deterministic(spec, "a")


class TestNondeterministicRuns:
    def test_leq_accepts_ab(self, leq):
        result = run_nondeterministic(leq, "ab")
        assert result.verdict == ACCEPT
        assert result.accepting_path is not None

    def test_leq_rejects_a(self, leq):
        assert run_nondeterministic(leq, "a").verdict == REJECT

    def test_accepting_path_replays(self, leq):
        result = run_nondeterministic(leq, "abb")
        register = leq.initial_vector
        word = []
        for idx in result.accepting_path:
            rule = leq.transitions[idx]
            register = register.scale(rule.effect.entry(0, 0))
            word.append(rule.input)
        assert "".join(word) == "abb"
        assert register == leq.initial_vector

    def test_nondeterministic_fanout(self, leq):
        # "b" fans out to both b-rules: "b" is accepted only through the
        # one that keeps the register, "ab" only through the one halving it
        multipliers = {
            leq.transitions[run_nondeterministic(leq, w).accepting_path[-1]].effect.entry(0, 0)
            for w in ("b", "ab")
        }
        assert multipliers == {Fraction(1, 2), Fraction(1)}

    @pytest.mark.parametrize(
        "seed", [None, *range(8)], ids=lambda s: "pow_r" if s is None else f"random_dva{s}"
    )
    def test_agrees_with_deterministic_runner(self, powr, seed):
        # seeded random DVAs mix wildcard rules with rules split by status;
        # length 6 reaches pow_r's member aaaabb
        # the search's trace ends where the deterministic run ends, with
        # one configuration per processed letter plus the start
        spec = powr if seed is None else random_dva(random.Random(7000 + seed))
        for word in all_strings(spec.alphabet, 6):
            search = run_nondeterministic(spec, word)
            run = run_deterministic(spec, word)
            assert search.verdict == run.verdict
            assert search.trace[-1] == run.last
            assert len(search.trace) == run.last.position + 1

    def test_growing_eps_loop_exceeds_budget(self):
        grow = embed_monoid_effect(Matrix.from_rows([[1, 1], [0, 1]]))
        spec = MachineSpec(
            kind=EXTENDED_FA,
            mode=NONDETERMINISTIC,
            blind=True,
            endmarker=False,
            realtime=False,
            alphabet=("a",),
            states=("q",),
            initial_state="q",
            accept_states=frozenset({"q"}),
            dimension=2,
            initial_vector=flattened_identity(2),
            transitions=(TransitionRule("q", "eps", STATUS_ANY, "q", grow),),
        )
        assert run_nondeterministic(spec, "a").verdict == BUDGET_EXCEEDED
        with pytest.raises(UndecidedError):
            accepts(spec, "a")

    def test_repeating_eps_loop_is_rejected_honestly(self):
        # identical register values are deduplicated, so the search ends
        spec = MachineSpec(
            kind=EXTENDED_FA,
            mode=NONDETERMINISTIC,
            blind=True,
            endmarker=False,
            realtime=False,
            alphabet=("a",),
            states=("q",),
            initial_state="q",
            accept_states=frozenset({"q"}),
            dimension=2,
            initial_vector=flattened_identity(2),
            transitions=(
                TransitionRule("q", "eps", STATUS_ANY, "q", embed_monoid_effect(Matrix.identity(2))),
            ),
        )
        assert run_nondeterministic(spec, "a").verdict == REJECT

    @pytest.mark.parametrize("cap", [6, 7])
    def test_cap_on_moveless_configurations_is_no_budget_exceeded(self, cap):
        # ×2 or ×3 per letter: "aaa" has 1 + 2 + 3 + 4 = 10 configurations,
        # and the first 6 are all that have a move; the cap then reaches
        # only end configurations, so the whole space was searched
        spec = hva1([scalar_rule("a", 2), scalar_rule("a", 3)], mode=NONDETERMINISTIC,
                    alphabet=("a",))
        budget = SearchBudget(max_configurations=cap)
        assert run_nondeterministic(spec, "aaa", budget).verdict == REJECT
        assert run_nondeterministic(spec, "aaaa", budget).verdict == BUDGET_EXCEEDED

    def test_total_configuration_cap(self, leq):
        tight = SearchBudget(max_configurations=1)
        assert run_nondeterministic(leq, "ab", tight).verdict in (ACCEPT, BUDGET_EXCEEDED)


def one_state_gfa(multiplier=2, cutpoint=8):
    return MachineSpec(
        kind=GFA,
        mode=DETERMINISTIC,
        blind=True,
        endmarker=False,
        realtime=True,
        alphabet=("a",),
        states=("q",),
        initial_state="q",
        accept_states=frozenset({"q"}),
        dimension=1,
        initial_vector=RowVector([1]),
        transitions=(scalar_rule("a", multiplier),),
        gfa_final_vector=RowVector([1]),
        gfa_cutpoint=Fraction(cutpoint),
    )


class TestGfa:
    def test_empty_word_value(self):
        assert gfa_value(one_state_gfa(), "") == 1

    def test_doubling_value(self):
        assert gfa_value(one_state_gfa(), "aaa") == 8

    def test_cutpoint_membership(self):
        spec = one_state_gfa()
        assert accepts(spec, "aaa")
        assert not accepts(spec, "aa")

    def test_incremental_matches_closed_form(self):
        spec = one_state_gfa()
        matrices = {r.input: r.effect for r in spec.transitions}
        from vecauto.exact import vec_mat_mul

        v = spec.initial_vector
        for i, sym in enumerate("aaaa", start=1):
            v = vec_mat_mul(v, matrices[sym])
            value = sum(x * f for x, f in zip(v, spec.gfa_final_vector))
            assert value == gfa_value(spec, "a" * i)

    def test_value_needs_gfa(self, powr):
        with pytest.raises(UnsupportedKindError):
            gfa_value(powr, "a")

    def test_value_refuses_a_foreign_symbol(self):
        with pytest.raises(AlphabetError):
            gfa_value(one_state_gfa(), "ab")

    def test_two_state_gfa_separates_strings(self):
        # the first column of a distinguisher's end-marker matrix serves
        # as the final vector, so two matrix rows suffice to tell apart
        # any two digit strings at cutpoint 1
        from vecauto.builders import binary_distinguisher

        source = binary_distinguisher("121")
        matrices = {r.input: r.effect for r in source.transitions}
        final = RowVector([matrices["$"].entry(i, 0) for i in range(2)])
        gfa = MachineSpec(
            kind=GFA,
            mode=DETERMINISTIC,
            blind=True,
            endmarker=False,
            realtime=True,
            alphabet=("1", "2"),
            states=("q",),
            initial_state="q",
            accept_states=frozenset({"q"}),
            dimension=2,
            initial_vector=source.initial_vector,
            transitions=tuple(
                r for r in source.transitions if r.input != "$"
            ),
            gfa_final_vector=final,
            gfa_cutpoint=Fraction(1),
        )
        assert validate(gfa) == []
        assert accepts(gfa, "121")
        for other in ["", "1", "12", "211", "1211", "222"]:
            assert not accepts(gfa, other)


class TestMonoidMachines:
    def test_one_dimensional_embed_keeps_multipliers(self):
        spec = MachineSpec(
            kind=EXTENDED_FA,
            mode=NONDETERMINISTIC,
            blind=True,
            endmarker=False,
            realtime=True,
            alphabet=("a",),
            states=("q",),
            initial_state="q",
            accept_states=frozenset({"q"}),
            dimension=1,
            initial_vector=flattened_identity(1),
            transitions=(scalar_rule("a", Fraction(1, 2)),),
        )
        embedded = extendedfa_embed(spec)
        assert embedded.kind == HVA
        assert embedded.dimension == 1
        assert embedded.transitions == spec.transitions

    def test_embed_effect_is_identity_tensor(self):
        m = Matrix.from_rows([[0, 1], [1, 0]])
        assert embed_monoid_effect(m) == Matrix.from_rows([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_validate_rejects_effects_not_of_identity_tensor_form(self, data):
        k = data.draw(st.integers(1, 3), label="k")
        entries = data.draw(st.lists(st.integers(-3, 3), min_size=k * k, max_size=k * k))
        effect = embed_monoid_effect(Matrix(k, k, entries))

        def diagnostics(eff):
            return validate(stateless(EXTENDED_FA, ("a",), k, flattened_identity(k),
                                      [("a", eff)], mode=NONDETERMINISTIC))

        def changed(row, col):
            rows = [list(effect.row(i)) for i in range(effect.rows)]
            rows[row][col] += data.draw(st.sampled_from([-2, -1, 1, 2]), label="delta")
            return Matrix.from_rows(rows)

        assert diagnostics(effect) == []
        if k == 1:
            return  # the only block is the top-left one, which defines M
        n = k * k
        off = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                        .filter(lambda rc: rc[0] // k != rc[1] // k), label="off-block entry")
        block = data.draw(st.integers(1, k - 1), label="later diagonal block")
        i, j = data.draw(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), label="in block")
        for eff in (changed(*off), changed(block * k + i, block * k + j)):
            assert diagnostics(eff) == ["transition #0 (q,a): effect is not of the form I tensor M"]

    def test_embed_needs_monoid_machine(self, powr):
        with pytest.raises(UnsupportedKindError):
            extendedfa_embed(powr)

    def test_shear_machine_matches_embedding(self):
        from vecauto.langlab import equivalent_up_to

        up = embed_monoid_effect(Matrix.from_rows([[1, 1], [0, 1]]))
        down = embed_monoid_effect(Matrix.from_rows([[1, -1], [0, 1]]))
        spec = MachineSpec(
            kind=EXTENDED_FA,
            mode=NONDETERMINISTIC,
            blind=True,
            endmarker=False,
            realtime=True,
            alphabet=("a", "b"),
            states=("q",),
            initial_state="q",
            accept_states=frozenset({"q"}),
            dimension=2,
            initial_vector=flattened_identity(2),
            transitions=(
                TransitionRule("q", "a", STATUS_ANY, "q", up),
                TransitionRule("q", "b", STATUS_ANY, "q", down),
            ),
        )
        assert validate(spec) == []
        assert equivalent_up_to(spec, extendedfa_embed(spec), 8).equal


class TestBlindnessInvariant:
    def test_status_fields_never_matter_for_blind_machines(self, powr):
        # replacing every status by the wildcard leaves runs unchanged
        assert all(r.status == STATUS_ANY for r in powr.transitions)
        for word in ["", "a", "aab", "ab", "ba"]:
            assert accepts(powr, word) == run_deterministic(powr, word).accepted


class TestDyckNonBlind:
    def test_dyck_uses_the_register_status(self):
        dyck = example("dyck")
        assert accepts(dyck, "()")
        assert accepts(dyck, "(())()")
        assert not accepts(dyck, ")(")
        assert not accepts(dyck, "(()")

    def test_closing_at_start_value_poisons_the_register(self):
        dyck = example("dyck")
        trace = run_nondeterministic(dyck, ")(").trace
        assert trace[1].register == RowVector([0])
        assert trace[2].register == RowVector([0])
