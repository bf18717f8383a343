"""The end test (`MachineSpec.end_test`), which judges a word's last
configuration from the end-marker rules, against the end-marker step it
replaces; and a `$` inside a word, which is a letter without a rule.
`test_walk` collects these tests."""

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from machine_gen import (
    blind_counter_a_endmarker,
    counter_ab_endmarker,
    extendedfa_a_endmarker,
    random_dva,
    random_matrix,
    random_nbhva_endmarker,
    random_system,
)
from vecauto.builders import binary_distinguisher, example, finite_language_va, hva_distinguisher
from vecauto.diophantine import famw_from_system
from vecauto.exact import WORD_BITS, Matrix
from vecauto.machines import (
    DETERMINISTIC,
    ENDMARKER,
    EPSILON,
    NONDETERMINISTIC,
    STATUS_ANY,
    STATUS_EQ,
    STATUS_NE,
    SearchBudget,
    TransitionRule,
    accepts,
    run_deterministic,
    run_nondeterministic,
    validate,
)
from vecauto.transforms import (
    attach_trivial_endmarker,
    rationals_to_integers,
    remove_endmarker,
    scale_initial_vector,
)
from walk_oracles import (
    WIDE,
    nonzero_initial_vector,
    split_endmarker_dva,
    status_cycle_machine,
    verdict_or_undecided,
    wide_nbhva,
)


def wide_dva(rng):
    spec = nonzero_initial_vector(split_endmarker_dva, rng)
    return replace(spec, initial_vector=spec.initial_vector.scale(WIDE))


def fam_endmarker(rng):
    """A `famw_from_system` FAM given an end-marker that divides by its
    first letter's factor; nondeterministic, it may also keep the register."""
    fam = famw_from_system(random_system(rng))
    factor = fam.transitions[0].effect.entry(0, 0)
    marker = [Matrix.from_rows([[1 / factor]])]
    if rng.random() < 0.5:
        marker.append(Matrix.identity(1))
    return replace(fam, mode=NONDETERMINISTIC if len(marker) > 1 else DETERMINISTIC,
                   endmarker=True, transitions=fam.transitions + tuple(
                       TransitionRule("q", ENDMARKER, STATUS_ANY, "q", m) for m in marker))


def nonblind_hva_endmarker(rng):
    """A `random_nbhva_endmarker` whose end-marker rules fire only at home,
    each next to a random rule for a register away from home."""
    spec = random_nbhva_endmarker(rng)
    rules = []
    for r in spec.transitions:
        if r.input != ENDMARKER:
            rules.append(r)
            continue
        rules.append(replace(r, status=STATUS_EQ))
        rules.append(TransitionRule(r.source, ENDMARKER, STATUS_NE, rng.choice(spec.states),
                                    random_matrix(rng, spec.dimension)))
    return replace(spec, blind=False, transitions=tuple(rules))


def trivially_marked(rng):
    plain = rng.choice([remove_endmarker(random_nbhva_endmarker(rng))[0],
                        hva_distinguisher(rng.choice(["1", "21", "212"])),
                        status_cycle_machine()])
    return attach_trivial_endmarker(plain)[0]


END_MACHINES = {
    "random_dva": split_endmarker_dva,
    "random_nbhva_endmarker": random_nbhva_endmarker,
    "rationals_to_integers": lambda rng: rationals_to_integers(random_nbhva_endmarker(rng))[0],
    "attach_trivial_endmarker": trivially_marked,
    "scale_initial_vector": lambda rng: scale_initial_vector(
        random_nbhva_endmarker(rng), rng.choice([Fraction(-2, 3), 3, Fraction(1, 6)]))[0],
    "blind_counter_a_endmarker": lambda rng: blind_counter_a_endmarker(),
    "counter_ab_endmarker": lambda rng: counter_ab_endmarker(),
    "extendedfa_a_endmarker": lambda rng: extendedfa_a_endmarker(),
    "pow_r": lambda rng: example("pow_r"),
    "finite_language_va": lambda rng: finite_language_va(
        rng.sample(["1", "2", "12", "22", "211"], rng.randint(1, 3))),
    "binary_distinguisher": lambda rng: binary_distinguisher(rng.choice(["1", "21", "212"])),
    "hva_distinguisher": lambda rng: hva_distinguisher(rng.choice(["1", "21", "212"])),
    "fam_endmarker": fam_endmarker,
    "nonblind_hva_endmarker": nonblind_hva_endmarker,
    "wide_dva": wide_dva,
    "wide_nbhva": wide_nbhva,
}


def reached_configurations(spec, letters=4, width=40):
    """The configurations reached within `letters` letters, eps moves
    included, from the first `width` reached at each position."""
    reached = {}
    level = [(spec.initial_state, spec.initial_vector)]
    for position in range(letters + 1):
        closed, moving = dict.fromkeys(level), level
        for _ in range(len(spec.states)):  # eps moves, a bounded number
            moving = [(target, register) for state, before in moving
                      for _, target, register in spec.successors(state, EPSILON, before)]
            closed.update(dict.fromkeys(moving))
        reached.update(closed)
        level = list(dict.fromkeys(
            (target, register) for state, before in list(closed)[:width]
            for letter in spec.alphabet
            for _, target, register in spec.successors(state, letter, before)))[:width]
    return list(reached)


def end_by_the_step(spec, state, register):
    """A word ending in (state, register) is accepted: some end-marker move
    that fires, built by `successors`, lands in an accept state at home;
    without an end-marker, the configuration is one."""
    home = spec.register_tests[1]
    if not spec.endmarker:
        return state in spec.accept_states and home(register)
    fired = spec.successors(state, ENDMARKER, register)
    return any(target in spec.accept_states and home(after) for _, target, after in fired)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(END_MACHINES)), seed=st.integers(0, 2**32 - 1))
def test_the_end_test_is_the_end_marker_step(name, seed):
    spec = END_MACHINES[name](random.Random(seed))
    assert validate(spec) == []
    configurations = reached_configurations(spec)
    for state, register in configurations:
        assert spec.end_test(state, register) == end_by_the_step(spec, state, register), (
            state, register)
    if name.startswith("wide"):
        assert any(register.bits > WORD_BITS for _, register in configurations)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(END_MACHINES)), seed=st.integers(0, 2**32 - 1),
       length=st.integers(1, 12), at=st.integers(0, 12))
def test_a_dollar_inside_a_word_is_a_letter_without_a_rule(name, seed, length, at):
    # at the drawn position, and at the last, which `accepts` judges from
    # the frontier before it
    rng = random.Random(seed)
    spec = END_MACHINES[name](rng)
    word = "".join(rng.choice(spec.alphabet) for _ in range(length))
    assert "#" not in spec.alphabet
    for at in (min(at, length - 1), length - 1):
        dollar, foreign = (word[:at] + letter + word[at + 1:] for letter in (ENDMARKER, "#"))
        if spec.mode == DETERMINISTIC:
            runs = [run_deterministic(spec, w) for w in (dollar, foreign)]
        else:
            budget = SearchBudget(max_configurations=500)
            assert (verdict_or_undecided(accepts, spec, dollar, budget)
                    == verdict_or_undecided(accepts, spec, foreign, budget))
            runs = [run_nondeterministic(spec, w, budget) for w in (dollar, foreign)]
        assert runs[0].verdict == runs[1].verdict
        assert runs[0].last == runs[1].last


def test_a_dollar_inside_a_word_reads_no_end_marker_rule():
    assert not accepts(random_dva(random.Random(1)), ENDMARKER)
    assert run_deterministic(example("pow_r"), "a$").last.position == 1
