"""The memoized step (`MachineSpec.successors`) against the rules
evaluated directly: narrow registers from the memo, wide ones rebuilt,
status rules fired and blocked, and the memo a monoid machine shares
with its embedding. `test_walk` collects these tests."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machine_gen import (
    blind_counter_ab,
    extendedfa_a_endmarker,
    random_dva,
    random_extendedfa,
    random_system,
)
from vecauto.builders import example
from vecauto.diophantine import famw_from_system
from vecauto.exact import WORD_BITS
from vecauto.langlab import all_strings
from vecauto.machines import ENDMARKER, EPSILON, STATUS_ANY, extendedfa_embed, run_nondeterministic
from vecauto.transforms import counters_to_integer_hva3
from walk_oracles import EPS_MACHINES, GENERATORS, MACHINES, REFERENCE_BUDGETS, direct_successors


def assert_steps_are_the_rules(spec, depth=6, width=40):
    """Steps every configuration of the trie of registers reached up to
    `depth` letters (at most `width` per level) by each letter, the
    end-marker and eps, twice, so that the second ask is a memo hit. Returns
    the (fired, blocked) counts of status-dependent rules."""
    letters = spec.alphabet + (EPSILON, ENDMARKER)
    dependent = [0, 0]
    level = [(spec.initial_state, spec.initial_vector)]
    for _ in range(depth + 1):
        following = {}
        for state, register in level:
            for letter in letters:
                expected, status = direct_successors(spec, state, letter, register)
                for _ in range(2):
                    assert spec.successors(state, letter, register) == expected
                for idx, rule in enumerate(spec.transitions):
                    if (rule.source, rule.input) == (state, letter) and rule.status != STATUS_ANY:
                        dependent[rule.status != status] += 1
                for _, target, updated in expected:
                    following.setdefault((target, updated))
        level = list(following)[:width]
    return dependent


STEP_GENERATORS = {**GENERATORS,
                   "famw": lambda rng: famw_from_system(random_system(rng))}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_memoized_steps_are_the_rules(data):
    source = data.draw(st.sampled_from(["generated", "catalog", "eps"]))
    if source == "generated":
        spec = STEP_GENERATORS[data.draw(st.sampled_from(sorted(STEP_GENERATORS)))](
            random.Random(data.draw(st.integers(0, 2**32 - 1))))
    else:
        machines_of = MACHINES if source == "catalog" else EPS_MACHINES
        spec = machines_of[data.draw(st.sampled_from(sorted(machines_of)))]()
    assert_steps_are_the_rules(spec)


@pytest.mark.parametrize("name", ["dyck", "counter_ab_endmarker", "random_dva"])
def test_status_dependent_steps_fire_and_block_as_the_rules(name):
    if name == "random_dva":
        spec = next(s for s in map(random_dva, map(random.Random, range(50)))
                    if any(r.status != STATUS_ANY for r in s.transitions))
    else:
        spec = MACHINES[name]()
    fired, blocked = assert_steps_are_the_rules(spec)
    assert fired and blocked


def wide_steps_along(spec, word, width=8):
    """Steps the configurations reached along `word` (at most `width` per
    position) by its letters, twice each, against the rules. A register
    wider than WORD_BITS is not memoized, so its second step is rebuilt:
    equal, not identical; a narrow one's second step is the memo's tuple.
    Returns the numbers of (wide, narrow) steps."""
    counts = [0, 0]
    level = [(spec.initial_state, spec.initial_vector)]
    for letter in word:
        following = {}
        for state, register in level:
            expected, _ = direct_successors(spec, state, letter, register)
            first, second = spec.successors(state, letter, register), spec.successors(
                state, letter, register)
            assert first == second == expected
            wide = register.bits > WORD_BITS
            counts[not wide] += 1
            if expected:
                assert (first is second) != wide
            for _, target, updated in expected:
                following.setdefault((target, updated))
        level = list(following)[:width]
    return counts


def wide_random_dva():
    # the first random machine whose run on its 100 random letters passes
    # WORD_BITS
    for seed in range(50):
        rng = random.Random(seed)
        spec, word = random_dva(rng), "".join(rng.choice("ab") for _ in range(100))
        if wide_steps_along(spec, word)[0]:
            return spec, word


@pytest.mark.parametrize("name", ["eq", "blind_counter_ab_hva3", "random_dva"])
def test_wide_registers_step_as_the_rules_without_the_memo(name):
    if name == "eq":
        spec, word = example("eq"), "a" * 80
    elif name == "blind_counter_ab_hva3":
        spec, word = counters_to_integer_hva3(blind_counter_ab())[0], "a" * 50 + "b" * 50
    else:
        spec, word = wide_random_dva()
    wide, narrow = wide_steps_along(spec, word)
    assert wide and narrow


def test_an_embedding_shares_its_source_step():
    spec = extendedfa_a_endmarker()
    embedded = extendedfa_embed(spec)
    assert embedded.successors is spec.successors
    derived = replace(embedded, accept_states=embedded.accept_states)
    assert derived == embedded and derived.successors is not spec.successors


@settings(max_examples=60, deadline=None)
@given(seed=st.none() | st.integers(0, 2**32 - 1), budget=st.sampled_from(REFERENCE_BUDGETS),
       source_first=st.booleans())
def test_an_embedding_runs_as_its_source(seed, budget, source_first):
    # the source and the embedding share one memo, filled by whichever
    # runs first; a copy by `replace` steps from its own
    spec = extendedfa_a_endmarker() if seed is None else random_extendedfa(random.Random(seed))
    embedded = extendedfa_embed(spec)
    own = replace(embedded, accept_states=embedded.accept_states)
    order = (spec, embedded, own) if source_first else (embedded, spec, own)
    for w in all_strings(spec.alphabet, 5 if len(spec.alphabet) == 1 else 4):
        runs = {(run.verdict, run.trace, run.accepting_path)
                for run in (run_nondeterministic(m, w, budget) for m in order)}
        assert len(runs) == 1, w
