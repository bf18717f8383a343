"""The one nondeterministic search (`machines.nondeterministic_steps`)
against the breadth-first search it replaced (`bfs_reference`): its
verdicts, traces and accepting paths, its eps cap and fewest-eps dedupe,
and `accepts`, which keeps one frontier, against the traced run, which
keeps them all. `test_walk` collects these tests."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfs_reference import bfs
from vecauto.builders import example
from vecauto.errors import UndecidedError
from vecauto.fileformat import write_machine
from vecauto.langlab import all_strings
from vecauto.machines import (
    ACCEPT,
    BUDGET_EXCEEDED,
    EPSILON,
    NONDETERMINISTIC,
    SearchBudget,
    accepts,
    nondeterministic_steps,
    run_nondeterministic,
    searches,
    validate,
)
from walk_oracles import (
    EPS_MACHINES,
    GENERATORS,
    MACHINES,
    REFERENCE_BUDGETS,
    assert_walk_agrees,
    cli_output,
    eps_chain_machine,
    eps_loop_machine,
    fewest_eps_machine,
    quartering_machine,
    status_cycle_machine,
    two_state_cycle_machine,
    undercut_machine,
)


def test_eps_cap_grows_with_the_word_length():
    # an eps self-loop and a two-state eps cycle; the capped configuration
    # count comes first, as a search that lost its eps cap would expand
    # every configuration the count allows
    for spec in (quartering_machine(), two_state_cycle_machine()):
        for budget in (SearchBudget(max_configurations=500), None):
            seen, undecided = assert_walk_agrees(spec, 4, budget)
            assert seen == [("", True), ("a", True), ("aa", True)] and undecided == "aaa"


def test_a_configuration_keeps_its_fewest_eps_moves():
    seen, undecided = assert_walk_agrees(fewest_eps_machine(), 2, SearchBudget(eps_per_path=1))
    assert ("a", False) in seen  # a clean Reject


def test_an_eps_move_can_undercut_a_letter_move():
    seen, undecided = assert_walk_agrees(undercut_machine(), 2, SearchBudget(eps_per_path=2))
    assert ("a", False) in seen  # a clean Reject


def frontier_after(spec, word, budget):
    """The one search's `Frontier` after the letters of `word`."""
    start, step, _, _, _ = nondeterministic_steps(spec, budget, len(word))
    frontier = start
    for letter in word:
        frontier = step(frontier, letter)
    return frontier


def expanded(spec, word, budget):
    """The configurations the one search expands on `word`."""
    return frontier_after(spec, word, budget).spent


def test_a_cut_search_names_the_limit_that_cut():
    # a search that cut nothing, one that left configurations unexpanded
    # when its budget ran out, and one whose eps path reached the cap
    for spec, word, budget, limit in (
            (example("leq"), "ab", SearchBudget(), None),
            (example("leq"), "abbb", SearchBudget(max_configurations=1), "max_configurations"),
            (eps_chain_machine(), "a", SearchBudget(eps_per_path=1), "eps_per_path")):
        assert (frontier_after(spec, word, budget).pruned or None) == limit, word
        verdict = run_nondeterministic(spec, word, budget).verdict
        assert verdict == (BUDGET_EXCEEDED if limit else ACCEPT), word


def assert_path_replays(spec, trace, path):
    # each configuration is reached from the one before by the rule named
    # in the path: a letter (or end-marker) move or an eps move
    assert trace[0] == (spec.initial_state, spec.initial_vector, 0)
    for before, after, idx in zip(trace, trace[1:], path):
        rule = spec.transitions[idx]
        assert after.position == before.position + (rule.input != EPSILON)
        assert (idx, after.state, after.register) in spec.successors(
            before.state, rule.input, before.register)


def assert_search_as_reference(spec, maxlen, budget):
    real_time = not (spec.epsilon_sources and not spec.realtime)
    for w in all_strings(spec.alphabet, maxlen):
        reference, run = bfs(spec, w, budget), run_nondeterministic(spec, w, budget)
        if run.accepted:
            assert_path_replays(spec, run.trace, run.accepting_path)
        if real_time:
            assert (run.verdict, run.trace, run.accepting_path) == (
                reference.verdict, reference.trace, reference.accepting_path)
        elif run.verdict != reference.verdict:
            # the two orders spend the cap on different configurations:
            # a verdict can become BudgetExceeded, or stop being one, only
            # where a search reached the cap; it never flips
            assert BUDGET_EXCEEDED in (run.verdict, reference.verdict), w
            cap = budget.max_configurations
            assert reference.expanded >= cap or (
                reference.verdict == ACCEPT and expanded(spec, w, budget) >= cap), w


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(REFERENCE_BUDGETS))
def test_the_search_agrees_with_the_breadth_first_reference(data, budget):
    source = data.draw(st.sampled_from(["generated", "catalog", "eps"]))
    if source == "generated":
        spec = GENERATORS[data.draw(st.sampled_from(sorted(GENERATORS)))](
            random.Random(data.draw(st.integers(0, 2**32 - 1))))
    else:
        machines_of = MACHINES if source == "catalog" else EPS_MACHINES
        spec = machines_of[data.draw(st.sampled_from(sorted(machines_of)))]()
    assert_search_as_reference(spec, 5 if len(spec.alphabet) <= 2 else 3, budget)


NONDETERMINISTIC_MACHINES = {
    **{f"{name}_generated": generator for name, generator in GENERATORS.items()
       if generator(random.Random(0)).mode == NONDETERMINISTIC},
    **{name: build for name, build in {**MACHINES, **EPS_MACHINES}.items()
       if build().mode == NONDETERMINISTIC},
}


def nondeterministic_machine(data):
    name = data.draw(st.sampled_from(sorted(NONDETERMINISTIC_MACHINES)))
    build = NONDETERMINISTIC_MACHINES[name]
    if name.endswith("_generated"):
        return build(random.Random(data.draw(st.integers(0, 2**32 - 1))))
    return build()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), budget=st.sampled_from(REFERENCE_BUDGETS))
def test_accepts_is_the_verdict_of_the_traced_search(data, budget):
    # `accepts` keeps one frontier; `run_nondeterministic` keeps them all
    spec = nondeterministic_machine(data)
    for w in all_strings(spec.alphabet, 5 if len(spec.alphabet) <= 2 else 3):
        verdict = run_nondeterministic(spec, w, budget).verdict
        if verdict == BUDGET_EXCEEDED:
            with pytest.raises(UndecidedError):
                accepts(spec, w, budget)
        else:
            assert accepts(spec, w, budget) == (verdict == ACCEPT), w


def test_cli_run_prints_the_traced_verdict(tmp_path):
    # without --trace, `run` reads the verdict from `accepts`: the record
    # is the traced one without its path, with the same exit code
    budgets = ([], ["--budget", "3"], ["--eps-per-path", "0", "--budget", "20"])
    codes = set()
    for name in sorted(NONDETERMINISTIC_MACHINES):
        if name.endswith("_generated"):
            continue
        spec = NONDETERMINISTIC_MACHINES[name]()
        path = tmp_path / f"{name}.mach"
        path.write_text(write_machine(spec))
        for w in all_strings(spec.alphabet, 4 if len(spec.alphabet) <= 2 else 2):
            for budget in budgets:
                argv = ["run", str(path), w] + budget
                code, out = cli_output(argv)
                traced_code, traced = cli_output(argv + ["--trace"])
                traced = json.loads(traced)
                traced.pop("accepting_path", None)
                assert (code, out) == (traced_code, json.dumps(traced) + "\n"), argv
                codes.add(code)
    assert codes == {0, 1, 3}


def test_only_an_eps_cycle_grows_the_cap():
    acyclic = [example("leq"), eps_chain_machine(), fewest_eps_machine(), undercut_machine()]
    cyclic = [eps_loop_machine(), quartering_machine(), two_state_cycle_machine(),
              status_cycle_machine()]
    budgets = [SearchBudget(eps_per_path=0), SearchBudget(eps_per_path=2), SearchBudget()]
    for spec, cycle in [(spec, False) for spec in acyclic] + [(spec, True) for spec in cyclic]:
        assert validate(spec) == []
        for budget in budgets:
            grows = budget.eps_cap(spec, 0) != budget.eps_cap(spec, 1)
            assert grows == (cycle and budget.eps_per_path is None)
            # where it grows, the walk's node is the word (`machines.by_word`)
            assert (searches(spec, budget)[1] is str.__add__) == grows
    assert example("leq").realtime
    # the default cap, |states| * (|w| + 2), is left out where it cannot
    # bind; `eps_per_path` holds on every machine
    for spec, default in ((eps_chain_machine(), math.inf), (example("leq"), math.inf),
                          (two_state_cycle_machine(), 2 * (3 + 2))):
        assert SearchBudget().eps_cap(spec, 3) == default
        assert SearchBudget(eps_per_path=1).eps_cap(spec, 3) == 1
