"""The `last_run` slot: a traced run steps only past the prefix it
shares with the machine's last run (a monoid machine and its embedding
share one slot), every run equals a cold run, under threads too, and
no later run changes a run's trace or stats. `test_walk` collects these
tests."""

import random
import sys
import threading
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machine_gen import extendedfa_a_endmarker, random_extendedfa, random_nbhva_endmarker
from vecauto import machines
from vecauto.builders import example
from vecauto.langlab import all_strings
from vecauto.machines import SearchBudget, extendedfa_embed, run_nondeterministic
from walk_oracles import EPS_MACHINES, GENERATORS, MACHINES, eps_loop_machine


SLOT_BUDGETS = [SearchBudget(eps, configs) for configs in (3, 20, 500) for eps in (None, 0, 2)]


def slot_machines(data):
    """Machines to interleave runs on: one machine, or a monoid machine, its
    embedding (which shares its slot) and a `replace` copy of the embedding
    (which has its own)."""
    source = data.draw(st.sampled_from(["generated", "monoid", "catalog", "eps"]))
    if source == "monoid":
        seed = data.draw(st.none() | st.integers(0, 2**32 - 1))
        spec = extendedfa_a_endmarker() if seed is None else random_extendedfa(random.Random(seed))
        embedded = extendedfa_embed(spec)
        return [spec, embedded, replace(embedded)]
    if source == "generated":
        return [GENERATORS[data.draw(st.sampled_from(sorted(GENERATORS)))](
            random.Random(data.draw(st.integers(0, 2**32 - 1))))]
    machines_of = MACHINES if source == "catalog" else EPS_MACHINES
    return [machines_of[data.draw(st.sampled_from(sorted(machines_of)))]()]


def traced(run):
    return run.verdict, run.last, run.trace, run.accepting_path, run.stats


def assert_runs_are_cold_runs(order):
    """Each ``(machine, word, budget)`` run of `order`, in turn, equals a
    run on a fresh copy, and no later run, on its machine or on one that
    shares its slot, changes an earlier run's trace or stats."""
    earlier = []
    for spec, word, budget in order:
        run = run_nondeterministic(spec, word, budget)
        assert traced(run) == traced(run_nondeterministic(replace(spec), word, budget)), (
            word, budget)
        earlier.append((run, traced(run)))
    assert all(traced(run) == seen for run, seen in earlier)


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       budgets=st.lists(st.sampled_from(SLOT_BUDGETS), min_size=2, max_size=2, unique=True))
def test_a_run_from_the_last_runs_frontiers_is_a_cold_run(data, budgets):
    # runs of mixed lengths, repeated words and two budgets, interleaved
    # over the machines that share a slot; budgets of at most 500
    # configurations keep each draw small
    machines_to_run = slot_machines(data)
    alphabet = machines_to_run[0].alphabet
    words = data.draw(st.lists(st.sampled_from(list(all_strings(
        alphabet, 5 if len(alphabet) <= 2 else 3))), min_size=1, max_size=6))
    assert_runs_are_cold_runs(data.draw(st.lists(st.tuples(
        st.sampled_from(machines_to_run), st.sampled_from(words), st.sampled_from(budgets)),
        max_size=25)))


@pytest.mark.parametrize("name", sorted(EPS_MACHINES) + ["leq", "extendedfa_a_endmarker"])
def test_runs_up_and_down_the_lengths_are_cold_runs(name):
    # the words in length-lex order and back, under one budget and then
    # another: the eps cap of an eps cycle changes with the length, and a
    # budget with the same cap can expand fewer configurations
    spec = {**MACHINES, **EPS_MACHINES}[name]()
    words = list(all_strings(spec.alphabet, 4 if len(spec.alphabet) <= 2 else 2))
    for budgets in ((SearchBudget(None, 20), SearchBudget(None, 500)),
                    (SearchBudget(2, 500), SearchBudget(None, 500))):
        for ordered in (words, words[::-1]):
            assert_runs_are_cold_runs([(spec, w, budget) for budget in budgets for w in ordered])


def counted_letter_steps(monkeypatch):
    """The letters stepped by every search built from here on."""
    stepped = []
    build = machines.nondeterministic_steps

    def counting(*args):
        start, step, *judgments = build(*args)

        def counted(frontier, letter):
            stepped.append(letter)
            return step(frontier, letter)
        return start, counted, *judgments

    monkeypatch.setattr(machines, "nondeterministic_steps", counting)
    return stepped


def test_the_words_of_one_length_step_each_prefix_once(monkeypatch):
    # in lex order a word steps only the letters after the prefix it
    # shares with the word before, so a fresh machine steps each of the
    # 2 + 4 + ... + 2^n = 2^(n+1) - 2 nonempty prefixes of length n words once
    stepped = counted_letter_steps(monkeypatch)
    makers = [(partial(example, "leq"), None),
              (eps_loop_machine, SearchBudget(max_configurations=500)),
              (lambda: random_extendedfa(random.Random(0)), SearchBudget(max_configurations=500))]
    for make, budget in makers:
        for n in range(6):
            spec, words = make(), [w for w in all_strings(("a", "b"), n) if len(w) == n]
            assert spec.alphabet == ("a", "b")
            stepped.clear()
            runs = [run_nondeterministic(spec, w, budget) for w in words]
            assert len(stepped) == 2 ** (n + 1) - 2, n
            assert [traced(run) for run in runs] == [
                traced(run_nondeterministic(replace(spec), w, budget)) for w in words]


def test_an_eps_acyclic_machine_steps_only_past_its_last_word_at_any_length(monkeypatch):
    # its eps cap cannot bind, so one slot key serves every length: a
    # word two letters longer than the last steps those two letters
    stepped = counted_letter_steps(monkeypatch)
    spec = random_nbhva_endmarker(random.Random(5))
    assert not spec.realtime and not spec.epsilon_cycle
    word = "abbaab"
    run_nondeterministic(spec, word)
    assert len(stepped) == len(word)
    stepped.clear()
    longer = run_nondeterministic(spec, word + "ba")
    assert stepped == ["b", "a"]
    assert traced(longer) == traced(run_nondeterministic(replace(spec), word + "ba"))


def test_an_embedding_steps_no_letter_of_the_word_its_source_just_ran(monkeypatch):
    stepped = counted_letter_steps(monkeypatch)
    for spec in (extendedfa_a_endmarker(), random_extendedfa(random.Random(10))):
        embedded = extendedfa_embed(spec)
        assert embedded.last_run is spec.last_run
        for budget in (SearchBudget(max_configurations=500), SearchBudget(eps_per_path=2)):
            for w in all_strings(spec.alphabet, 4):
                source_run = run_nondeterministic(spec, w, budget)
                stepped.clear()
                assert traced(run_nondeterministic(embedded, w, budget)) == traced(source_run)
                assert stepped == [], w
                # a copy by `replace` has a slot of its own, cold
                assert traced(run_nondeterministic(replace(embedded), w, budget)) == traced(
                    source_run)
                assert len(stepped) == len(w)


def test_threads_sharing_a_slot_get_cold_runs():
    # six threads run random words under two budgets on a monoid machine
    # and its embedding, which share one slot, switching as often as the
    # interpreter allows: a run may evict another's entry, never change
    # its result
    spec = random_extendedfa(random.Random(10))
    embedded = extendedfa_embed(spec)
    work = [(machine, w, budget) for machine in (spec, embedded)
            for w in all_strings(spec.alphabet, 5)
            for budget in (SearchBudget(None, 20), SearchBudget(None, 500))]
    expected = {(machine.kind, w, budget): traced(run_nondeterministic(replace(machine), w, budget))
                for machine, w, budget in work}
    start = threading.Barrier(6, timeout=60)
    wrong = []

    def runner(seed):
        try:
            start.wait()
            for machine, w, budget in random.Random(seed).choices(work, k=3 * len(work)):
                if traced(run_nondeterministic(machine, w, budget)) != expected[
                        machine.kind, w, budget]:
                    wrong.append((machine.kind, w, budget))
        except Exception as exc:  # raised in a thread, it would only warn
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=runner, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
