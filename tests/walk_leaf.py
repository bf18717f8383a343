"""A word's last letter judged from the node before it (the searches'
`last`, from `MachineSpec.last_letter`) against the verdict of the
stepped node it replaces: a nondeterministic frontier under every budget
and at the edge of the room the letter needs, and a deterministic run;
and where the walk, the pair walk and `accepts` judge it so. `test_walk`
collects these tests."""

import math
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machine_gen import blind_counter_ab, random_dva, random_nbhva_endmarker
from vecauto import langlab, machines
from vecauto.builders import finite_language_va
from vecauto.errors import UndecidedError
from vecauto.exact import Matrix, vec_mat_mul
from vecauto.fileformat import parse_machine, write_machine
from vecauto.machines import (
    DETERMINISTIC,
    ENDMARKER,
    EPSILON,
    HVA,
    NONDETERMINISTIC,
    STATUS_ANY,
    MachineSpec,
    SearchBudget,
    TransitionRule,
    accepts,
    nondeterministic_steps,
    searches,
    stepped,
    validate,
)
from walk_oracles import (
    EPS_MACHINES,
    GENERATORS,
    MACHINES,
    REFERENCE_BUDGETS,
    member,
    verdict_or_undecided,
)
from walk_end import END_MACHINES


def leaves(spec, budget, maxlen):
    """``(steps, frontier, letter, word)`` for each word of 1 to `maxlen`
    letters, and each such word with a `$` for its last letter: the search
    for its length, the frontier of the word without its last letter, and
    that letter."""
    for length in range(1, maxlen + 1):
        steps = nondeterministic_steps(spec, budget, length)
        start, step = steps[:2]
        level = [("", start)]
        for _ in range(length - 1):
            level = [(w + letter, step(frontier, letter))
                     for w, frontier in level for letter in spec.alphabet]
        for w, frontier in level:
            for letter in spec.alphabet + (ENDMARKER,):
                yield steps, frontier, letter, w + letter


def reach(spec, frontier, letter):
    """The configurations the letter reaches from the frontier, counted
    per path as `last` counts them, or None where it cannot count them."""
    if spec.last_letter is None or letter == ENDMARKER:
        return None
    counts = spec.last_letter[0]
    total = sum(counts.get((state, letter), 0) for state, _ in frontier.expanded)
    return None if total == math.inf else total


def assert_judged_as_stepped(steps, frontier, letter, word):
    _, step, _, verdict, last = steps
    assert (verdict_or_undecided(last, frontier, letter, word)
            == verdict_or_undecided(lambda: verdict(step(frontier, letter), word))), word


def assert_last_letters_are_stepped_verdicts(spec, budget, maxlen):
    """Every leaf up to `maxlen` under `budget`, and under the two budgets
    that leave the leaf's count as room and one less."""
    budget = budget or SearchBudget()
    for steps, frontier, letter, word in leaves(spec, budget, maxlen):
        assert_judged_as_stepped(steps, frontier, letter, word)
        count = reach(spec, frontier, letter)
        for room in () if count is None else {count, max(count - 1, 0)}:
            tight = SearchBudget(budget.eps_per_path, frontier.spent + room)
            assert_judged_as_stepped(nondeterministic_steps(spec, tight, len(word)),
                                     frontier, letter, word)


# random machines: the walk's, and the end-marker ones of the end test,
# non-blind and wide registers among them
RANDOM_MACHINES = {**GENERATORS, **END_MACHINES}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(RANDOM_MACHINES)), seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from(REFERENCE_BUDGETS + [None]))
def test_the_last_letter_is_judged_as_the_stepped_frontier(name, seed, budget):
    spec = RANDOM_MACHINES[name](random.Random(seed))
    assert validate(spec) == []
    assert_last_letters_are_stepped_verdicts(spec, budget, 4)


@pytest.mark.parametrize("name", sorted(MACHINES) + sorted(EPS_MACHINES))
def test_catalog_and_eps_machines_judge_the_last_letter_as_stepped(name):
    spec = {**MACHINES, **EPS_MACHINES}[name]()
    for budget in REFERENCE_BUDGETS + [None]:
        assert_last_letters_are_stepped_verdicts(spec, budget, 3 if len(spec.alphabet) <= 2 else 2)


def assert_deterministic_last_letters_are_stepped(spec, maxlen=4):
    """On every live node of up to `maxlen` letters, a deterministic
    search's `last` judges each letter as stepping it does."""
    start, step, verdict, last = searches(spec)
    by_stepping = stepped(step, verdict)
    level = [("", start)]
    for _ in range(maxlen + 1):
        for w, node in level:
            for letter in spec.alphabet:
                word = w + letter
                assert last(node, letter, word) == by_stepping(node, letter, word), word
        level = [(w + letter, child) for w, node in level for letter in spec.alphabet
                 if (child := step(node, letter)) is not None]


# dyck reads the status, pow_r the end-marker; the distinguishers, the
# finite-language VA and the GFA are the separators of the paper
DETERMINISTIC_MACHINES = sorted(name for name, build in MACHINES.items()
                                if build().mode == DETERMINISTIC)


@pytest.mark.parametrize("name", DETERMINISTIC_MACHINES)
def test_deterministic_machines_judge_the_last_letter_as_stepped(name):
    assert_deterministic_last_letters_are_stepped(MACHINES[name]())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_deterministic_last_letter_is_judged_as_stepped(seed):
    # random deterministic VAs, blind or reading the status at a letter or
    # at the end-marker
    spec = random_dva(random.Random(seed))
    assert validate(spec) == []
    assert_deterministic_last_letters_are_stepped(spec)


def fresh(spec):
    """`spec` written and parsed again: a machine with no step memo."""
    return parse_machine(write_machine(spec))


def counted_products(monkeypatch):
    calls = []

    def counting(register, matrix):
        calls.append(matrix)
        return vec_mat_mul(register, matrix)
    monkeypatch.setattr(machines, "vec_mat_mul", counting)
    return calls


def eps_acyclic_nbhva():
    """A `random_nbhva_endmarker` with an eps rule."""
    rng = random.Random(3)
    while True:
        spec = random_nbhva_endmarker(rng)
        if not spec.realtime:
            return spec


def test_a_walks_last_level_multiplies_no_register(monkeypatch):
    # a walk to n steps the words up to n - 1 letters, as a walk to n - 1
    # that steps its last level does, and judges the words of n letters
    # with no product; stepping that level too takes more
    spec = eps_acyclic_nbhva()
    assert spec.blind and not spec.epsilon_cycle and spec.last_letter is not None
    calls = counted_products(monkeypatch)

    def products(maxlen, last_stepped):
        calls.clear()
        start, step, verdict, last = searches(fresh(spec))
        stepping = start, step, verdict, stepped(step, verdict) if last_stepped else last
        walked = list(machines.walk(stepping, spec.alphabet, maxlen))
        made = len(calls)
        assert walked == [(w, member(spec, w)) for w, _ in walked]
        return made

    for n in range(1, 6):
        assert products(n, False) == products(n - 1, True) < products(n, True)
    # `accepts` as well: its products are those of the letters before the last
    word = "abab"
    calls.clear()
    accepted = accepts(fresh(spec), word)
    judged = len(calls)
    assert accepted == member(spec, word)
    calls.clear()
    start, step = nondeterministic_steps(fresh(spec), SearchBudget(), len(word))[:2]
    for letter in word[:-1]:
        start = step(start, letter)
    assert judged == len(calls) > 0


def test_a_deterministic_walks_last_level_multiplies_no_register(monkeypatch):
    # a blind finite-language VA, whose registers never repeat: a walk to n,
    # with or without `drop_twins`, multiplies as a walk to n - 1 that steps
    # its last level does, fewer times than one that steps its own
    spec = finite_language_va(["1", "22", "211"])
    assert spec.blind and spec.mode == DETERMINISTIC
    calls = counted_products(monkeypatch)

    def products(maxlen, last_stepped, drop_twins):
        calls.clear()
        start, step, verdict, last = searches(fresh(spec))
        stepping = start, step, verdict, stepped(step, verdict) if last_stepped else last
        walked = list(machines.walk(stepping, spec.alphabet, maxlen, drop_twins))
        made = len(calls)
        assert walked == [(w, member(spec, w)) for w, _ in walked]
        return made

    for drop_twins in (False, True):
        for n in range(1, 6):
            assert (products(n, False, drop_twins) == products(n - 1, True, drop_twins)
                    < products(n, True, drop_twins))


def counted_steps(monkeypatch):
    """The `successors` calls of every machine built from here on."""
    compiled = MachineSpec.__dict__["successors"]
    calls = []

    def counted(spec):
        successors = compiled.func(spec)

        def counting(*args):
            calls.append(args)
            return successors(*args)
        return counting

    counting_property = cached_property(counted)
    counting_property.__set_name__(MachineSpec, "successors")
    monkeypatch.setattr(MachineSpec, "successors", counting_property)
    return calls


def leaf_steps(calls, spec, budget, word):
    """The `successors` calls of `last` on the last letter of `word`, which
    gives the stepped verdict."""
    steps = nondeterministic_steps(spec, budget, len(word))
    frontier = steps[0]
    for letter in word[:-1]:
        frontier = steps[1](frontier, letter)
    calls.clear()
    judged = verdict_or_undecided(steps[4], frontier, word[-1], word)
    made = len(calls)
    assert judged == verdict_or_undecided(lambda: steps[3](steps[1](frontier, word[-1]), word))
    return made, frontier


def status_reading(letter):
    """A non-blind HVA whose a doubles the register in p, and where the
    register is home, a rule on `letter` (a or eps) leads from p to q."""
    double, keep = Matrix.from_rows([[2]]), Matrix.identity(1)
    return MachineSpec(
        kind=HVA, mode=NONDETERMINISTIC, blind=False, endmarker=False,
        realtime=letter != EPSILON, alphabet=("a",), states=("p", "q"), initial_state="p",
        accept_states={"q"}, dimension=1, initial_vector=[1],
        transitions=[TransitionRule("p", "a", STATUS_ANY, "p", double),
                     TransitionRule("p", letter, "=", "q", keep)])


def test_a_leaf_steps_where_the_budget_or_a_status_could_cut(monkeypatch):
    calls = counted_steps(monkeypatch)
    spec = eps_acyclic_nbhva()
    word = "aaaa"
    made, frontier = leaf_steps(calls, spec, SearchBudget(), word)
    assert made == 0 and frontier.expanded
    count = reach(spec, frontier, word[-1])
    # the room the count needs, and one less
    assert leaf_steps(calls, spec, SearchBudget(None, frontier.spent + count), word)[0] == 0
    assert leaf_steps(calls, spec, SearchBudget(None, frontier.spent + count - 1), word)[0] > 0
    # an eps cap, though it cannot bind
    assert leaf_steps(calls, spec, SearchBudget(eps_per_path=100), word)[0] > 0
    # a status read by an eps rule after the letter, and by a rule for the letter
    for status_read in (status_reading(EPSILON), status_reading("a")):
        assert validate(status_read) == [] and not status_read.epsilon_cycle
        made, frontier = leaf_steps(calls, status_read, SearchBudget(), "a")
        assert made > 0 and reach(status_read, frontier, "a") is None
    # a counter register
    counter = replace(blind_counter_ab(), mode=NONDETERMINISTIC)
    assert validate(counter) == [] and counter.last_letter is None
    assert leaf_steps(calls, counter, SearchBudget(), "ab")[0] > 0


def diamond_machine():
    """After a, eps rules lead from p to r through q1, which doubles the
    register, and through q2, which triples it: five configurations,
    (r, 2) and (r, 3) among them. The end-marker leads from r into the
    accept state at a register of 1, which no path keeps."""
    def one(x):
        return Matrix.from_rows([[Fraction(x)]])
    rules = [("s", "a", "p", 1), ("p", EPSILON, "q1", 2), ("p", EPSILON, "q2", 3),
             ("q1", EPSILON, "r", 1), ("q2", EPSILON, "r", 1), ("r", ENDMARKER, "f", 1)]
    return MachineSpec(
        kind=HVA, mode=NONDETERMINISTIC, blind=True, endmarker=True, realtime=False,
        alphabet=("a",), states=("s", "p", "q1", "q2", "r", "f"), initial_state="s",
        accept_states={"f"}, dimension=1, initial_vector=[1],
        transitions=[TransitionRule(q, x, STATUS_ANY, t, one(m)) for q, x, t, m in rules])


def test_an_eps_diamond_counts_both_paths():
    # four states, five configurations: with room for four the fifth,
    # (r, 3), is left unexpanded, and its end-marker move with it
    spec = diamond_machine()
    assert spec.last_letter[0][("s", "a")] == 5
    start = nondeterministic_steps(spec, SearchBudget(), 1)[0]
    for configurations, verdict in ((start.spent + 4, "undecided"), (start.spent + 5, False)):
        budget = SearchBudget(max_configurations=configurations)
        assert verdict_or_undecided(accepts, spec, "a", budget) == verdict
        assert verdict_or_undecided(member, spec, "a", budget) == verdict


def diamond_chain(n):
    """`n` eps diamonds in a row, p_i to p_{i+1} through a_i and b_i, which
    keep the register: 2^n eps paths from p_0, through 3n + 1 states."""
    keep = Matrix.identity(1)
    rules = [TransitionRule("s", "a", STATUS_ANY, "p0", keep)]
    for i in range(n):
        for middle in (f"a{i}", f"b{i}"):
            rules += [TransitionRule(f"p{i}", EPSILON, STATUS_ANY, middle, keep),
                      TransitionRule(middle, EPSILON, STATUS_ANY, f"p{i + 1}", keep)]
    states = ("s",) + tuple(f"{x}{i}" for i in range(n) for x in "pab") + (f"p{n}",)
    return MachineSpec(
        kind=HVA, mode=NONDETERMINISTIC, blind=True, endmarker=False, realtime=False,
        alphabet=("a",), states=states, initial_state="s", accept_states={f"p{n}"},
        dimension=1, initial_vector=[1], transitions=rules)


def test_path_counts_are_filled_once_per_state():
    # the count from p_i is 3 + 2 * the count from p_{i+1}, so 2^(n+2) - 3
    # from p_0, where 3n + 1 configurations are distinct
    n = 60
    spec = diamond_chain(n)
    assert not spec.epsilon_cycle
    assert spec.last_letter[0][("s", "a")] == 2 ** (n + 2) - 3
    assert accepts(spec, "a") and not accepts(spec, "aa")
    assert langlab.enumerate_accepted(spec, 2) == ["a"]
    # with room for every path the letter's products are built, once per state
    small = diamond_chain(3)
    budget = SearchBudget(max_configurations=1 + 2 ** 5 - 3)
    assert accepts(small, "a", budget) and len(small.last_letter[1]("s", "a")) == 2 ** 3
    # with room for six, p2 takes no eps move, and p3 is not reached
    with pytest.raises(UndecidedError):
        accepts(small, "a", SearchBudget(max_configurations=1 + 6))


def test_a_paths_product_is_in_the_order_of_its_rules():
    # after a, two eps moves swap the register's entries and then add the
    # first to the second: (1, 0) goes to (0, 1) and home to (1, 0), where
    # the two in the other order would give (1, 1)
    swap, shear = Matrix.from_rows([[0, 1], [1, 0]]), Matrix.from_rows([[1, 1], [1, 0]])
    rules = [("s", "a", "p", Matrix.identity(2)), ("p", EPSILON, "q", swap),
             ("q", EPSILON, "f", shear)]
    spec = MachineSpec(
        kind=HVA, mode=NONDETERMINISTIC, blind=True, endmarker=False, realtime=False,
        alphabet=("a",), states=("s", "p", "q", "f"), initial_state="s", accept_states={"f"},
        dimension=2, initial_vector=[1, 0],
        transitions=[TransitionRule(q, x, STATUS_ANY, t, m) for q, x, t, m in rules])
    assert validate(spec) == []
    assert accepts(spec, "a") and member(spec, "a")


def test_threads_sharing_a_machine_get_the_stepped_verdicts():
    # six threads walk the same machines at once, switching as often as
    # the interpreter allows, so that they fill each machine's products
    # and tests together: one built twice is built equal
    rng = random.Random(7)
    shared = [diamond_chain(6)] + [eps_machine for eps_machine in (
        random_nbhva_endmarker(rng) for _ in range(40)) if not eps_machine.realtime][:3]
    expected = [langlab.enumerate_accepted(replace(spec), 5) for spec in shared]
    start = threading.Barrier(6, timeout=60)
    wrong = []

    def runner():
        try:
            start.wait()
            for _ in range(3):
                if [langlab.enumerate_accepted(spec, 5) for spec in shared] != expected:
                    wrong.append("walk")
        except Exception as exc:  # raised in a thread, it would only warn
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=runner) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(shared) == 4 and expected[0] == ["a"]
