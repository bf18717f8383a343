"""Letter blocks (`MachineSpec.blocks`, `machines._jump`): a wide
deterministic run, and a wide nondeterministic verdict run (`accepts`),
against the run that steps each letter by the rules; the products they
multiply, `home_after` against the home test, and threads that share
one block memo. `test_walk` collects these tests."""

import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from functools import partial

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machine_gen import blind_counter_ab, blind_counter_abc, extendedfa_a_endmarker, random_dva
from vecauto import machines
from vecauto.builders import example
from vecauto.errors import AlphabetError
from vecauto.exact import WORD_BITS, Matrix, mat_mul, vec_mat_mul
from vecauto.machines import (
    ACCEPT,
    BLOCK_LETTERS,
    BUDGET_EXCEEDED,
    COUNTER_MACHINE,
    DETERMINISTIC,
    ENDMARKER,
    FAM,
    GFA,
    HVA,
    NONDETERMINISTIC,
    REJECT,
    STATUS_ANY,
    STATUS_EQ,
    STATUS_NE,
    VA,
    MachineSpec,
    SearchBudget,
    TransitionRule,
    accepts,
    gfa_value,
    run_deterministic,
    run_nondeterministic,
    searches,
    stateless,
    validate,
)
from vecauto.transforms import (
    attach_trivial_endmarker,
    counters_to_integer_hva3,
    intersect_blind_hva,
    rationals_to_integers,
    remove_endmarker,
    scale_initial_vector,
)
from walk_oracles import (
    WIDE,
    direct_successors,
    nonzero_initial_vector,
    one_state_gfa,
    verdict_or_undecided,
    wide_nbhva,
)


def direct_runs(spec, word, ends=1):
    """A deterministic run stepped one letter at a time by
    `direct_successors`, with no memo and no blocks, judged on each of the
    `ends` longest prefixes of `word`, shortest first: the verdict and where
    the run ended, ``(state, register, position)``."""
    def stepped(state, letter, register):
        fired, _ = direct_successors(spec, state, letter, register)
        return fired[0][1:] if fired else None

    def judged(state, register, position):
        if spec.endmarker:
            after = stepped(state, ENDMARKER, register)
            if after is None:
                return REJECT, (state, register, position)
            (state, register), position = after, position + 1
        _, status = direct_successors(spec, state, None, register)
        if spec.kind == COUNTER_MACHINE:
            home = not spec.blind or set(status) <= {STATUS_EQ}
        else:
            home = status == STATUS_EQ
        return ACCEPT if state in spec.accept_states and home else REJECT, (
            state, register, position)

    outcomes = []
    state, register = spec.initial_state, spec.initial_vector
    for position in range(len(word) + 1):
        if position > len(word) - ends:
            outcomes.append(judged(state, register, position))
        if position == len(word):
            return outcomes
        after = stepped(state, word[position], register)
        if after is None:  # every longer prefix ends here too
            return outcomes + [(REJECT, (state, register, position))] * (ends - len(outcomes))
        state, register = after


def direct_run(spec, word):
    return direct_runs(spec, word)[0]


def assert_runs_as_the_rules(spec, word, expected):
    """`run_deterministic`, deterministic `accepts` and, for a GFA,
    `gfa_value` give the `direct_runs` outcome `expected`."""
    verdict, last = expected
    result = run_deterministic(spec, word)
    assert (result.verdict, tuple(result.last)) == expected
    assert accepts(spec, word) == (verdict == ACCEPT)
    if spec.kind == GFA:
        state, register, position = last
        if position < len(word):
            with pytest.raises(AlphabetError):
                gfa_value(spec, word)
        else:
            assert gfa_value(spec, word) == sum(
                v * f for v, f in zip(register.entries, spec.gfa_final_vector.entries))


def runs_word(rng, alphabet, length):
    """`length` letters in runs of one letter, each up to a quarter of the
    word long; one word in four has a foreign letter c somewhere."""
    word = ""
    while len(word) < length:
        word += rng.choice(alphabet) * rng.randint(1, length // 4)
    if rng.random() < 0.25:
        at = rng.randrange(length)
        word = word[:at] + "c" + word[at + 1:]
    return word[:length]


def living_word(spec, rng, length):
    """`length` letters that a run of `spec` mostly survives: each is drawn
    among the letters that have a rule at the configuration reached, one
    in a hundred from the whole alphabet, which may end the run there."""
    state, register, word = spec.initial_state, spec.initial_vector, ""
    for _ in range(length):
        moves = {}
        for letter in spec.alphabet:
            fired = spec.successors(state, letter, register)
            if len(fired) == 1:
                moves[letter] = fired[0]
        if not moves or rng.random() < 0.01:
            return word + "".join(rng.choice(spec.alphabet) for _ in range(length - len(word)))
        letter = rng.choice(sorted(moves))
        word += letter
        _, state, register = moves[letter]
    return word


def sink_machine():
    """A deterministic VA over a/b whose first entry doubles on every
    letter; at p, b leads only into the sink s, so a block of a run is cut
    at its first b."""
    double = Matrix.from_rows([[2, 0], [0, 1]])
    rules = [("p", "a", "p"), ("p", "b", "s")]
    return MachineSpec(
        kind=VA, mode=DETERMINISTIC, blind=True, endmarker=False, realtime=True,
        alphabet=("a", "b"), states=("p", "s"), initial_state="p", accept_states={"p"},
        dimension=2, initial_vector=[1, 1],
        transitions=[TransitionRule(q, x, STATUS_ANY, t, double) for q, x, t in rules])


def sink_run(rng, length):
    # the first b comes after 70 or more a's, when the register is wide,
    # so that it falls inside a block
    a_count = rng.randint(70, max(70, length))
    return sink_machine(), "a" * a_count + "b" + runs_word(
        rng, "ab", max(length - a_count, BLOCK_LETTERS))


def wide_random_dva_run(rng, length):
    # a random DVA started from a register past WORD_BITS, its status rules
    # and dead letters inside the blocks of a word it mostly survives
    spec = nonzero_initial_vector(random_dva, rng)
    spec = replace(spec, initial_vector=spec.initial_vector.scale(WIDE))
    return spec, living_word(spec, rng, length)


def catalog_run(make, alphabet):
    return lambda rng, length: (make(), runs_word(rng, alphabet, length))


# the second entry of a register reaches 2**70 at once
WIDE_SECOND = (1, 2 ** 70)


def home_returning_va(initial_vector=WIDE_SECOND, mode=DETERMINISTIC, extra=()):
    """A non-blind VA over a/b whose first entry stays exactly 1 under a
    at home, status `=`, while its second entry grows: b doubles the first
    entry, and an a away from home halves it on the way to q, so that the
    register returns home, wide, after each b."""
    grow, halve = Matrix.from_rows([[1, 1], [0, 2]]), Matrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
    double, triple = Matrix.from_rows([[2, 0], [0, 1]]), Matrix.from_rows([[1, 0], [0, 3]])
    rules = [("p", "a", STATUS_EQ, "p", grow), ("p", "a", STATUS_NE, "q", halve),
             ("p", "b", STATUS_ANY, "p", double), ("q", "a", STATUS_ANY, "p", triple),
             ("q", "b", STATUS_EQ, "q", Matrix.identity(2)), *extra]
    states = sorted({"p", "q"} | {rule[3] for rule in extra})
    return MachineSpec(
        kind=VA, mode=mode, blind=False, endmarker=False, realtime=True,
        alphabet=("a", "b"), states=states, initial_state="p",
        accept_states={"p", "s"} & set(states),
        dimension=2, initial_vector=initial_vector,
        transitions=[TransitionRule(*rule) for rule in rules])


def home_matching_hva():
    """A non-blind HVA over a/b/c whose first entry always matches its wide
    home vector's at p, while a doubles and c halves its second entry: the
    status at a b compares both entries, and is `=` where the a's and c's
    balance. A b away from home moves to q, doubling the first entry,
    where c brings it back."""
    second = [Matrix.from_rows([[1, 0], [0, 2]]), Matrix.from_rows([[1, 0], [0, Fraction(1, 2)]])]
    first = [Matrix.from_rows([[2, 0], [0, 1]]), Matrix.from_rows([[Fraction(1, 2), 0], [0, 1]])]
    rules = [("p", "a", STATUS_ANY, "p", second[0]), ("p", "c", STATUS_ANY, "p", second[1]),
             ("p", "b", STATUS_EQ, "p", second[0]), ("p", "b", STATUS_NE, "q", first[0]),
             ("q", "b", STATUS_NE, "q", second[1]), ("q", "c", STATUS_ANY, "p", first[1])]
    return MachineSpec(
        kind=HVA, mode=DETERMINISTIC, blind=False, endmarker=False, realtime=True,
        alphabet=("a", "b", "c"), states=("p", "q"), initial_state="p", accept_states={"p"},
        dimension=2, initial_vector=WIDE_SECOND,
        transitions=[TransitionRule(*rule) for rule in rules])


def halving_fam():
    """A non-blind FAM over a/b: a doubles the register, b halves it away
    from home and triples it at home."""
    rules = [("a", 2, STATUS_ANY), ("b", Fraction(1, 2), STATUS_NE), ("b", 3, STATUS_EQ)]
    return stateless(FAM, ("a", "b"), 1, [1],
                     [(x, Matrix.from_rows([[m]]), status) for x, m, status in rules], blind=False)


def balanced_word(rng, length):
    """A word of ( and ) that climbs past WORD_BITS open brackets, wanders,
    and closes them all; one time in two, one bracket is flipped."""
    word = "(" * rng.randint(WORD_BITS, 2 * WORD_BITS)
    depth = len(word)
    while len(word) + depth < length:
        opens = depth == 0 or rng.random() < 0.5
        word += "(" if opens else ")"
        depth += 1 if opens else -1
    word += ")" * depth
    if rng.random() < 0.5:
        at = rng.randrange(len(word))
        word = word[:at] + ("(" if word[at] == ")" else ")") + word[at + 1:]
    return word


def living_run(make):
    return lambda rng, length: (make(), living_word(make(), rng, length))


BLOCK_RUNS = {
    "random_dva": wide_random_dva_run,
    "eq": catalog_run(partial(example, "eq"), "ab"),
    "pow_r": catalog_run(partial(example, "pow_r"), "ab"),
    "ab_k_star_2": catalog_run(partial(example, "ab_k_star", 2), "ab"),
    "intersect(eq,evenab)": catalog_run(
        lambda: intersect_blind_hva(example("eq"), example("evenab"))[0], "ab"),
    "intersect(eq,ab_k_star_2)": catalog_run(
        lambda: intersect_blind_hva(example("eq"), example("ab_k_star", 2))[0], "ab"),
    "rationals_to_integers(eq$)": catalog_run(
        lambda: rationals_to_integers(attach_trivial_endmarker(example("eq"))[0])[0], "ab"),
    "gfa": catalog_run(one_state_gfa, "a"),
    "sink": sink_run,
    # status rules inside the blocks: read `=` on wide registers, or
    # compare every entry
    "home_returning_va": living_run(home_returning_va),
    "home_returning_va from 1": living_run(partial(home_returning_va, [1, 1])),
    "home_matching_hva": living_run(home_matching_hva),
    "halving_fam": catalog_run(halving_fam, "ab"),
    "dyck": lambda rng, length: (example("dyck"), balanced_word(rng, length)),
}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(BLOCK_RUNS)), seed=st.integers(0, 2**32 - 1),
       length=st.integers(64, 600))
def test_a_run_by_letter_blocks_is_the_per_letter_run(name, seed, length):
    # the word's last BLOCK_LETTERS prefixes end a block at each offset
    # from the end-marker
    spec, word = BLOCK_RUNS[name](random.Random(seed), length)
    assert validate(spec) == []
    for cut, expected in enumerate(reversed(direct_runs(spec, word, BLOCK_LETTERS))):
        assert_runs_as_the_rules(spec, word[:len(word) - cut], expected)


def counted_products(monkeypatch):
    calls = []

    def counting(register, matrix):
        calls.append(matrix)
        return vec_mat_mul(register, matrix)
    monkeypatch.setattr(machines, "vec_mat_mul", counting)
    return calls


def test_a_wide_blind_run_multiplies_a_block_at_a_time(monkeypatch):
    # eq's register 2**k is narrow for k < 60, at both ends of the word:
    # those letters are stepped one at a time, the rest a block at a time
    calls = counted_products(monkeypatch)
    word = "a" * 3000 + "b" * 3000
    assert run_deterministic(example("eq"), word).accepted
    blocks = len(word) // BLOCK_LETTERS
    assert blocks <= len(calls) <= blocks + 2 * WORD_BITS


def counted_blocks(spec):
    """The letters of each block a run of `spec` asks its block memo for."""
    asked = []
    blocks = spec.blocks

    def counting(state, letters, register):
        asked.append(letters)
        return blocks(state, letters, register)
    vars(spec)["blocks"] = counting  # where cached_property keeps it
    return asked


def test_a_run_through_status_rules_multiplies_a_block_at_a_time(monkeypatch):
    # every block of dyck's word holds a ), which reads the status, and no
    # register repeats. The register 2**k is narrow for k < 60: those
    # letters are stepped one at a time. Then each block probes its ) and
    # is whole: one product per block
    calls = counted_products(monkeypatch)
    spec = example("dyck")
    asked = counted_blocks(spec)
    word = "(" * WORD_BITS + "((((((()" * 100
    assert run_deterministic(spec, word).verdict == REJECT
    assert len(calls) == WORD_BITS + 100
    assert asked == ["((((((()"] * 100


def test_a_wide_non_blind_run_asks_one_block_per_block_of_letters():
    # a random DVA whose status rules read over a third of its word's
    # letters: its blocks are whole where the run lives, so it asks for
    # about one block per BLOCK_LETTERS letters, not one per letter
    for seed in range(100):  # the first that lives through its word, wide
        spec, word = wide_random_dva_run(random.Random(seed), 4000)
        last = run_deterministic(spec, word).last
        if (2 * sum(r.status != STATUS_ANY for r in spec.transitions) >= len(spec.transitions)
                and last.position == len(word) and last.register.bits > WORD_BITS):
            break
    reading = sum(any(rule[1] != STATUS_ANY for rule in spec.rule_index[before.state, letter])
                  for letter, before in zip(word, run_nondeterministic(spec, word).trace))
    asked = counted_blocks(spec)
    assert run_deterministic(spec, word).last == last
    assert 3 * reading > len(word)
    assert len(word) // BLOCK_LETTERS <= len(asked) <= len(word) // BLOCK_LETTERS + 2


def test_home_after_is_the_home_test_of_the_product():
    # probes a register against products of one to four rules of each kind
    # with a matrix register, and the GFA's column
    rng = random.Random(3)
    specs = [example("dyck"), halving_fam(), home_matching_hva(), one_state_gfa(),
             extendedfa_a_endmarker(), *(random_dva(rng) for _ in range(4))]
    for spec in specs:
        effects = [r.effect for r in spec.transitions]
        home = spec.register_tests[1]
        for _ in range(20):
            register, product = spec.initial_vector, rng.choice(effects)
            for _ in range(rng.randint(0, 4)):
                register = vec_mat_mul(register, rng.choice(effects))
            for _ in range(rng.randint(0, 3)):
                product = mat_mul(product, rng.choice(effects))
            assert spec.home_after(product)(register) == home(vec_mat_mul(register, product))


def test_threads_sharing_a_block_memo_get_per_letter_runs():
    # six threads run distinct long words on three machines, whose block
    # memos they fill at once, switching as often as the interpreter
    # allows: a block built twice is built equal. Two machines are
    # deterministic, one blind and one whose blocks branch on the status;
    # the third, eq without its end-marker, is nondeterministic only in
    # its rules into the sink q_acc
    spec, status = intersect_blind_hva(example("eq"), example("evenab"))[0], home_returning_va()
    unmarked = eq_without_endmarker()
    rng = random.Random(19)
    work = [[runs_word(rng, "ab", 400) for _ in range(4)] for _ in range(6)]
    expected = {w: (direct_run(spec, w), direct_run(status, w),
                    per_letter_outcome(unmarked, w, None)[0])
                for words in work for w in words}
    start = threading.Barrier(6, timeout=60)
    wrong = []

    def runner(words):
        try:
            start.wait()
            for w in words * 2:
                results = [run_deterministic(machine, w) for machine in (spec, status)]
                if (*((r.verdict, tuple(r.last)) for r in results),
                        accepts(unmarked, w)) != expected[w]:
                    wrong.append(w)
        except Exception as exc:  # raised in a thread, it would only warn
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=runner, args=(words,)) for words in work]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def eq_without_endmarker():
    """eq given a trivial end-marker and then rid of it: a blind HVA whose
    every letter has one rule that leads on and one into the sink q_acc."""
    return remove_endmarker(attach_trivial_endmarker(example("eq"))[0])[0]


def per_letter_outcome(spec, word, budget):
    """The verdict of `searches`' search stepped one letter at a time, or
    "undecided", and the `spent` of the frontier it judged."""
    frontier, step, verdict, _ = searches(spec, budget)
    for letter in word:
        frontier = step(frontier, letter)
    return verdict_or_undecided(verdict, frontier, word), frontier.spent


def accepts_outcome(spec, word, budget):
    """`accepts`' verdict, or "undecided", and the `spent` of the frontier
    it judged: read by wrapping the verdict and the `last` of the search it
    builds, the latter by stepping the last letter from the frontier it is
    given."""
    judged = []
    steps = machines.nondeterministic_steps

    def recording_steps(spec, budget, length):
        start, step, end, verdict, last = steps(spec, budget, length)

        def recorded(frontier, word):
            judged.append(frontier.spent)
            return verdict(frontier, word)

        def recorded_last(frontier, letter, word):
            judged.append(step(frontier, letter).spent)
            return last(frontier, letter, word)
        return start, step, end, recorded, recorded_last

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(machines, "nondeterministic_steps", recording_steps)
        outcome = verdict_or_undecided(accepts, spec, word, budget)
    (spent,) = judged
    return outcome, spent


def with_endmarker_letter(rng, word):
    """`word`, or, one time in eight, with a `$` in place of one letter."""
    if rng.random() < 0.125:
        at = rng.randrange(len(word))
        word = word[:at] + ENDMARKER + word[at + 1:]
    return word


def runs_or_sorted_word(rng, alphabet, length):
    """A `runs_word`, or, one time in two, each letter of `alphabet` as
    often in one run, in order, one letter of it changed one time in two:
    a word the machines below accept, or one that misses by a letter."""
    if rng.random() < 0.5:
        return runs_word(rng, alphabet, length)
    word = "".join(letter * (length // len(alphabet)) for letter in alphabet)
    if rng.random() < 0.5:
        at = rng.randrange(len(word))
        word = word[:at] + rng.choice(alphabet) + word[at + 1:]
    return word


def two_sink_rules_machine():
    """A nondeterministic VA whose register doubles in p on every letter.
    Besides, a leads to the sinks s and t, and b to s by two equal rules,
    whose configurations meet in the dedupe: a is lone at p, b is not."""
    double, keep = Matrix.from_rows([[2]]), Matrix.identity(1)
    rules = [("a", "p", double), ("a", "s", keep), ("a", "t", keep),
             ("b", "p", double), ("b", "s", keep), ("b", "s", keep)]
    return MachineSpec(
        kind=VA, mode=NONDETERMINISTIC, blind=True, endmarker=False, realtime=True,
        alphabet=("a", "b"), states=("p", "s", "t"), initial_state="p",
        accept_states={"p", "s"}, dimension=1, initial_vector=[1],
        transitions=[TransitionRule("p", x, STATUS_ANY, t, m) for x, t, m in rules])


def nondeterministic_run(make, alphabet):
    return lambda rng, length: (make(rng), runs_or_sorted_word(rng, alphabet, length))


NONDETERMINISTIC_BLOCK_RUNS = {
    "remove_endmarker(wide_nbhva)": nondeterministic_run(
        lambda rng: remove_endmarker(wide_nbhva(rng))[0], "ab"),
    "counters_to_integer_hva3(blind_counter_ab)": nondeterministic_run(
        lambda rng: counters_to_integer_hva3(blind_counter_ab())[0], "ab"),
    "counters_to_integer_hva3(blind_counter_abc)": nondeterministic_run(
        lambda rng: counters_to_integer_hva3(blind_counter_abc())[0], "abc"),
    "remove_endmarker(eq$)": nondeterministic_run(lambda rng: eq_without_endmarker(), "ab"),
    # home is wide: an accepted word ends in q_acc with a wide register
    "remove_endmarker(wide eq$)": nondeterministic_run(
        lambda rng: scale_initial_vector(eq_without_endmarker(), WIDE)[0], "ab"),
    "two_sink_rules": nondeterministic_run(lambda rng: two_sink_rules_machine(), "ab"),
    # status rules beside the sinks: an a at home and a b away from it
    # also lead into a sink, so the sink rules reached depend on the status
    "home_returning_nva": lambda rng, length: (
        home_returning_va(mode=NONDETERMINISTIC,
                          extra=[("p", "a", STATUS_EQ, "s", Matrix.identity(2)),
                                 ("p", "b", STATUS_ANY, "t", Matrix.identity(2)),
                                 ("q", "b", STATUS_NE, "s", Matrix.identity(2))]),
        living_word(home_returning_va(), rng, length)),
}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(NONDETERMINISTIC_BLOCK_RUNS)),
       seed=st.integers(0, 2**32 - 1), length=st.integers(16, 300),
       configurations=st.integers(1, 1000))
# a^9 b^9 c^9, accepted: the register is 61 bits wide at the last whole
# block, whose jump ends on the last letter, and a tenth c rejects it, so
# a last letter stepped again after that jump would read a Reject
@hypothesis.example(name="counters_to_integer_hva3(blind_counter_abc)", seed=0, length=27,
                    configurations=1000)
def test_a_verdict_run_by_letter_blocks_is_the_per_letter_search(name, seed, length,
                                                                 configurations):
    # fresh lengths, words and budgets beside the fixed example: a budget
    # of up to about three configurations a letter runs out before, inside
    # or after a block as often as not
    rng = random.Random(seed)
    spec, word = NONDETERMINISTIC_BLOCK_RUNS[name](rng, length)
    assert validate(spec) == []
    word = with_endmarker_letter(rng, word)
    budget = SearchBudget(max_configurations=configurations)
    assert accepts_outcome(spec, word, budget) == per_letter_outcome(spec, word, budget)


EQ_WORD = "a" * 3000 + "b" * 3000


@pytest.mark.parametrize("configurations, verdict", [(11_997, "undecided"), (11_998, True)])
def test_a_verdict_run_by_letter_blocks_runs_out_of_budget_at_the_same_count(
        configurations, verdict):
    # each letter reaches two configurations, one in q_acc: the last
    # letter needs the live one at the letter before expanded, not q_acc
    spec, budget = eq_without_endmarker(), SearchBudget(max_configurations=configurations)
    assert accepts_outcome(spec, EQ_WORD, budget)[0] == verdict
    assert per_letter_outcome(spec, EQ_WORD, budget)[0] == verdict
    traced = run_nondeterministic(spec, EQ_WORD, budget).verdict
    assert traced == (ACCEPT if verdict is True else BUDGET_EXCEEDED)


@pytest.mark.parametrize("n", range(36, 40))
def test_a_verdict_run_steps_the_last_letter_into_the_sinks(n):
    # this eq accepts in q_acc at its home, which is wide, and jumps from
    # the first letter: the last letter, at any offset from a block's end,
    # is stepped so that it reaches q_acc
    spec = scale_initial_vector(eq_without_endmarker(), WIDE)[0]
    word = "a" * n + "b" * n
    assert accepts(spec, word)
    assert per_letter_outcome(spec, word, None)[0] is True


def test_a_wide_nondeterministic_verdict_run_multiplies_a_block_at_a_time(monkeypatch):
    # the register 2**k is narrow for k < 60, at both ends of the word:
    # those letters step the live configuration and its q_acc twin, the
    # rest jump a block at a time; the search stepped one letter at a time
    # makes two products per letter
    spec = eq_without_endmarker()
    calls = counted_products(monkeypatch)
    assert accepts(spec, EQ_WORD)
    blocks = len(EQ_WORD) // BLOCK_LETTERS
    assert blocks - 2 <= len(calls) <= blocks + 4 * WORD_BITS
