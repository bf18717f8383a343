"""Machines, budgets and per-word oracles shared by the run core's tests:
`test_walk` and the `walk_*` modules it collects.

The oracles judge each word by its own run: `member` asks
`run_nondeterministic`, whose eps cap is set by the word's length, and
`per_word_walk`, `per_word_disagreement` and `first_disagreements` give
the walk's and the pair walk's verdicts from it. `direct_successors`
evaluates the rules in Fractions, with no memo. `assert_no_run_starts`
asks every entry point of a machine whose rules conflict."""

import contextlib
import io
from fractions import Fraction
from functools import partial

import pytest

from machine_gen import (
    blind_counter_a_endmarker,
    blind_counter_ab,
    blind_counter_abc,
    counter_ab_endmarker,
    extendedfa_a_endmarker,
    random_dva,
    random_extendedfa,
    random_nbhva_endmarker,
)
from vecauto import langlab, machines
from vecauto.builders import (
    binary_distinguisher,
    example,
    finite_language_nbhva,
    finite_language_va,
    hva_distinguisher,
)
from vecauto.cli import main
from vecauto.errors import InconsistentSpecError, UndecidedError
from vecauto.exact import Matrix, RowVector
from vecauto.langlab import (
    ReferenceLanguage,
    all_strings,
    check_star_closure,
    enumerate_accepted,
    equivalent_up_to,
    matches_reference,
)
from vecauto.machines import (
    ACCEPT,
    BUDGET_EXCEEDED,
    COUNTER_MACHINE,
    DEFAULT_MAX_CONFIGURATIONS,
    DETERMINISTIC,
    ENDMARKER,
    EPSILON,
    FAM,
    GFA,
    HVA,
    NONDETERMINISTIC,
    STATUS_ANY,
    STATUS_EQ,
    STATUS_NE,
    VA,
    MachineSpec,
    SearchBudget,
    TransitionRule,
    accepts,
    extendedfa_embed,
    run_deterministic,
    run_nondeterministic,
    stateless,
    validate,
)
from vecauto.transforms import scale_initial_vector


BUDGETS = [SearchBudget(eps, configs)
           for configs in (3, 20, 500, DEFAULT_MAX_CONFIGURATIONS)
           for eps in (None, 0, 2)]


GENERATORS = {
    "dva": random_dva,
    "nbhva_endmarker": random_nbhva_endmarker,
    "embedded_extendedfa": lambda rng: extendedfa_embed(random_extendedfa(rng)),
}


CATALOG = [("pow_r", None), ("ab_star", None), ("eq", None), ("leq", None), ("dyck", None),
           ("evenab", None), ("l_epsilon", None), ("ab_k_star", 2), ("mod", 3),
           ("mod_rot", 4), ("unary_point", 2)]


def one_state_gfa(multiplier=2, cutpoint=8):
    """A GFA over a whose one matrix multiplies by `multiplier`: it accepts
    the words whose value `multiplier`^n equals `cutpoint`."""
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
        transitions=(TransitionRule("q", "a", STATUS_ANY, "q",
                                    Matrix.from_rows([[Fraction(multiplier)]])),),
        gfa_final_vector=RowVector([1]),
        gfa_cutpoint=Fraction(cutpoint),
    )


MACHINES = {
    **{name if param is None else f"{name}_{param}": partial(example, name, param)
       for name, param in CATALOG},
    "binary_distinguisher_12": partial(binary_distinguisher, "12"),
    "hva_distinguisher_12": partial(hva_distinguisher, "12"),
    "finite_language_va": partial(finite_language_va, ["1", "22"]),
    "finite_language_nbhva": partial(finite_language_nbhva, ["1", "22"]),
    "gfa": one_state_gfa,
    "blind_counter_ab": blind_counter_ab,
    "blind_counter_abc": blind_counter_abc,
    "blind_counter_a_endmarker": blind_counter_a_endmarker,
    "counter_ab_endmarker": counter_ab_endmarker,
    "extendedfa_a_endmarker": extendedfa_a_endmarker,
}


def member(spec, word, budget=None):
    """A machine's verdict on `word` from the word's own run, raising
    UndecidedError where its search runs out of budget. Not `accepts`:
    a nondeterministic one steps the frontiers `searches` gives the walk
    where the eps cap cannot grow. Where it grows, the walk asks this
    same run of each word."""
    if spec.mode == DETERMINISTIC:
        return accepts(spec, word)
    verdict = run_nondeterministic(spec, word, budget).verdict
    if verdict == BUDGET_EXCEEDED:
        raise machines._undecided(word, budget)
    return verdict == ACCEPT


def per_word_walk(language, maxlen, budget=None):
    """The walk as each word alone would have it."""
    for w in all_strings(language.alphabet, maxlen):
        if isinstance(language, MachineSpec):
            yield w, member(language, w, budget)
        else:
            yield w, language.membership(w)


def per_word_disagreement(left, right, maxlen, budget=None):
    """The first disagreement as each word alone would have it: the two
    per-word walks zipped, each word asked of the left side first."""
    for (w, in_left), (_, in_right) in zip(per_word_walk(left, maxlen, budget),
                                           per_word_walk(right, maxlen, budget)):
        if in_left != in_right:
            return w
    return None


def per_word_verdict(left, right, maxlen, budget):
    counterexample = per_word_disagreement(left, right, maxlen, budget)
    return langlab.EquivalenceVerdict(counterexample is None, counterexample, maxlen)


def outcomes(walk):
    """The (word, verdict) pairs of a walk, and the word of the
    UndecidedError that ended it, if one did."""
    seen = []
    try:
        for item in walk:
            seen.append(item)
    except UndecidedError as exc:
        return seen, exc.word
    return seen, None


def assert_walk_agrees(spec, maxlen, budget):
    assert validate(spec) == []
    expected = outcomes(per_word_walk(spec, maxlen, budget))
    assert outcomes(langlab._walk(spec, maxlen, budget)) == expected
    return expected


def one_dimensional(rules, states, accept_states, alphabet=("a", "b")):
    """A blind nondeterministic HVA on one rational register, from
    (source, letter, target, factor) rules; the first state is initial."""
    return MachineSpec(
        kind=HVA, mode=NONDETERMINISTIC, blind=True, endmarker=False,
        realtime=not any(letter == EPSILON for _, letter, _, _ in rules),
        alphabet=alphabet, states=states, initial_state=states[0],
        accept_states=accept_states, dimension=1, initial_vector=[1],
        transitions=[TransitionRule(q, letter, STATUS_ANY, target,
                                    Matrix.from_rows([[Fraction(x)]]))
                     for q, letter, target, x in rules])


def eps_loop_machine():
    """Reading b may move from p to r, where two eps loops double and
    negate the register: words that reach r and are not accepted spend
    every eps move the cap allows, so the search leaves them undecided."""
    return one_dimensional(
        [("p", "a", "p", 2), ("p", "b", "p", Fraction(1, 2)), ("p", "b", "r", 1),
         ("r", "a", "r", Fraction(1, 2)), ("r", EPSILON, "r", 2), ("r", EPSILON, "r", -1)],
        ("p", "r"), {"p", "r"})


def quartering_machine():
    """Each a multiplies by 4 and each eps move halves: a^n needs 2n eps
    moves, within the cap n + 2 of a one-state machine up to n = 2."""
    return one_dimensional([("q", "a", "q", 4), ("q", EPSILON, "q", Fraction(1, 2))],
                           ("q",), {"q"}, alphabet=("a",))


def two_state_cycle_machine():
    """Each a multiplies by 4, and an eps move from p to r and back
    halves: a^n needs 4n eps moves, within the cap 2(n + 2) up to n = 2."""
    return one_dimensional([("p", "a", "p", 4), ("p", EPSILON, "r", Fraction(1, 2)),
                            ("r", EPSILON, "p", 1)], ("p", "r"), {"p"}, alphabet=("a",))


def fewest_eps_machine():
    """(t, 0) is reached on a from s with no eps move and from s2 with
    one; under a one-move cap only the first lets t take its eps move
    without reaching the cap."""
    return one_dimensional([("s", EPSILON, "s2", 1), ("s", "a", "t", 0), ("s2", "a", "t", 0),
                            ("t", EPSILON, "u", 1)], ("s", "s2", "t", "u"), {"u"})


def undercut_machine():
    """On a, x is reached from s3 after two eps moves and from y after
    one; with x's fewest moves (one), its eps move to z stays within a
    two-move cap."""
    return one_dimensional([("s", EPSILON, "s2", 1), ("s2", EPSILON, "s3", 1),
                            ("s", "a", "y", 1), ("s3", "a", "x", 1), ("y", EPSILON, "x", 1),
                            ("x", EPSILON, "z", 2)], ("s", "s2", "s3", "x", "y", "z"), {"z"})


def eps_chain_machine():
    """Eps rules chain q1 -> q2 -> ... -> q5, and a or b leads from q5 back
    to q1, so a path that reads every letter from q5 takes |states| - 1
    eps moves at every position: within one move per position of the
    default cap. Around the chain a doubles the register and b halves it;
    q5 also reads a in place, so the words with at least as many a's as
    b's are accepted."""
    return one_dimensional(
        [("q1", EPSILON, "q2", 2), ("q2", EPSILON, "q3", Fraction(1, 2)),
         ("q3", EPSILON, "q4", 3), ("q4", EPSILON, "q5", Fraction(1, 3)),
         ("q5", "a", "q1", 2), ("q5", "b", "q1", Fraction(1, 2)), ("q5", "a", "q5", 1)],
        ("q1", "q2", "q3", "q4", "q5"), {"q5"})


EPS_MACHINES = {"eps_loop": eps_loop_machine, "quartering": quartering_machine,
                "two_state_cycle": two_state_cycle_machine, "fewest_eps": fewest_eps_machine,
                "undercut": undercut_machine, "eps_chain": eps_chain_machine}


REFERENCE_BUDGETS = BUDGETS + [SearchBudget(eps, 50) for eps in (None, 0, 2)]


def cli_output(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def first_disagreements(left, right, maxlen, budget=None):
    """The per-word oracle's and the walk's first disagreement of two
    languages, or the word an exhausted budget left undecided."""
    def outcome(find):
        try:
            return find()
        except UndecidedError as exc:
            return f"undecided: {exc.word}"

    check = equivalent_up_to if isinstance(right, MachineSpec) else langlab.matches_reference
    return (outcome(lambda: per_word_disagreement(left, right, maxlen, budget)),
            outcome(lambda: check(left, right, maxlen, budget).counterexample))


def assert_no_run_starts(spec):
    """`spec`, a deterministic machine whose only faults are rule
    conflicts, takes no step: on the empty word every entry point raises
    InconsistentSpecError with `validate`'s first diagnostic, and bounded
    equivalence does so with the machine on either side."""
    diagnostics = validate(spec)
    assert diagnostics and all(d.startswith("deterministic conflict: ") for d in diagnostics)
    anything = ReferenceLanguage("anything", spec.alphabet, lambda w: True)
    every_word = stateless(VA, spec.alphabet, 1, [1],
                           [(letter, Matrix.identity(1)) for letter in spec.alphabet])
    for call, *args in [(run_deterministic, spec, ""), (accepts, spec, ""),
                        (run_nondeterministic, spec, ""), (enumerate_accepted, spec, 0),
                        (check_star_closure, spec, 0), (matches_reference, spec, anything, 0),
                        (equivalent_up_to, spec, every_word, 0),
                        (equivalent_up_to, every_word, spec, 0)]:
        with pytest.raises(InconsistentSpecError) as raised:
            call(*args)
        assert str(raised.value) == diagnostics[0], call.__name__


def direct_successors(spec, state, letter, register):
    """The ``(rule index, target, register)`` of each rule of
    `spec.transitions` that fires, in rule order, evaluated in Fractions
    from the rule list, and the register's status."""
    counter = spec.kind == COUNTER_MACHINE
    if counter:
        status = tuple(STATUS_EQ if c == 0 else STATUS_NE for c in register)
    else:
        values = register.entries
        if spec.kind == VA:
            home = values[0] == 1
        elif spec.kind == GFA:
            final = spec.gfa_final_vector.entries
            home = sum(v * f for v, f in zip(values, final)) == spec.gfa_cutpoint
        elif spec.kind == FAM:
            home = values == (1,)
        else:
            home = values == spec.initial_vector.entries
        status = STATUS_EQ if home else STATUS_NE
    fired = []
    for idx, rule in enumerate(spec.transitions):
        if (rule.source, rule.input) != (state, letter) or rule.status not in (STATUS_ANY, status):
            continue
        if counter:
            updated = tuple(c + d for c, d in zip(register, rule.effect))
        else:
            effect = rule.effect
            updated = RowVector(sum(v * effect.entries[i * effect.cols + j]
                                    for i, v in enumerate(values))
                                for j in range(effect.cols))
        fired.append((idx, rule.target, updated))
    return tuple(fired), status


def status_cycle_machine():
    """A non-blind HVA whose eps rules lead from p to r only at the initial
    vector, and back only away from it."""
    one = Matrix.from_rows([[1]])
    return MachineSpec(
        kind=HVA, mode=NONDETERMINISTIC, blind=False, endmarker=False, realtime=False,
        alphabet=("a",), states=("p", "r"), initial_state="p", accept_states={"p"},
        dimension=1, initial_vector=[1],
        transitions=[TransitionRule("p", "a", STATUS_ANY, "p", Matrix.from_rows([[2]])),
                     TransitionRule("p", EPSILON, STATUS_EQ, "r", one),
                     TransitionRule("r", EPSILON, STATUS_NE, "p", one)])


def split_endmarker_dva(rng):
    """A `random_dva` that reads the end-marker under `=` and `!=`."""
    while True:
        spec = random_dva(rng)
        if any(r.input == ENDMARKER and r.status != STATUS_ANY for r in spec.transitions):
            return spec


def nonzero_initial_vector(generate, rng):
    while True:
        spec = generate(rng)
        if any(spec.initial_vector.nums):
            return spec


# 3^40 / 2^64 takes a nonzero register past WORD_BITS at once
WIDE = Fraction(3 ** 40, 2 ** 64)


def wide_nbhva(rng):
    return scale_initial_vector(nonzero_initial_vector(random_nbhva_endmarker, rng), WIDE)[0]


def verdict_or_undecided(judge, *args):
    try:
        return judge(*args)
    except UndecidedError:
        return "undecided"
