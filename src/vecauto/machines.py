"""Unified machine model and simulators.

One configuration-level semantics covers every register machine in the
workbench: vector automata (VA), homing vector automata (HVA), finite
automata with a multiplicative register (FAM), generalized finite
automata (GFA), matrix-monoid extended finite automata, and integer
counter machines. A machine is a single immutable ``MachineSpec`` whose
flags select the variant:

* ``kind``       -- which register and acceptance semantics apply
* ``mode``       -- deterministic or nondeterministic choice of rules
* ``blind``      -- whether rules may branch on the register status
* ``endmarker``  -- whether a terminal ``$`` symbol is processed
* ``realtime``   -- ``False`` permits ``eps`` rules that consume no input

Acceptance by kind, checked after the last processed letter (the
end-marker included when ``endmarker`` is set):

* VA: accept state and first vector entry equal to 1
* HVA / ExtendedFA: accept state and vector equal to its initial value
* FAM: accept state and register equal to 1
* CounterMachine: accept state; when blind, additionally all counters 0
* GFA: acceptance value equal to the cutpoint

Simulators are pure functions of (spec, input, budget); specs are
immutable after validation, so evaluating many inputs in parallel is
safe. A machine caches what it derives from its fields on first use,
each cache described where it lives: `MachineSpec.successors` (the step
memo), `sinks`, `blocks` (letter blocks for wide registers, which
`_jump` multiplies), `home_after`, `ends` (the rules that end a word in
an accept state), `end_test`, `epsilon_sources` (the eps rules),
`last_letter` (a word's last letter judged from the node before it) and
the `last_run` slot, which only `run_nondeterministic` reads: a run's
record is its own `RunResult`. Each entry is a pure function of the
machine and its key, so concurrent runs can at worst build one twice or
evict each other's.

A `$` inside a word is no letter of any alphabet: `run_deterministic`,
`accepts` and `run_nondeterministic` treat it as a letter without a
rule, and only the end-marker step after the word's letters reads the
`$` rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, islice
from operator import mul
from typing import NamedTuple

from .errors import (
    AlphabetError,
    DomainError,
    InconsistentSpecError,
    ShapeError,
    UndecidedError,
    UnsupportedKindError,
)
from .exact import WORD_BITS, Matrix, RowVector, _bit_length, dot, mat_mul, tensor, vec_mat_mul

VA = "VA"
HVA = "HVA"
FAM = "FAM"
GFA = "GFA"
EXTENDED_FA = "ExtendedFA"
COUNTER_MACHINE = "CounterMachine"
KINDS = (VA, HVA, FAM, GFA, EXTENDED_FA, COUNTER_MACHINE)

DETERMINISTIC = "deterministic"
NONDETERMINISTIC = "nondeterministic"

EPSILON = "eps"
ENDMARKER = "$"

STATUS_EQ = "="
STATUS_NE = "!="
STATUS_ANY = "*"

ACCEPT = "Accept"
REJECT = "Reject"
BUDGET_EXCEEDED = "BudgetExceeded"

DEFAULT_MAX_CONFIGURATIONS = 1_000_000

# letters a wide run multiplies in one block; a random word has 2**16
# distinct 16-letter blocks, too many to build, and 256 of 8
BLOCK_LETTERS = 8


class _Probe:
    """A letter of a block that reads the status: ``lands_home(register)``
    decides it from the register at the block's start, `block` and
    `statuses` are what the letters before it make and read, and
    `branches` keeps the rest of the block under `!=` and under `=`,
    indexed by whether the register is home there, once built."""

    __slots__ = ("lands_home", "block", "statuses", "branches")

    def __init__(self, lands_home, block, statuses):
        self.lands_home, self.block, self.statuses = lands_home, block, statuses
        self.branches = [None, None]


def _firing(rules, status) -> list:
    """The rules among `rules`, tuples whose second item is the status as
    in `MachineSpec.rule_index`, that fire under the register status
    `status`: the wildcard's and that status's, in rule order."""
    return [rule for rule in rules if rule[1] == STATUS_ANY or rule[1] == status]


@dataclass(frozen=True)
class TransitionRule:
    """One rule: in `source`, reading `input` under `status`, go to `target`.

    `effect` is the register update: a square matrix (right-multiplied)
    for vector kinds, or a tuple of per-counter increments in {-1, 0, 1}
    for counter machines. `input` is an alphabet symbol, `eps`, or `$`.
    `status` is `=`, `!=`, the wildcard `*`, or, for counter machines, a
    tuple of `=`/`!=` zero-tests, one per counter.
    """

    source: str
    input: str
    status: object
    target: str
    effect: object


@dataclass(frozen=True)
class MachineSpec:
    """An immutable machine; construction normalizes containers to
    immutable types (tuples, frozensets, RowVectors, Fractions).

    `rule_scan`, `rule_index`, the compiled transition function
    `successors`, the `sinks`, the `blocks` memo, `home_after`, the
    `ends` and `end_test`, the `epsilon_sources`, the `last_letter` tables
    and the `last_run` cache of the last search are built on first use and
    cached on the instance (`extendedfa_embed` gives its output its
    source's `successors` and `last_run`); equality and hashing see only
    the fields.
    """

    kind: str
    mode: str
    blind: bool
    endmarker: bool
    realtime: bool
    alphabet: tuple
    states: tuple
    initial_state: str
    accept_states: frozenset
    dimension: int
    initial_vector: object
    transitions: tuple
    gfa_final_vector: object = None
    gfa_cutpoint: object = None

    def __post_init__(self):
        def set_field(name, value):
            object.__setattr__(self, name, value)

        for flag in ("blind", "endmarker", "realtime"):
            set_field(flag, bool(getattr(self, flag)))
        set_field("alphabet", tuple(self.alphabet))
        set_field("states", tuple(self.states))
        set_field("accept_states", frozenset(self.accept_states))
        set_field("dimension", int(self.dimension))
        counter = self.kind == COUNTER_MACHINE
        if counter:
            set_field("initial_vector", tuple(int(x) for x in self.initial_vector))
        elif not isinstance(self.initial_vector, RowVector):
            set_field("initial_vector", RowVector(self.initial_vector))
        rules = []
        for r in self.transitions:
            effect = r.effect
            if counter and not isinstance(effect, tuple):
                effect = tuple(int(x) for x in effect)
            status = tuple(r.status) if isinstance(r.status, list) else r.status
            rules.append(TransitionRule(r.source, r.input, status, r.target, effect))
        set_field("transitions", tuple(rules))
        if self.gfa_cutpoint is not None:
            set_field("gfa_cutpoint", Fraction(self.gfa_cutpoint))
        if self.gfa_final_vector is not None and not isinstance(self.gfa_final_vector, RowVector):
            set_field("gfa_final_vector", RowVector(self.gfa_final_vector))

    def register_length(self) -> int:
        """Length of the register vector (dimension squared for monoid kinds)."""
        if self.kind == EXTENDED_FA:
            return self.dimension * self.dimension
        return self.dimension

    def summary(self) -> dict:
        return {"kind": self.kind, "states": len(self.states), "dimension": self.dimension}

    def __getstate__(self):
        # pickle the fields only; the compiled transition function is a
        # closure and is rebuilt on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def rule_scan(self) -> tuple:
        """``(index, conflicts)``: `rule_index` as it is built, and for a
        deterministic machine one diagnostic per pair of rules on one
        ``(source, input)`` that can fire at once, in transition order.
        `validate` lists the conflicts and `rule_index` raises the first,
        from this one scan of the rules."""
        index = {}
        for idx, r in enumerate(self.transitions):
            index.setdefault((r.source, r.input), []).append((idx, r.status, r.effect, r.target))
        conflicts = []
        if self.mode == DETERMINISTIC:
            for (state, sym), rules in index.items():
                for (i, a, *_), (j, b, *_) in combinations(rules, 2):
                    if STATUS_ANY in (a, b) or a == b:  # both statuses can hold at once
                        conflicts.append(f"deterministic conflict: transitions #{i} and #{j} "
                                         f"both apply in ({state},{sym})")
        return index, conflicts

    @cached_property
    def rule_index(self) -> dict:
        """``(source, input)`` -> its ``(rule index, status, effect, target)``
        tuples. A deterministic machine with two rules that can fire at once
        raises InconsistentSpecError, with `validate`'s first conflict
        diagnostic: every run reads this index before its first step, so no
        run of it starts, and a deterministic step fires at most one rule."""
        index, conflicts = self.rule_scan
        if conflicts:
            raise InconsistentSpecError(conflicts[0])
        return index

    @cached_property
    def successors(self):
        """The transition function: ``successors(state, letter, register)``
        is the tuple of ``(rule index, target, register)`` for every rule
        that fires, in rule order.

        A rule fires when its status is the wildcard or equals the
        register's status (`_firing`). Whole steps recur across the runs
        of one machine (different words and queries reach the same
        register), so each is memoized: a table built once from `rule_index` maps
        ``(state, letter)`` to its rules and a memo from register to the
        step's tuple (``()`` when no rule fires). A hit is one table
        lookup and one register-keyed ``get``; a ``(state, letter)`` with
        no rules stores nothing. Entries are exact and immutable and live
        as long as the machine. Bounded enumeration steps each shared
        prefix once (`walk`), so its hits come from distinct prefixes
        that reach one register.

        A register wider than `WORD_BITS` (`RowVector.bits`) is neither
        looked up nor stored: such registers grow along long words and
        are almost never reached twice, so the memo would only hash and
        keep them. Counter registers are always memoized.

        The function reads the machine only through `rule_index` and, for
        a rule with a status, `register_tests`: a blind machine with the
        same rules and registers can share it, memo included
        (`extendedfa_embed`).
        """
        table = {key: (rules, any(rule[1] != STATUS_ANY for rule in rules), {})
                 for key, rules in self.rule_index.items()}
        status_of_register = self.register_tests[0]
        counter = self.kind == COUNTER_MACHINE

        def successors(state, letter, register):
            entry = table.get((state, letter))
            if entry is None:
                return ()
            rules, reads_status, memo = entry
            narrow = counter or register.bits <= WORD_BITS
            if narrow:
                fired = memo.get(register)
                if fired is not None:
                    return fired
            if reads_status:
                rules = _firing(rules, status_of_register(register))
            fired = []
            for idx, _, effect, target in rules:
                if counter:
                    updated = tuple(c + d for c, d in zip(register, effect))
                else:
                    updated = vec_mat_mul(register, effect)
                fired.append((idx, target, updated))
            fired = tuple(fired)
            if narrow:
                memo[register] = fired
            return fired

        return successors

    @cached_property
    def sinks(self) -> frozenset:
        """States with no rule on a letter and no eps rule: a configuration
        in one has no move but, at the word's end, the end-marker's."""
        moving = {state for state, letter in self.rule_index if letter != ENDMARKER}
        return frozenset(self.states) - moving

    @cached_property
    def blocks(self):
        """The block memo of a wide run: ``blocks(state, letters, register)``,
        for up to `BLOCK_LETTERS` letters read by a run whose one live
        configuration is ``(state, register)``, is ``(length, target,
        product, reached)``: the first `length` letters take that
        configuration to `target` with its register times `product` (None
        for no letter), and reach `reached` configurations, 1 plus the sink
        rules for each letter. The block is whole when `length` is that of
        `letters`; otherwise the letter after them is not lone, and the run
        must step it through `successors`.

        A letter is lone at a state when the rules that fire there, under
        the status the register has at that letter (`_firing`), are one
        that leads outside `sinks` and others that lead to distinct sinks,
        so their configurations neither meet in the dedupe nor move at the
        next letter. `$` and `eps` are never lone, so no block reads a `$`
        inside a word.

        A letter whose rules all have the wildcard status is looked up by
        its state alone. At a letter that reads the status, the block
        probes the register: its status there is that of v·P, P the
        product of the block's letters before it, which `home_after`
        decides from P's integer columns, exactly and building no
        register. The status picks the rules that fire, and the block
        branches on it like a trie (`_Probe`), so a block whose letters
        read no status is one memo lookup.

        Each product is built from the one a letter shorter with one
        `mat_mul` of integer forms, after the letter is found lone, so a
        block cut short builds nothing past its cut. Entries are exact and
        immutable and live as long as the machine; a run that finds none
        builds one, so concurrent runs can only build an equal entry
        twice. Vector registers only: a counter effect is not a matrix.
        """
        sinks, home_after = self.sinks, self.home_after

        def lone(rules):
            # the rule the live configuration takes when `rules` fire, as
            # (target, effect, configurations reached), or None
            if len({rule[3] for rule in rules}) < len(rules):  # two rules into one state
                return None
            live = [rule for rule in rules if rule[3] not in sinks]
            return (live[0][3], live[0][2], len(rules)) if len(live) == 1 else None

        # per (state, letter) its lone rule or None, or, where a rule reads
        # the status, those of both statuses
        table = {}
        for key, rules in self.rule_index.items():
            if key[1] in (ENDMARKER, EPSILON):
                continue
            if all(rule[1] == STATUS_ANY for rule in rules):
                table[key] = lone(rules)
            else:
                table[key] = {status: lone(_firing(rules, status))
                              for status in (STATUS_EQ, STATUS_NE)}

        # (state, letters, statuses read) -> the block those letters
        # make from that state under those statuses, and the home test
        # after them: what the blocks that start with them share
        prefixes, tests = {}, {}

        def grow(start, letters, block, statuses, status=None):
            # the rest of the block of `letters` from `start` whose first
            # block.length letters make `block` under `statuses`; `status`
            # is the next letter's, once probed
            length, state, product, reached = block
            for letter in letters[length:]:
                rule = table.get((state, letter))
                if type(rule) is dict:
                    if status is None:
                        key = (start, letters[:length], statuses)
                        lands_home = tests.get(key)
                        if lands_home is None:
                            lands_home = tests[key] = home_after(product)
                        return _Probe(lands_home, block, statuses)
                    rule, statuses, status = rule[status], statuses + (status,), None
                if rule is None:
                    break
                key = (start, letters[:length + 1], statuses)
                block = prefixes.get(key)
                if block is None:
                    target, effect, count = rule
                    product = effect if product is None else mat_mul(product, effect)
                    block = prefixes[key] = (length + 1, target, product, reached + count)
                length, state, product, reached = block
            return block

        memo = {}

        def blocks(state, letters, register):
            node = memo.get((state, letters))
            if node is None:
                node = memo[state, letters] = grow(state, letters, (0, state, None, 0), ())
            while type(node) is _Probe:
                at_home = node.lands_home(register)
                branch = node.branches[at_home]
                if branch is None:
                    branch = node.branches[at_home] = grow(
                        state, letters, node.block, node.statuses, STATUS_EQ if at_home else STATUS_NE)
                node = branch
            return node

        return blocks

    @cached_property
    def last_run(self) -> list:
        """A cache that `run_nondeterministic` alone reads, ``[None]`` until
        it keeps a run's search: ``(key, word, steps, frontiers)``, `key`
        ``(budget, eps cap for the word's length)``, `steps` the
        `nondeterministic_steps` built under it and `frontiers` the word's
        `Frontier`s, one per position. A run reads it once and replaces the
        item whole; its result keeps its own record (`RunResult.search`)."""
        return [None]

    @cached_property
    def register_tests(self):
        """``(status, accepting)`` functions of a register, both from the
        kind's one "register is home" test, ``home_after(None)``. A counter
        machine's status is that test per counter; an unblind one accepts
        any register.
        """
        home = self.home_after(None)
        if self.kind == COUNTER_MACHINE:
            def status(register):
                return tuple(STATUS_EQ if c == 0 else STATUS_NE for c in register)
            return status, home
        return (lambda register: STATUS_EQ if home(register) else STATUS_NE), home

    @cached_property
    def home_after(self):
        """``home_after(effect)``: the kind's "register is home" test of a
        register after `effect`, as a function of the register before it;
        ``home_after(None)`` is the plain test. Home is: first entry 1 for
        VA, the initial vector for HVA and monoid machines, 1 for FAM,
        value (register times final vector) at the cutpoint for GFA, all
        counters 0 for a blind counter machine, any register for an unblind
        one.

        A counter machine's test adds the effect to the register. A vector
        machine's builds no register and takes no gcd: with the matrix's
        integer columns C over d (`integer_form`) and the register's nums
        over den, a VA's test is sum(nums * C_0) == den * d. A GFA's, f
        its final vector and p/q its cutpoint, is
        sum(nums * f.nums) * q == p * den * f.den, and after a matrix it
        compares the column C·f with p/q in the same way. The other kinds
        compare each entry with the home vector u's,
        sum(nums * C_j) * u.den == u.nums_j * den * d, from the first up
        to the first that differs."""
        if self.kind == COUNTER_MACHINE:
            home = (lambda register: not any(register)) if self.blind else (lambda register: True)

            def home_after(effect):
                if effect is None:
                    return home
                return lambda register: home(tuple(c + d for c, d in zip(register, effect)))
            return home_after

        final = None
        if self.kind == GFA:
            final, cutpoint = self.gfa_final_vector, self.gfa_cutpoint
            home_nums, home_den = (cutpoint.numerator,), cutpoint.denominator

            def home(register):
                return (sum(map(mul, register.nums, final.nums)) * home_den
                        == home_nums[0] * register.den * final.den)
        elif self.kind == VA:  # the first entry, 1
            home_nums, home_den = (1,), 1

            def home(register):
                return register.nums[0] == register.den
        else:
            initial = RowVector([1]) if self.kind == FAM else self.initial_vector
            home_nums, home_den = initial.nums, initial.den

            def home(register):
                return register == initial

        def home_after(matrix):
            if matrix is None:
                return home
            columns, d, _ = matrix.integer_form
            if final is not None:
                columns = (tuple(sum(map(mul, row, final.nums)) for row in zip(*columns)),)
                d *= final.den
            targets = tuple(zip(columns, home_nums))

            def lands_home(register):
                nums, den = register.nums, register.den * d
                for column, target in targets:
                    if sum(map(mul, nums, column)) * home_den != target * den:
                        return False
                return True
            return lands_home

        return home_after

    @cached_property
    def ends(self) -> dict:
        """State -> the `rule_index` tuples that end a word there in an
        accept state, for each state with one: its `$` rules into an accept
        state or, without an end-marker, ``(None, STATUS_ANY, None,
        state)`` for an accept state, whose effect None `home_after` reads
        as the plain home test."""
        if not self.endmarker:
            return {state: ((None, STATUS_ANY, None, state),) for state in self.accept_states}
        ends = {state: tuple(rule for rule in rules if rule[3] in self.accept_states)
                for (state, letter), rules in self.rule_index.items() if letter == ENDMARKER}
        return {state: rules for state, rules in ends.items() if rules}

    @cached_property
    def end_test(self):
        """``end_test(state, register)``: whether a word whose letters end
        in this configuration is accepted, built on first use.

        It reads the state's `ends`, fired under their status (`_firing`),
        and asks `home_after` whether one takes the register home, building
        no register.
        """
        status_of_register, home_after = self.register_tests[0], self.home_after

        # per state its ends as (rule index, status, home test), and
        # whether one reads the status
        table = {state: (tuple((idx, status, home_after(effect))
                               for idx, status, effect, _ in rules),
                         any(rule[1] != STATUS_ANY for rule in rules))
                 for state, rules in self.ends.items()}

        def end_test(state, register):
            entry = table.get(state)
            if entry is None:
                return False
            rules, reads_status = entry
            if reads_status:
                rules = _firing(rules, status_of_register(register))
            for _, _, lands_home in rules:
                if lands_home(register):
                    return True
            return False

        return end_test

    @cached_property
    def last_letter(self):
        """``(counts, tests)``, from which the `last` of both modes'
        searches (`searches`) judges a word's last letter from the node
        before it; None for a counter machine or where eps rules make a
        cycle.

        ``counts[state, letter]`` bounds the configurations that the
        letter's rules and every eps path after them reach from `state`: it
        counts them per path, and is ``math.inf`` where a rule on the way,
        or an accepting `$` rule at the end, reads the status.
        ``tests(state, letter)`` holds a `home_after` test of the register
        before the letter for each path into one of `ends`, of the
        product M·E1···Ek of its rules (times M$ with the end-marker).
        Both are filled once per state (`_fill`), the tests on first use:
        a search asks for them only once the count is finite and fits its
        budget. A missing key has no rule for the letter, which reaches
        nothing. A deterministic machine has at most one rule per key, so
        its finite counts are 1.
        """
        if self.kind == COUNTER_MACHINE or self.epsilon_cycle:
            return None
        index, home_after = self.rule_index, self.home_after
        eps, ends = self.epsilon_sources, self.ends

        def targets(state):
            return [rule[3] for rule in eps.get(state, ())]

        def blind(rules):
            return all(rule[1] == STATUS_ANY for rule in rules)

        def count(state):  # itself and what its eps paths reach
            if not (blind(eps.get(state, ())) and blind(ends.get(state, ()))):
                return math.inf
            return 1 + sum(counted[target] for target in targets(state))

        def extended(rules):  # the products of `rules` and the paths after them
            return [effect if after is None else mat_mul(effect, after)
                    for _, _, effect, target in rules
                    for after in _fill(built, target, targets, products)]

        def products(state):  # of its paths into an accepting end
            return [rule[2] for rule in ends.get(state, ())] + extended(eps.get(state, ()))

        counted, built, memo = {}, {}, {}
        counts = {key: sum(_fill(counted, rule[3], targets, count) for rule in rules)
                  if blind(rules) else math.inf
                  for key, rules in index.items() if key[1] not in (EPSILON, ENDMARKER)}

        def tests(state, letter):
            made = memo.get((state, letter))
            if made is None:
                made = memo[state, letter] = tuple(
                    map(home_after, extended(index.get((state, letter), ()))))
            return made

        return counts, tests

    @cached_property
    def epsilon_sources(self) -> dict:
        """State -> its eps rules as `rule_index` tuples, whatever their
        status, for each state with one; read from `rule_scan`, so a rule
        conflict does not raise here."""
        return {state: tuple(rules) for (state, letter), rules in self.rule_scan[0].items()
                if letter == EPSILON}

    @cached_property
    def epsilon_cycle(self) -> bool:
        """Whether eps rules, whatever their status, lead from a state back
        to itself (a self-loop included). Without such a cycle a path
        takes at most |states| - 1 eps moves at each position."""
        targets = {state: {rule[3] for rule in rules}
                   for state, rules in self.epsilon_sources.items()}
        # peel off states whose eps rules all lead out of what is left;
        # what cannot be peeled lies on or leads into a cycle
        while targets:
            peeled = [q for q, after in targets.items() if after.isdisjoint(targets)]
            if not peeled:
                return True
            for q in peeled:
                del targets[q]
        return False


def _fill(memo: dict, state, targets, value):
    """``memo[state]``, once ``memo[s] = value(s)`` is filled for `state`
    and every state that `targets` leads to from it, each after those its
    own targets lead to; `targets` must make no cycle."""
    stack = [state]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        waiting = [target for target in targets(top) if target not in memo]
        if waiting:
            stack += waiting
        else:
            memo[top] = value(top)
            stack.pop()
    return memo[state]


def stateless(kind, alphabet, dimension, initial_vector, rules, *,
              mode=DETERMINISTIC, blind=True, endmarker=False, realtime=True) -> MachineSpec:
    """A stateless machine: its one state is both initial and accepting.

    `rules` are ``(symbol, effect)`` or ``(symbol, effect, status)``
    items; the status defaults to the wildcard.
    """
    q = "q"
    transitions = [
        TransitionRule(q, symbol, status[0] if status else STATUS_ANY, q, effect)
        for symbol, effect, *status in rules
    ]
    return MachineSpec(
        kind=kind,
        mode=mode,
        blind=blind,
        endmarker=endmarker,
        realtime=realtime,
        alphabet=alphabet,
        states=(q,),
        initial_state=q,
        accept_states=(q,),
        dimension=dimension,
        initial_vector=initial_vector,
        transitions=transitions,
    )


class Configuration(NamedTuple):
    """A point in a run: control state, register, input position.

    `position` counts processed letters of `w$` (so it can reach
    `len(w) + 1` when the machine uses an end-marker).
    """

    state: str
    register: object
    position: int


@dataclass(frozen=True)
class RunResult:
    """A verdict and `last`, where the run ended, died or accepted (a
    rejecting search's last configuration at the furthest position it
    reached). A search keeps its own record in `search`, ``(spec,
    letters, frontiers)``: `letters` is the word, with `$` after it on an
    end-marker machine, and `frontiers` one `Frontier` per position of
    `letters` (the end-marker's fully expanded). `trace`,
    `accepting_path` and `stats` read it alone."""

    verdict: str
    last: Configuration
    search: tuple = field(default=None, repr=False, compare=False)

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPT

    @property
    def trace(self) -> tuple:
        """A search's configurations from the start to `last`."""
        if self.search is not None:
            return tuple(configuration for configuration, _ in _backtrack(*self.search, self.last))

    @property
    def accepting_path(self) -> tuple:
        """The indices of the rules along an accepting search's path."""
        if self.search is not None and self.accepted:
            return tuple(idx for _, idx in _backtrack(*self.search, self.last)[1:])

    @property
    def stats(self) -> dict:
        """What a search did, from its letters' frontiers, never the
        end-marker's: the configurations it expanded (the last one's
        `spent`), the most that one position reached, the limit that cut a
        move off (`_cut`, None for none) and the bit length of the widest
        register reached (of a denominator or numerator, or of a counter)."""
        if self.search is not None:
            spec, _, frontiers = self.search
            frontiers = frontiers[:len(frontiers) - spec.endmarker]
            return {
                "expanded": frontiers[-1].spent,
                "peak_frontier": max(len(frontier.configurations) for frontier in frontiers),
                "limit": _cut(frontiers[-1], spec.endmarker) or None,
                "register_bits": max(_bit_length(register, 1) if isinstance(register, tuple)
                                     else _bit_length(register.nums, register.den)
                                     for frontier in frontiers
                                     for _, register in frontier.configurations),
            }


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for nondeterministic search.

    One-way machines allow unbounded eps-loops whose register values
    never repeat, so exhaustive search is impossible in general. Paths
    that spend more than `eps_per_path` eps-moves are pruned (default:
    |states| * (|w| + 2)), and the search stops expanding after
    `max_configurations` configurations expanded, counted along the
    word from its start. Whenever pruning cut anything off and no
    accepting path was found, the result is BudgetExceeded rather than a
    misreported Reject.

    The default cap binds only through an eps cycle: without one a path
    takes at most |states| - 1 eps moves at each of |w| + 1 positions,
    fewer than the cap, so `eps_cap` leaves it out for such a machine.
    """

    eps_per_path: int = None
    max_configurations: int = DEFAULT_MAX_CONFIGURATIONS

    def eps_cap(self, spec: MachineSpec, length: int):
        """The eps moves a path may spend on a word of `length` letters:
        `eps_per_path`, else the default cap, or ``math.inf`` on a
        real-time or eps-acyclic machine, where it cannot bind."""
        if self.eps_per_path is not None:
            return self.eps_per_path
        if spec.realtime or not spec.epsilon_cycle:
            return math.inf
        return len(spec.states) * (length + 2)

    def binds(self, spec: MachineSpec, maxlen) -> bool:
        """Whether the budget can cut a search of `spec` over a word of at
        most `maxlen` letters (None: of any length). Never for a
        deterministic machine, which makes no search. On one without eps
        rules whose rules number at most b on one `rule_index` key, the
        frontier after k letters holds at most b^k configurations: when
        b^0 + ... + b^maxlen fits `max_configurations`, every configuration
        reached is expanded, nothing is ever pruned, and a search's
        verdicts depend on its configurations alone."""
        if spec.mode == DETERMINISTIC:
            return False
        if maxlen is None or spec.epsilon_sources:
            return True
        b = max(map(len, spec.rule_index.values()), default=0)
        totals = accumulate(b ** k for k in range(maxlen + 1))
        return any(total > self.max_configurations for total in totals)


def embed_monoid_effect(m: Matrix) -> Matrix:
    """Lift a k x k monoid element M to the k^2 x k^2 effect I tensor M.

    Right-multiplying a row-major-flattened k x k register X by
    I tensor M equals flattening X*M, so matrix-register machines run
    on the ordinary vector semantics.
    """
    if not m.is_square():
        raise ShapeError("monoid elements must be square matrices")
    return tensor(Matrix.identity(m.rows), m)


def flattened_identity(k: int) -> RowVector:
    return RowVector(Matrix.identity(k).entries)


# ---------------------------------------------------------------------------
# validation


def _legal_statuses(spec: MachineSpec, status) -> bool:
    if status == STATUS_ANY:
        return True
    if spec.kind == COUNTER_MACHINE:
        return (
            isinstance(status, tuple)
            and len(status) == spec.dimension
            and all(s in (STATUS_EQ, STATUS_NE) for s in status)
        )
    return status in (STATUS_EQ, STATUS_NE)


def validate(spec: MachineSpec) -> list:
    """Check every structural invariant; returns one diagnostic per violation.

    An empty list means the spec is well-formed for its kind and flags.
    """
    diags = []

    def bad(msg):
        diags.append(msg)

    if spec.kind not in KINDS:
        bad(f"unknown kind: {spec.kind!r}")
        return diags
    if spec.mode not in (DETERMINISTIC, NONDETERMINISTIC):
        bad(f"unknown mode: {spec.mode!r}")
        return diags

    if not spec.states:
        bad("machine needs at least one state")
    if len(set(spec.states)) != len(spec.states):
        bad("duplicate state names")
    if spec.initial_state not in spec.states:
        bad(f"initial state {spec.initial_state!r} not among states")
    for q in spec.accept_states:
        if q not in spec.states:
            bad(f"accept state {q!r} not among states")
    if not spec.alphabet:
        bad("alphabet is empty")
    if len(set(spec.alphabet)) != len(spec.alphabet):
        bad("duplicate alphabet symbols")
    for sym in spec.alphabet:
        if sym in (EPSILON, ENDMARKER):
            bad(f"reserved symbol {sym!r} cannot be in the alphabet")
        elif len(sym) != 1:
            bad(f"alphabet symbols must be single characters, got {sym!r}")
    if spec.dimension < 1:
        bad(f"dimension must be >= 1, got {spec.dimension}")

    reg_len = spec.register_length()
    # construction makes the initial vector a tuple of ints for a
    # counter machine and a RowVector for every other kind
    if spec.kind == COUNTER_MACHINE:
        if len(spec.initial_vector) != spec.dimension:
            bad("counter machine initial vector must have one integer per counter")
        elif any(spec.initial_vector):
            bad("counters must start at zero")
    elif spec.initial_vector.dim != reg_len:
        bad(f"initial vector has dim {spec.initial_vector.dim}, expected {reg_len}")
    elif spec.kind == EXTENDED_FA and spec.initial_vector != flattened_identity(spec.dimension):
        bad("matrix-monoid machines must start from the flattened identity")
    elif spec.kind == FAM and spec.initial_vector != RowVector([1]):
        bad("multiplicative registers must start at 1")

    if spec.mode == DETERMINISTIC and not spec.realtime:
        bad("deterministic machines must be real-time")

    if spec.kind == GFA:
        if spec.gfa_final_vector is None or spec.gfa_cutpoint is None:
            bad("GFA needs a final vector and a cutpoint")
        elif spec.gfa_final_vector.dim != spec.dimension:
            bad("GFA final vector dimension mismatch")
        if spec.mode != DETERMINISTIC or not spec.blind:
            bad("GFA is deterministic and blind")
        if spec.endmarker:
            bad("GFA does not process an end-marker")
        if not spec.realtime:
            bad("GFA is real-time; eps rules are not allowed")
        if len(spec.states) != 1:
            bad("GFA control is carried by the matrices; use a single state")
        elif spec.states[0] not in spec.accept_states:
            bad("GFA accepts by its value; its one state must be accepting")
        seen_syms = set()
        for r in spec.transitions:
            if r.input in seen_syms:
                bad(f"GFA must have exactly one matrix per symbol; {r.input!r} repeats")
            seen_syms.add(r.input)
        for sym in spec.alphabet:
            if sym not in seen_syms:
                bad(f"GFA is missing the matrix for symbol {sym!r}")
    else:
        if spec.gfa_final_vector is not None or spec.gfa_cutpoint is not None:
            bad("final vector / cutpoint are only meaningful for GFA")

    if spec.kind == EXTENDED_FA:
        if not spec.blind:
            bad("matrix-monoid machines are blind by definition")
        if spec.mode != NONDETERMINISTIC:
            bad("matrix-monoid machines are nondeterministic by definition")
    if spec.kind == FAM and spec.dimension != 1:
        bad("multiplicative-register machines are one-dimensional")

    for idx, r in enumerate(spec.transitions):
        where = f"transition #{idx} ({r.source},{r.input})"
        if r.source not in spec.states:
            bad(f"{where}: unknown source state")
        if r.target not in spec.states:
            bad(f"{where}: unknown target state")
        if r.input == EPSILON:
            if spec.realtime:
                bad(f"{where}: eps rule in a real-time machine")
            if spec.kind == GFA:
                bad(f"{where}: eps rule in a GFA")
        elif r.input == ENDMARKER:
            if not spec.endmarker:
                bad(f"{where}: end-marker rule but endmarker flag is off")
        elif r.input not in spec.alphabet:
            bad(f"{where}: symbol {r.input!r} not in alphabet")

        if not _legal_statuses(spec, r.status):
            bad(f"{where}: malformed status {r.status!r}")
        if spec.blind and r.status != STATUS_ANY:
            bad(f"{where}: blind machine must use the wildcard status")

        if spec.kind == COUNTER_MACHINE:
            eff = r.effect
            if not (isinstance(eff, tuple) and len(eff) == spec.dimension):
                bad(f"{where}: counter update must have one entry per counter")
            elif any(c not in (-1, 0, 1) for c in eff):
                bad(f"{where}: counter updates must lie in {{-1,0,1}}")
        else:
            eff = r.effect
            if not isinstance(eff, Matrix):
                bad(f"{where}: effect must be a matrix")
                continue
            if eff.rows != reg_len or eff.cols != reg_len:
                bad(f"{where}: effect is {eff.rows}x{eff.cols}, expected {reg_len}x{reg_len}")
                continue
            if spec.kind == FAM and any(e <= 0 for e in eff.entries):
                bad(f"{where}: multiplicative register updates must be positive")
            if spec.kind == EXTENDED_FA and not _is_identity_tensor(eff, spec.dimension):
                bad(f"{where}: effect is not of the form I tensor M")

    diags += spec.rule_scan[1]
    return diags


def _is_identity_tensor(eff: Matrix, k: int) -> bool:
    """True when eff is I_k tensor M for some k x k matrix M; M can only
    be eff's top-left k x k block."""
    top_left = Matrix.from_rows(eff.row(i)[:k] for i in range(k))
    return eff == embed_monoid_effect(top_left)


# ---------------------------------------------------------------------------
# run semantics


def run_deterministic(spec: MachineSpec, word: str) -> RunResult:
    """Run a deterministic machine, keeping only where it ends.

    A configuration with no applicable rule ends the run as a Reject;
    `last` is then the configuration that had no move. A `$` inside the
    word is such a letter: the run ends there, before the end-marker.

    A vector register wider than `WORD_BITS` takes the word's letters a
    block at a time (`_jump`). Every other letter is stepped through
    `successors`, the end-marker included: a narrow register, whose steps
    the memo keeps; the letter that cuts a block, so a Reject comes at the
    letter it would come at; the word's last letters short of a block; a
    counter register.
    """
    if spec.mode != DETERMINISTIC:
        raise InconsistentSpecError("run_deterministic needs a deterministic machine")
    successors = spec.successors
    state, register = spec.initial_state, spec.initial_vector
    letters = word + ENDMARKER if spec.endmarker else word
    # the last position a block fits at; a counter register takes none
    last_block = -1 if spec.kind == COUNTER_MACHINE else len(word) - BLOCK_LETTERS
    position, end = 0, len(letters)
    while position < end:
        if position <= last_block and register.bits > WORD_BITS:
            position, state, register, _ = _jump(spec, letters, position, last_block,
                                                 state, register, math.inf)
            if position == end:
                break
        letter = letters[position]
        if letter == ENDMARKER and position < len(word):
            fired = ()  # a `$` inside the word is a letter without a rule
        else:
            fired = successors(state, letter, register)
        if not fired:
            return RunResult(REJECT, Configuration(state, register, position))
        _, state, register = fired[0]
        position += 1
    accepted = state in spec.accept_states and spec.register_tests[1](register)
    return RunResult(ACCEPT if accepted else REJECT, Configuration(state, register, end))


def _jump(spec: MachineSpec, letters: str, position: int, last_block: int, state: str,
          register: RowVector, room) -> tuple:
    """The jump of a run whose one live configuration, ``(state,
    register)`` at `position`, has a register wider than `WORD_BITS` and
    may reach `room` more configurations: ``(position, state, register,
    reached)`` after the letter blocks of `MachineSpec.blocks` it jumps,
    `reached` the configurations their letters reach.

    It takes whole blocks that start up to `last_block`, while the
    register stays wide and the letters reach no more than `room`, and
    the lone letters of a block cut short, then stops: the letter after
    it is one the run must step. A block multiplies the register once by
    its product: v·M1···Mk = v·(M1···Mk), and both registers are in
    canonical form, so it is the register the letters give one at a
    time. Both `run_deterministic` and `accepts` jump here.
    """
    blocks = spec.blocks
    reached = 0
    while position <= last_block and register.bits > WORD_BITS:
        length, target, product, count = blocks(
            state, letters[position:position + BLOCK_LETTERS], register)
        if not length or reached + count > room:
            break
        state, register = target, vec_mat_mul(register, product)
        position += length
        reached += count
        if length < BLOCK_LETTERS:
            break
    return position, state, register, reached


def run_nondeterministic(spec: MachineSpec, word: str, budget: SearchBudget = None) -> RunResult:
    """The search of `nondeterministic_steps`, stepped along one word; its
    result keeps each position's `Frontier` (`RunResult.search`).

    The machine's `last_run` slot caches the last run's search and
    frontiers, read here alone: a run under the same budget and eps cap
    takes the frontiers of the prefix it shares with that run's word and
    steps only the rest (a monoid machine and its `extendedfa_embed`
    share one slot). The cap is one for every length on a machine whose
    default cap cannot bind (`SearchBudget.eps_cap`)."""
    budget = budget or SearchBudget()
    key = (budget, budget.eps_cap(spec, len(word)))
    slot = spec.last_run
    last_run = slot[0]
    if last_run is not None and last_run[0] == key:
        _, previous, steps, frontiers = last_run
        shared = next((i for i, (a, b) in enumerate(zip(previous, word)) if a != b),
                      min(len(previous), len(word)))
        frontiers = list(frontiers[:shared + 1])
    else:
        steps = nondeterministic_steps(spec, budget, len(word))
        frontiers = [steps[0]]
    _, step, end, _, _ = steps
    for letter in word[len(frontiers) - 1:]:
        frontiers.append(step(frontiers[-1], letter))
    frontiers = tuple(frontiers)
    slot[0] = (key, word, steps, frontiers)
    verdict, final, last = end(frontiers[-1])
    if spec.endmarker:
        frontiers += (Frontier(final, final, frontiers[-1].spent, _cut(frontiers[-1], True)),)
    position = len(frontiers) - 1
    if last is None:  # the last configuration at the furthest position reached
        position = max(p for p, frontier in enumerate(frontiers) if frontier.configurations)
        last = next(reversed(frontiers[position].configurations))
    return RunResult(verdict, Configuration(*last, position),
                     (spec, word + ENDMARKER * spec.endmarker, frontiers))


def _backtrack(spec: MachineSpec, letters: str, frontiers: tuple, last: Configuration) -> list:
    """A search's path from the start to `last`, as (configuration, index
    of the rule into it) pairs, from its `RunResult.search`. Each
    configuration's predecessor is the first expanded one, in the order
    reached, whose move to it accounts for its eps moves: a letter move
    from the position before, else an eps move; on a real-time machine,
    the configuration that first reached it."""
    successors = spec.successors
    position, key = last.position, (last.state, last.register)
    eps = frontiers[position].configurations[key]
    path = []
    while position or eps:
        moves = [(position - 1, letters[position - 1], eps)] if position else []
        for source, letter, source_eps in moves + [(position, EPSILON, eps - 1)]:
            prior = next(((prior, idx)
                          for prior, prior_eps in frontiers[source].expanded.items()
                          if prior_eps == source_eps
                          for idx, target, register in successors(prior[0], letter, prior[1])
                          if (target, register) == key), None)
            if prior is not None:
                break
        path.append((Configuration(*key, position), prior[1]))
        position, key, eps = source, prior[0], source_eps
    return [(Configuration(*key, 0), None)] + path[::-1]


def gfa_value(spec: MachineSpec, word: str) -> Fraction:
    """Acceptance value v0 * A_w[1] * ... * A_w[n] * f of a GFA: its
    final register from `run_deterministic`, times the final vector."""
    if spec.kind != GFA:
        raise UnsupportedKindError("gfa_value needs a GFA")
    last = run_deterministic(spec, word).last
    if last.position < len(word):
        raise AlphabetError(f"symbol {word[last.position]!r} has no GFA matrix")
    return dot(last.register, spec.gfa_final_vector)


def accepts(spec: MachineSpec, word: str, budget: SearchBudget = None) -> bool:
    """Language membership verdict of a machine that validates. A
    deterministic machine whose rules conflict raises InconsistentSpecError
    before its first step (`MachineSpec.rule_index`).

    A nondeterministic machine's search is stepped along the word keeping
    only the current `Frontier` (`nondeterministic_steps`), with the verdict of
    `run_nondeterministic`, which keeps every position's for a trace.
    Raises UndecidedError when that search runs out of budget, so an
    unfinished search is never reported as a Reject. The word's last
    letter is judged from the frontier before it by the search's `last`,
    which steps it only where the budget or a status could cut the step
    (`nondeterministic_steps`).

    On a machine without eps rules, a frontier with one configuration
    outside `MachineSpec.sinks`, whose register is wider than
    `WORD_BITS`, jumps over letter blocks (`_jump`) when a letter follows
    them and the budget holds the configurations they reach: the
    frontier becomes that configuration times their products, having
    spent them. Each letter's step would have expanded
    all it reached, and the sinks' configurations have no move at the
    next letter, so that letter's step gives the frontier the per-letter
    search gives, `spent` and `pruned` included. A frontier that is not
    fully expanded has spent the whole budget, so it never jumps.
    """
    if spec.mode == DETERMINISTIC:
        return run_deterministic(spec, word).accepted
    budget = budget or SearchBudget()
    frontier, step, _, verdict, last = nondeterministic_steps(spec, budget, len(word))
    if not word:
        return verdict(frontier, word)
    sinks = spec.sinks
    # a block leaves a letter after it; a counter register takes none
    last_block = (-1 if spec.kind == COUNTER_MACHINE or spec.epsilon_sources
                  else len(word) - BLOCK_LETTERS - 1)
    position, end = 0, len(word) - 1
    while position < end:
        if position <= last_block and len(frontier.configurations) <= len(sinks) + 1:
            live = [key for key in frontier.configurations if key[0] not in sinks]
            if len(live) == 1 and live[0][1].bits > WORD_BITS:
                (state, register), = live
                jumped, state, register, reached = _jump(
                    spec, word, position, last_block, state, register,
                    budget.max_configurations - frontier.spent)
                if jumped > position:
                    configurations = {(state, register): 0}
                    frontier = Frontier(configurations, configurations,
                                        frontier.spent + reached, frontier.pruned)
                    position = jumped
                    if position == end:
                        break
        frontier = step(frontier, word[position])
        position += 1
    return last(frontier, word[end], word)


def _undecided(word: str, budget: SearchBudget) -> UndecidedError:
    return UndecidedError(f"search budget exhausted on input {word!r}",
                          word=word, budget=budget or SearchBudget())


# ---------------------------------------------------------------------------
# runs one letter at a time, and the verdict walk: one search state per
# prefix, shared by every word that extends it


class Frontier(NamedTuple):
    """A search at one position: `configurations` maps each (state,
    register) reached there to its fewest eps moves, in the order first
    reached; `expanded` holds those expanded (`configurations` itself
    when the budget lasted), `spent` counts those expanded so far, and
    `pruned` names the first limit that cut a move off (an eps move so
    far, or any move at an earlier position), ``"eps_per_path"`` or
    ``"max_configurations"``, and is falsy while none has.

    A frontier is equal only to itself, and hashed by identity: its
    budget outcome depends on what its prefix spent, so `walk` shares it
    with no other word."""

    configurations: dict
    expanded: dict
    spent: int
    pruned: object

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class _Uncut(Frontier):
    """A `Frontier` of a search that its budget cannot cut
    (`SearchBudget.binds`): equal to, and hashed as, every other that
    reached the same configurations, since what it spent never counts."""

    __slots__ = ()

    def __eq__(self, other):
        return self.configurations.keys() == other.configurations.keys()

    def __hash__(self):
        return hash(frozenset(self.configurations))


def _cut(frontier: Frontier, moving) -> object:
    """The limit that cut a move off in a search, falsy for none: before
    `frontier`, or, where its configurations move on (`moving`: after a
    letter, or to the end-marker), at one it left unexpanded."""
    unexpanded = moving and len(frontier.expanded) < len(frontier.configurations)
    return frontier.pruned or (unexpanded and "max_configurations")


def nondeterministic_steps(spec: MachineSpec, budget: SearchBudget, length: int):
    """``(start, step, end, verdict, last)``: the search over a word of `length`
    letters (which sets the eps cap, `SearchBudget.eps_cap`), one position
    at a time, as `Frontier`s.
    ``step(frontier, letter)`` takes the expanded configurations' letter
    moves, then eps moves. Both judgments of a word that ends at a
    frontier are here. ``end(frontier)`` is the traced run's
    (`run_nondeterministic`), which keeps where the word ends:
    ``(verdict, final, accepting)``, with `final` the configurations after
    the last letter (and the end-marker, which no eps move follows),
    `accepting` the first accepting one or None. ``verdict(frontier,
    word)`` is `accepts`': it asks `MachineSpec.end_test` of the
    configurations (the expanded ones when the end-marker is read, else
    all reached), builds no end-marker step, and raises UndecidedError
    where `end` finds BudgetExceeded.

    ``last(frontier, letter, word)`` is ``verdict(step(frontier, letter),
    word)``, judged from the frontier where it builds no step: on a
    vector machine with no eps cap (`eps_cap` is ``math.inf``), for a
    letter other than `$`, when no rule along the way reads the status
    and the letter's configurations, counted per path
    (`MachineSpec.last_letter`), fit the room left in the budget. Then
    `close` cuts nothing, so the word is accepted when one of its tests
    takes the register home, else undecided exactly where a move was cut
    off before. Elsewhere it steps the letter.

    Configurations are deduplicated exactly per position. One counts
    against `max_configurations` once, when expanded: its eps moves with
    its letter or end-marker move. After the cap, the configurations
    reached are still judged: an accepting one at the last position
    accepts, and the verdict is BudgetExceeded only where a move was cut
    off, before the frontier or, when its configurations move on (after
    a letter, or to the end-marker), at one it left unexpanded.
    """
    successors, end_test = spec.successors, spec.end_test
    accept_states = spec.accept_states
    home = spec.register_tests[1]
    endmarker = spec.endmarker
    eps_sources = frozenset() if spec.realtime else spec.epsilon_sources
    eps_cap = budget.eps_cap(spec, length)
    max_configurations = budget.max_configurations
    judged = spec.last_letter if eps_cap == math.inf else None
    counts, tests = judged or (None, None)

    def moved(frontier, letter):
        # a configuration reached twice keeps its first place, fewest eps moves
        reached = {}
        for (state, register), eps in frontier.expanded.items():
            for _, target, updated in successors(state, letter, register):
                key = (target, updated)
                if reached.setdefault(key, eps) > eps:
                    reached[key] = eps
        return reached

    def close(kind, reached, spent, pruned):
        # take the configurations up by fewest eps moves, then as reached,
        # expanding each while the budget lasts; `reached` gains what eps
        # moves reach, and the frontier built is of the stepped one's `kind`
        room = max(max_configurations - spent, 0)
        taken = reached
        if eps_sources:
            taken, pending = [], {}
            for key, eps in reached.items():
                pending.setdefault(eps, []).append(key)
            while pending:
                eps = min(pending)
                for key in pending.pop(eps):
                    taken.append(key)
                    if key[0] not in eps_sources:
                        continue
                    if eps >= eps_cap:
                        pruned = pruned or "eps_per_path"
                        continue
                    if len(taken) > room:
                        pruned = pruned or "max_configurations"
                        continue
                    for _, target, register in successors(key[0], EPSILON, key[1]):
                        following = (target, register)
                        known = reached.get(following)
                        if known is None or known > eps + 1:
                            if known is not None:  # still pending, with more eps moves
                                pending[known].remove(following)
                            reached[following] = eps + 1
                            pending.setdefault(eps + 1, []).append(following)
        if len(taken) <= room:
            return kind(reached, reached, spent + len(taken), pruned)
        return kind(reached, {key: reached[key] for key in islice(taken, room)},
                    spent + room, pruned)

    def step(frontier, letter):
        # a `$` inside a word is a letter without a rule
        return close(type(frontier), moved(frontier, letter) if letter != ENDMARKER else {},
                     frontier.spent, _cut(frontier, True))

    def end(frontier):
        final = moved(frontier, ENDMARKER) if endmarker else frontier.configurations
        for key in final:
            if key[0] in accept_states and home(key[1]):
                return ACCEPT, final, key
        return (BUDGET_EXCEEDED if _cut(frontier, endmarker) else REJECT), final, None

    def verdict(frontier, word):
        # the end-marker is read from the expanded configurations only
        for state, register in frontier.expanded if endmarker else frontier.configurations:
            if end_test(state, register):
                return True
        if _cut(frontier, endmarker):
            raise _undecided(word, budget)
        return False

    def last(frontier, letter, word):
        if counts is not None and letter != ENDMARKER:
            reach = sum(counts.get((state, letter), 0) for state, _ in frontier.expanded)
            if reach <= max(max_configurations - frontier.spent, 0):
                for state, register in frontier.expanded:
                    if _lands_home(tests(state, letter), register):
                        return True
                if _cut(frontier, True):
                    raise _undecided(word, budget)
                return False
        return verdict(step(frontier, letter), word)

    start = close(Frontier, {(spec.initial_state, spec.initial_vector): 0}, 0, False)
    return start, step, end, verdict, last


def _lands_home(tests, register) -> bool:
    """Whether one of `tests`, `home_after` tests of the register before a
    word's last letter (`MachineSpec.last_letter`), takes `register` home."""
    for lands_home in tests:
        if lands_home(register):
            return True
    return False


def searches(spec: MachineSpec, budget: SearchBudget = None, maxlen: int = None):
    """``(start, step, verdict, last)``, the search of `walk` over words of
    up to `maxlen` letters (None: of any length): ``step(node, letter)``
    is the next node, ``verdict(node, word)`` is `accepts(spec, word,
    budget)` and ``last(node, letter, word)`` is ``verdict(step(node,
    letter), word)``.

    A deterministic node is the run's ``(state, register)``, and its step
    None once the run dies. Its verdict asks `MachineSpec.end_test`,
    so it builds no end-marker step. Its `last` reads
    `MachineSpec.last_letter` as the nondeterministic one does: no rule
    for the letter is a Reject; where neither the letter's rule nor an
    accepting `$` rule after it reads the status, the word is accepted
    when one of the letter's tests takes the register home, with no
    register built; elsewhere, and on a counter machine, it steps the
    letter (`stepped`). A real-time machine with no budget cuts nothing,
    so it needs no room. A nondeterministic search is
    `nondeterministic_steps`', whose node is a `Frontier` that counts the
    budget along its own prefix, and whose `last` judges the letter from
    the frontier before it where nothing can be cut, else steps it.

    Where the eps cap grows with the word (`SearchBudget.eps_cap`), no
    prefix's frontier serves a longer word: the node is the word itself
    (`by_word`), judged by its own `run_nondeterministic`, and the words
    of one length share their prefixes' frontiers in the `last_run` slot.

    The nodes' own equality says which words `walk` shares them between.
    A deterministic node compares by value, and no two words reach one
    word node. A `Frontier` equals only itself, except where the budget
    cannot cut a search over words of up to `maxlen` letters
    (`SearchBudget.binds`, asked here alone): there what a frontier spent
    never counts, and its node is equal to, and hashed as, every
    frontier that reached the same configurations.
    """
    if spec.mode == DETERMINISTIC:
        successors, end_test = spec.successors, spec.end_test

        def step(node, letter):
            fired = successors(node[0], letter, node[1])
            return fired[0][1:] if fired else None

        def verdict(node, word):
            return node is not None and end_test(*node)

        stepping = stepped(step, verdict)
        if spec.last_letter is None:  # a counter machine
            last = stepping
        else:
            counts, tests = spec.last_letter

            def last(node, letter, word):
                state, register = node
                count = counts.get((state, letter))
                if count is None:  # no rule reads the letter
                    return False
                if count == math.inf:
                    return stepping(node, letter, word)
                return _lands_home(tests(state, letter), register)

        return (spec.initial_state, spec.initial_vector), step, verdict, last

    budget = budget or SearchBudget()
    if budget.eps_cap(spec, 0) != budget.eps_cap(spec, 1):
        def member(word):
            verdict = run_nondeterministic(spec, word, budget).verdict
            if verdict == BUDGET_EXCEEDED:
                raise _undecided(word, budget)
            return verdict == ACCEPT
        return by_word(member)
    start, step, _, verdict, last = nondeterministic_steps(spec, budget, 0)
    if not budget.binds(spec, maxlen):  # its steps keep the start's class
        start = _Uncut(*start)
    return start, step, verdict, last


def stepped(step, verdict):
    """The `last` of a search that judges a word's last letter by stepping
    it: ``verdict(step(node, letter), word)``, a dead node (None) a Reject.
    A reference's search uses it, and a deterministic machine's where
    `MachineSpec.last_letter` cannot judge the letter."""
    def last(node, letter, word):
        child = step(node, letter)
        return child is not None and verdict(child, word)
    return last


def by_word(member):
    """The search whose node is the word itself, each word judged by
    ``member(word)``: a reference without steps, and a machine whose eps
    cap grows with the word (`searches`)."""
    def verdict(w, word):
        return member(word)
    return "", str.__add__, verdict, stepped(str.__add__, verdict)


def walk(search, alphabet, maxlen: int, drop_twins: bool = False):
    """``(word, verdict)`` for the words over `alphabet` up to `maxlen`, in
    length-lex order, from `search`, a ``(start, step, verdict, last)``
    (see `searches`).

    The words are a trie of prefixes, walked level by level. A word's node
    is its parent's stepped by one letter just before its verdict is
    asked, so a caller that stops early steps no later word. A node None
    is dead: a Reject, stepped and judged no further. The words of length
    `maxlen` extend no further, so each is judged from its parent by the
    search's ``last(node, letter, word)``, which builds no node where it
    need not.

    The nodes' own ``==`` and hash say which words share them: a twin is a
    word whose node equals one an earlier word reached. Deterministic runs
    and a reference's states compare by value, a word node (`by_word`) is
    its word's alone, and a `Frontier` equals only itself unless its
    budget cannot cut it (`searches`). Each distinct node of a level is
    stepped once per letter, and its child judged once, by the first word
    in length-lex order that needs it; every word is yielded, a twin with
    its node's verdict. At the last level each ``(node, letter)`` pair is
    judged once by `last`.

    With `drop_twins`, where equal nodes fix equal verdicts and futures,
    a twin of an earlier level or of its own is stepped, but
    neither judged, yielded nor extended: it and its extensions have
    earlier twins with the same verdicts. The walk then ends at the first
    level below `maxlen` that reaches no new node (Hopcroft and Karp
    1971). Its last level is judged by `last` too, twins included: a
    twin's verdict is its earlier twin's, which comes first in length-lex
    order, so a caller that stops at the first word with some verdict
    stops at the same word.

    A negative `maxlen` bounds no word, not even the empty one: it raises
    DomainError.
    """
    if maxlen < 0:
        raise DomainError(f"maxlen must be nonnegative, got {maxlen}")
    start, step, verdict, last = search
    yield "", verdict(start, "")
    # a level pairs each word with its node's index in `nodes`, and `index`
    # maps each node to its index: over the level, or over the walk when
    # twins are dropped
    level, nodes, index = [("", 0)], [start], {start: 0}
    letters, width = tuple(enumerate(alphabet)), len(alphabet)
    for length in range(1, maxlen + 1):
        # what each (node, letter) pair gave the first word that needed it:
        # at the last level its verdict, else its child's index
        pairs = [None] * (len(nodes) * width)
        if length == maxlen:
            for w, ref in level:
                node = nodes[ref]
                for a, letter in letters:
                    word = w + letter
                    pair = ref * width + a
                    if pairs[pair] is None:
                        pairs[pair] = node is not None and last(node, letter, word)
                    yield word, pairs[pair]
            return
        if not drop_twins:
            index = {}
        following, verdicts, kept = [], [], []
        for w, ref in level:
            node = nodes[ref]
            for a, letter in letters:
                word = w + letter
                pair = ref * width + a
                child_index = pairs[pair]
                if child_index is None:
                    child = None if node is None else step(node, letter)
                    known = len(index)  # one hash per node: a new node grows the index
                    child_index = pairs[pair] = index.setdefault(child, len(following))
                    if len(index) > known:
                        following.append(child)
                        verdicts.append(child is not None and verdict(child, word))
                    elif drop_twins:
                        continue
                kept.append((word, child_index))
                yield word, verdicts[child_index]
        if not kept:
            return
        level, nodes = kept, following


def extendedfa_embed(spec: MachineSpec) -> MachineSpec:
    """Recast a matrix-monoid machine as a blind nondeterministic HVA.

    The register of a k x k matrix-monoid machine is already simulated
    as a row-major-flattened vector of length k^2 with effects of the
    form I tensor M, so the embedding re-labels the kind and dimension;
    identity-register acceptance becomes vector-equals-initial
    acceptance over the flattened identity. Everything else, the
    end-marker included, carries over.

    Both machines fire the same rules on the same registers and, blind,
    read no status, so the embedding shares its source's `successors`,
    memo included: its runs reuse the steps its source's runs computed.
    With the same states, accept states, end-marker and home test
    (register equal to the flattened identity), their searches are the
    same function of the word, so they share one `last_run` slot too:
    the embedding's run of the word its source just ran steps no letter.
    """
    if spec.kind != EXTENDED_FA:
        raise UnsupportedKindError("extendedfa_embed needs a matrix-monoid machine")
    embedded = replace(spec, kind=HVA, mode=NONDETERMINISTIC, blind=True,
                       dimension=spec.dimension * spec.dimension)
    for name in ("successors", "last_run"):
        vars(embedded)[name] = getattr(spec, name)  # where cached_property keeps it
    return embedded
