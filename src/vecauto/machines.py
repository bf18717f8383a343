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
safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, islice
from typing import NamedTuple

from .errors import (
    AlphabetError,
    InconsistentSpecError,
    ShapeError,
    UndecidedError,
    UnsupportedKindError,
)
from .exact import Matrix, RowVector, dot, tensor, vec_mat_mul

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

    `rule_index` and the compiled transition function `successors` are
    built on first use and cached on the instance; equality and hashing
    see only the fields.
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
    def rule_index(self) -> dict:
        """``(source, input)`` -> its ``(rule index, status, effect, target)`` tuples."""
        index = {}
        for idx, r in enumerate(self.transitions):
            index.setdefault((r.source, r.input), []).append((idx, r.status, r.effect, r.target))
        return index

    @cached_property
    def successors(self):
        """The transition function: ``successors(state, letter, register)``
        lists ``(rule index, target, register)`` for every rule that fires.

        A rule fires when its status is the wildcard or equals the
        register's status. Register updates recur across the runs of one
        machine (different words and queries reach the same register), so
        they are memoized per (rule index, register); entries are exact
        and immutable and live as long as the machine. Bounded
        enumeration steps each shared prefix once (`walk`), so its hits
        come from distinct prefixes that reach one register.
        """
        index = self.rule_index
        memo = {}
        status_of_register = self.register_tests[0]
        counter = self.kind == COUNTER_MACHINE

        def successors(state, letter, register):
            fired = []
            current = None
            for idx, status, effect, target in index.get((state, letter), ()):
                if status != STATUS_ANY:
                    if current is None:
                        current = status_of_register(register)
                    if status != current:
                        continue
                key = (idx, register)
                updated = memo.get(key)
                if updated is None:
                    if counter:
                        updated = tuple(c + d for c, d in zip(register, effect))
                    else:
                        updated = vec_mat_mul(register, effect)
                    memo[key] = updated
                fired.append((idx, target, updated))
            return fired

        return successors

    @cached_property
    def register_tests(self):
        """``(status, accepting)`` functions of a register, both from the
        kind's one "register is home" test: first entry 1 for VA, the
        initial vector for HVA and monoid machines, 1 for FAM, value
        (register times final vector) at the cutpoint for GFA, all
        counters 0 for counter machines. A counter machine's status is
        that test per counter; an unblind one accepts any register.
        """
        if self.kind == COUNTER_MACHINE:
            def status(register):
                return tuple(STATUS_EQ if c == 0 else STATUS_NE for c in register)
            if self.blind:
                return status, lambda register: not any(register)
            return status, lambda register: True
        if self.kind == VA:
            def home(register):
                return register.nums[0] == register.den
        elif self.kind == GFA:
            final, cutpoint = self.gfa_final_vector, self.gfa_cutpoint

            def home(register):
                return dot(register, final) == cutpoint
        else:
            initial = RowVector([1]) if self.kind == FAM else self.initial_vector

            def home(register):
                return register == initial
        return (lambda register: STATUS_EQ if home(register) else STATUS_NE), home

    @cached_property
    def epsilon_sources(self) -> frozenset:
        """States with at least one eps rule, whatever its status."""
        return frozenset(r.source for r in self.transitions if r.input == EPSILON)


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
    reached). A search keeps `backtrack`, which rebuilds its path from
    the start to a configuration as (configuration, rule index) pairs;
    `trace` and `accepting_path` read it."""

    verdict: str
    last: Configuration
    backtrack: object = field(default=None, repr=False, compare=False)

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPT

    @property
    def trace(self) -> tuple:
        """A search's configurations from the start to `last`."""
        if self.backtrack is not None:
            return tuple(configuration for configuration, _ in self.backtrack(self.last))

    @property
    def accepting_path(self) -> tuple:
        """The indices of the rules along an accepting search's path."""
        if self.backtrack is not None and self.accepted:
            return tuple(idx for _, idx in self.backtrack(self.last)[1:])


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
    """

    eps_per_path: int = None
    max_configurations: int = DEFAULT_MAX_CONFIGURATIONS

    def eps_cap(self, spec: MachineSpec, length: int) -> int:
        """The eps moves a path may spend on a word of `length` letters."""
        if self.eps_per_path is not None:
            return self.eps_per_path
        return len(spec.states) * (length + 2)


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

    if spec.mode == DETERMINISTIC:
        for (state, sym), rules in spec.rule_index.items():
            for (i, a, *_), (j, b, *_) in combinations(rules, 2):
                if STATUS_ANY in (a, b) or a == b:  # both statuses can hold at once
                    bad(f"deterministic conflict: transitions #{i} and #{j} "
                        f"both apply in ({state},{sym})")

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
    `last` is then the configuration that had no move.
    """
    if spec.mode != DETERMINISTIC:
        raise InconsistentSpecError("run_deterministic needs a deterministic machine")
    successors = spec.successors
    state, register = spec.initial_state, spec.initial_vector
    letters = word + ENDMARKER if spec.endmarker else word
    for position, letter in enumerate(letters):
        fired = successors(state, letter, register)
        if not fired:
            return RunResult(REJECT, Configuration(state, register, position))
        if len(fired) > 1:
            raise _conflict(fired, state, letter)
        _, state, register = fired[0]
    accepted = state in spec.accept_states and spec.register_tests[1](register)
    return RunResult(ACCEPT if accepted else REJECT, Configuration(state, register, len(letters)))


def run_nondeterministic(spec: MachineSpec, word: str, budget: SearchBudget = None) -> RunResult:
    """The search of `nondeterministic_steps`, stepped along one word. It
    keeps each position's configurations, from which `trace` and
    `accepting_path` rebuild a path backwards (`_backtrack`)."""
    start, step, end = nondeterministic_steps(spec, budget or SearchBudget(), len(word))
    frontiers = [start]
    for letter in word:
        frontiers.append(step(frontiers[-1], letter))
    verdict, final, last = end(frontiers[-1])
    levels = [(f.configurations, f.expanded) for f in frontiers] + [(final, final)] * spec.endmarker
    position = len(levels) - 1
    if last is None:  # the last configuration at the furthest position reached
        position = max(p for p, (configurations, _) in enumerate(levels) if configurations)
        last = next(reversed(levels[position][0]))
    return RunResult(verdict, Configuration(*last, position),
                     partial(_backtrack, spec, word + ENDMARKER * spec.endmarker, levels))


def _backtrack(spec: MachineSpec, letters: str, levels: list, last: Configuration) -> list:
    """A search's path from the start to `last`, as (configuration, index
    of the rule into it) pairs, from each position's (configurations,
    expanded) in `levels`. Each configuration's predecessor is the first
    expanded one, in the order reached, whose move to it accounts for
    its eps moves: a letter move from the position before, else an eps
    move; on a real-time machine, the configuration that first reached it."""
    successors = spec.successors
    position, key = last.position, (last.state, last.register)
    eps = levels[position][0][key]
    path = []
    while position or eps:
        moves = [(position - 1, letters[position - 1], eps)] if position else []
        for source, letter, source_eps in moves + [(position, EPSILON, eps - 1)]:
            prior = next(((prior, idx)
                          for prior, prior_eps in levels[source][1].items()
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
    """Language membership verdict; assumes the spec validates cleanly.

    Raises UndecidedError when nondeterministic search runs out of
    budget, so an unfinished search is never reported as a Reject.
    """
    if spec.mode == DETERMINISTIC:
        return run_deterministic(spec, word).accepted
    result = run_nondeterministic(spec, word, budget)
    if result.verdict == BUDGET_EXCEEDED:
        raise _undecided(word, budget)
    return result.accepted


def _conflict(fired: list, state: str, letter: str) -> InconsistentSpecError:
    return InconsistentSpecError(
        f"deterministic machine has {len(fired)} successors in ({state},{letter})")


def _undecided(word: str, budget: SearchBudget) -> UndecidedError:
    return UndecidedError(f"search budget exhausted on input {word!r}",
                          word=word, budget=budget or SearchBudget())


# ---------------------------------------------------------------------------
# runs one letter at a time, and the verdict walk: one search state per
# prefix, shared by every word that extends it


def deterministic_steps(spec: MachineSpec):
    """``(start, step, accepting)``: a deterministic machine's run, one
    letter at a time, for the walks that step runs themselves. A node is
    the run's ``(state, register)``; ``step(node, letter)`` is the node
    after `letter`, or None once the run died; ``accepting(node)`` is the
    verdict of a run that ends at `node`, after the end-marker when the
    machine reads one. Neither takes the dead node None: the walks judge
    it a Reject and step it no further. A rule conflict raises
    InconsistentSpecError where `run_deterministic` does.
    """
    successors = spec.successors
    accept_states = spec.accept_states
    home = spec.register_tests[1]
    endmarker = spec.endmarker

    def step(node, letter):
        fired = successors(node[0], letter, node[1])
        if len(fired) == 1:
            return fired[0][1:]
        if fired:
            raise _conflict(fired, node[0], letter)
        return None

    def accepting(node):
        if endmarker:
            node = step(node, ENDMARKER)
            if node is None:
                return False
        return node[0] in accept_states and home(node[1])

    return (spec.initial_state, spec.initial_vector), step, accepting


class Frontier(NamedTuple):
    """A search at one position: `configurations` maps each (state,
    register) reached there to its fewest eps moves, in the order first
    reached; `expanded` holds those expanded (`configurations` itself
    when the budget lasted), `spent` counts those expanded so far, and
    `pruned` records a move cut off (an eps move so far, or any move at
    an earlier position) by the eps cap or `max_configurations`."""

    configurations: dict
    expanded: dict
    spent: int
    pruned: bool


def nondeterministic_steps(spec: MachineSpec, budget: SearchBudget, length: int):
    """``(start, step, end)``: the search over a word of `length` letters
    (which sets the eps cap), one position at a time, as `Frontier`s.
    ``step(frontier, letter)`` takes the expanded configurations' letter
    moves, then eps moves; ``end(frontier)`` judges a word that ends
    there: ``(verdict, final, accepting)``, with `final` the
    configurations after the last letter (and the end-marker, which no
    eps move follows), `accepting` the first accepting one or None.

    Configurations are deduplicated exactly per position. One counts
    against `max_configurations` once, when expanded: its eps moves with
    its letter or end-marker move. After the cap, the configurations
    reached are still judged: an accepting one at the last position
    accepts, and the verdict is BudgetExceeded only where a move was left.
    """
    successors = spec.successors
    accept_states = spec.accept_states
    home = spec.register_tests[1]
    endmarker = spec.endmarker
    eps_sources = frozenset() if spec.realtime else spec.epsilon_sources
    eps_cap = budget.eps_cap(spec, length)
    max_configurations = budget.max_configurations

    def moved(frontier, letter):
        # a configuration reached twice keeps its first place, fewest eps moves
        reached = {}
        for (state, register), eps in frontier.expanded.items():
            for _, target, updated in successors(state, letter, register):
                key = (target, updated)
                if reached.setdefault(key, eps) > eps:
                    reached[key] = eps
        return reached

    def close(reached, spent, pruned):
        # take the configurations up by fewest eps moves, then as reached,
        # expanding each while the budget lasts; `reached` gains what eps
        # moves reach
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
                    if eps >= eps_cap or len(taken) > room:
                        pruned = True
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
            return Frontier(reached, reached, spent + len(taken), pruned)
        return Frontier(reached, {key: reached[key] for key in islice(taken, room)},
                        spent + room, pruned)

    def step(frontier, letter):
        return close(moved(frontier, letter), frontier.spent,
                     frontier.pruned or len(frontier.expanded) < len(frontier.configurations))

    def end(frontier):
        final, pruned = frontier.configurations, frontier.pruned
        if endmarker:
            final = moved(frontier, ENDMARKER)
            pruned = pruned or len(frontier.expanded) < len(frontier.configurations)
        for key in final:
            if key[0] in accept_states and home(key[1]):
                return ACCEPT, final, key
        return (BUDGET_EXCEEDED if pruned else REJECT), final, None

    return close({(spec.initial_state, spec.initial_vector): 0}, 0, False), step, end


def walk(spec: MachineSpec, maxlen: int, budget: SearchBudget = None):
    """``(word, verdict)`` for every word up to `maxlen` in length-lex
    order: the verdict is `accepts(spec, word, budget)`, found one letter
    at a time, and the first word whose search runs out of budget raises
    UndecidedError.

    The words are a trie of prefixes, walked level by level. A word's
    search state is its parent's stepped by one letter, just before its
    verdict is yielded, so a caller that stops early steps no later word.
    A deterministic state is a `deterministic_steps` node, or None once
    the run died; a nondeterministic one is a `nondeterministic_steps`
    `Frontier`, whose budget counts along its own prefix, so each word
    gets the verdict of its own search. When the eps cap grows with the
    word length (eps rules, `eps_per_path` unset), each length gets its
    own trie under its own cap.
    """
    if spec.mode == DETERMINISTIC:
        start, step, accepting = deterministic_steps(spec)

        def search(length):
            return start, step, lambda node, word: node is not None and accepting(node)

        cap_grows = False
    else:
        budget = budget or SearchBudget()

        def search(length):
            start, step, end = nondeterministic_steps(spec, budget, length)

            def verdict(frontier, word):
                outcome = end(frontier)[0]
                if outcome == BUDGET_EXCEEDED:
                    raise _undecided(word, budget)
                return outcome == ACCEPT

            return start, step, verdict

        cap_grows = (not spec.realtime and bool(spec.epsilon_sources)
                     and budget.eps_per_path is None)

    alphabet = spec.alphabet

    def children(level, step):
        # lazy, so a word's state is stepped only when its verdict is asked
        for w, node in level:
            for letter in alphabet:
                yield w + letter, None if node is None else step(node, letter)

    for length in range(maxlen + 1):
        if length == 0 or cap_grows:
            # a cap that grows with the word length gives each length its
            # own trie, whose prefixes are stepped again, lazily, under it
            start, step, verdict = search(length)
            level = [("", start)]
            for _ in range(length):
                level = children(level, step)
        else:
            level = children(level, step)
        kept = []
        for w, node in level:
            yield w, verdict(node, w)
            kept.append((w, node))
        level = kept

def extendedfa_embed(spec: MachineSpec) -> MachineSpec:
    """Recast a matrix-monoid machine as a blind nondeterministic HVA.

    The register of a k x k matrix-monoid machine is already simulated
    as a row-major-flattened vector of length k^2 with effects of the
    form I tensor M, so the embedding re-labels the kind and dimension;
    identity-register acceptance becomes vector-equals-initial
    acceptance over the flattened identity. Everything else, the
    end-marker included, carries over.
    """
    if spec.kind != EXTENDED_FA:
        raise UnsupportedKindError("extendedfa_embed needs a matrix-monoid machine")
    return replace(spec, kind=HVA, mode=NONDETERMINISTIC, blind=True,
                   dimension=spec.dimension * spec.dimension)
