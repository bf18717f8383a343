"""Machine-to-machine transformation passes.

Each pass is a pure function from one MachineSpec to an equivalent one
(plus a TransformReport describing what happened), and each is checked
in the test suite by bounded language equivalence against its source.
Passes never mutate their inputs, so pipelines stay diffable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import InvalidScalarError, UnsupportedPassError
from .exact import (
    Matrix,
    RowVector,
    common_denominator_scalar,
    direct_sum,
    mat_mul,
)
from .machines import (
    COUNTER_MACHINE,
    DETERMINISTIC,
    ENDMARKER,
    HVA,
    NONDETERMINISTIC,
    STATUS_ANY,
    STATUS_EQ,
    STATUS_NE,
    VA,
    MachineSpec,
    SearchBudget,
    TransitionRule,
    run_nondeterministic,
    stateless,
)
from .machines import ACCEPT as _ACCEPT
from .machines import BUDGET_EXCEEDED as _BUDGET

_FRESH_ACCEPT = "q_acc"
_FRESH_INITIAL = "q_init"


@dataclass(frozen=True)
class TransformReport:
    pass_name: str
    input_summary: dict
    output_summary: dict
    parameters: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "pass": self.pass_name,
            "input": self.input_summary,
            "output": self.output_summary,
            "parameters": self.parameters,
        }


def _report(name, input_summary, out, **params) -> TransformReport:
    return TransformReport(name, input_summary, out.summary(), dict(params))


def _fresh_name(base: str, taken) -> str:
    name = base
    n = 2
    while name in taken:
        name = f"{base}{n}"
        n += 1
    return name


def as_nondeterministic(spec: MachineSpec) -> MachineSpec:
    """Relax the mode flag; a deterministic machine is a special case."""
    if spec.mode == NONDETERMINISTIC:
        return spec
    return replace(spec, mode=NONDETERMINISTIC)


def scale_initial_vector(spec: MachineSpec, t):
    """Replace the initial vector v0 with t*v0 for a nonzero rational t.

    The register evolves linearly and homing acceptance compares the
    final vector against the initial one, so both sides scale together
    and the recognized language is unchanged.
    """
    try:
        t = Fraction(t)
    except (ValueError, TypeError, ZeroDivisionError):
        raise InvalidScalarError(f"scale factor must be a rational, got {t!r}") from None
    if t == 0:
        raise InvalidScalarError("scale factor must be nonzero")
    if spec.kind != HVA:
        raise UnsupportedPassError("initial-vector scaling applies to homing machines")
    out = replace(spec, initial_vector=spec.initial_vector.scale(t))
    return out, _report("scale_initial_vector", spec.summary(), out, t=str(t))


def remove_endmarker(spec: MachineSpec, budget: SearchBudget = None):
    """Fold the end-marker postprocessing of a blind nondeterministic HVA
    into extra states.

    The output keeps every original state (now non-accepting) and adds a
    fresh accept state; whenever reading sigma could put the source in a
    state from which the end-marker leads to an accept state, a new
    branch jumps straight to the fresh accept state with the combined
    effect A_sigma * A_$. If the source accepts the empty string, one
    more state is added: a fresh initial accept state with no incoming
    transitions that otherwise behaves like the original initial state.
    """
    if spec.kind != HVA or not spec.blind:
        raise UnsupportedPassError("end-marker removal applies to blind homing machines")
    if spec.mode != NONDETERMINISTIC:
        raise UnsupportedPassError(
            "end-marker removal applies to nondeterministic machines; "
            "relax the mode first (a deterministic machine is a special case)"
        )
    if not spec.endmarker:
        raise UnsupportedPassError("machine has no end-marker to remove")

    accept_name = _fresh_name(_FRESH_ACCEPT, spec.states)
    final_rules = {}  # state -> effects of $-rules into accept states
    for r in spec.transitions:
        if r.input == ENDMARKER and r.target in spec.accept_states:
            final_rules.setdefault(r.source, []).append(r.effect)

    rules = []
    for r in spec.transitions:
        if r.input == ENDMARKER:
            continue
        rules.append(r)
        for closing in final_rules.get(r.target, ()):
            rules.append(
                TransitionRule(r.source, r.input, STATUS_ANY, accept_name,
                               mat_mul(r.effect, closing))
            )

    states = spec.states + (accept_name,)
    accept_states = {accept_name}
    initial_state = spec.initial_state

    empty_run = run_nondeterministic(spec, "", budget)
    if empty_run.verdict == _BUDGET:
        raise UnsupportedPassError(
            "could not decide empty-string membership within the search budget"
        )
    accepts_empty = empty_run.verdict == _ACCEPT
    if accepts_empty:
        initial_state = _fresh_name(_FRESH_INITIAL, states)
        for r in list(rules):
            if r.source == spec.initial_state:
                rules.append(TransitionRule(initial_state, r.input, r.status,
                                            r.target, r.effect))
        states = states + (initial_state,)
        accept_states.add(initial_state)

    out = replace(
        spec,
        mode=NONDETERMINISTIC,
        endmarker=False,
        states=states,
        initial_state=initial_state,
        accept_states=frozenset(accept_states),
        transitions=tuple(rules),
    )
    return out, _report("remove_endmarker", spec.summary(), out, accepts_empty=accepts_empty)


def bordered_matrix(a: Matrix, c: int) -> Matrix:
    """The direct sum of c*a and diag(c, 1): the extra two entries track
    the accumulated power of c and a constant 1 through a run."""
    return direct_sum(a.scale(c), Matrix.from_rows([[c, 0], [0, 1]]))


def endmarker_postprocess_matrix(v0: RowVector) -> Matrix:
    """The (k+2)-square matrix that cancels the accumulated c-power:
    -I above two copies of the integer initial vector, so that the final
    register returns to (v0, 1, 1) exactly on accepting runs."""
    k = v0.dim
    rows = []
    for i in range(k):
        rows.append([-1 if j == i else 0 for j in range(k)] + [0, 0])
    rows.append(list(v0.entries) + [0, 0])
    rows.append(list(v0.entries) + [1, 1])
    return Matrix.from_rows(rows)


def rationals_to_integers(spec: MachineSpec):
    """Rebuild a blind HVA-with-end-marker over integer matrices only.

    The initial vector is first scaled to be integral. With c the least
    common denominator of every effect, each non-$ effect A becomes the
    bordered matrix of c*A and each $-effect is additionally multiplied
    by the postprocessing matrix built from -I and rows of the integer
    initial vector. Dimension grows from k to k+2; the state count and
    the recognized language are unchanged.
    """
    if spec.kind != HVA or not spec.blind:
        raise UnsupportedPassError("integer conversion applies to blind homing machines")
    if not spec.endmarker:
        raise UnsupportedPassError(
            "integer conversion needs the end-marker postprocessing step"
        )

    t = math.lcm(*(e.denominator for e in spec.initial_vector.entries))
    scaled = spec
    if t != 1:
        scaled, _ = scale_initial_vector(spec, t)
    v0 = scaled.initial_vector

    c = common_denominator_scalar([r.effect for r in scaled.transitions])
    postprocess = endmarker_postprocess_matrix(v0)
    rules = []
    for r in scaled.transitions:
        lifted = bordered_matrix(r.effect, c)
        if r.input == ENDMARKER:
            lifted = mat_mul(lifted, postprocess)
        rules.append(TransitionRule(r.source, r.input, r.status, r.target, lifted))

    out = replace(
        scaled,
        dimension=scaled.dimension + 2,
        initial_vector=RowVector(list(v0.entries) + [1, 1]),
        transitions=tuple(rules),
    )
    return out, _report("rationals_to_integers", spec.summary(), out, c=c, initial_scale=t)


def _status_variants(spec: MachineSpec):
    if spec.blind:
        return (STATUS_ANY,)
    return (STATUS_EQ, STATUS_NE)


def eliminate_states(spec: MachineSpec):
    """Collapse an n-state deterministic VA into a single-state VA of
    dimension n*k+1.

    The big vector holds one k-wide block per original state; at every
    step only the block of the current state is populated, and the extra
    first entry carries the sum of all block-leading entries, which
    equals the simulated first entry, so both the mid-run status test
    and final acceptance carry over. As a prepass, every $-rule into a
    non-accepting state has its effect replaced by the zero matrix, so
    acceptance reduces to the first-entry test alone.
    """
    if spec.kind != VA:
        raise UnsupportedPassError("state elimination applies to vector automata")
    if spec.mode != DETERMINISTIC:
        raise UnsupportedPassError("state elimination applies to deterministic machines")
    if not spec.endmarker:
        raise UnsupportedPassError(
            "state elimination relies on the end-marker acceptance step"
        )

    k = spec.dimension
    n = len(spec.states)
    dim = n * k + 1
    block = {q: 1 + i * k for i, q in enumerate(spec.states)}

    normalized = []
    for r in spec.transitions:
        if r.input == ENDMARKER and r.target not in spec.accept_states:
            r = TransitionRule(r.source, r.input, r.status, r.target, Matrix.zero(k, k))
        normalized.append(r)

    letters = tuple(spec.alphabet) + ((ENDMARKER,) if spec.endmarker else ())
    big_rules = []
    for letter in letters:
        for status in _status_variants(spec):
            entries = [[0] * dim for _ in range(dim)]
            populated = False
            for r in normalized:
                if r.input != letter:
                    continue
                if r.status != STATUS_ANY and r.status != status:
                    continue
                populated = True
                src, dst = block[r.source], block[r.target]
                for s in range(k):
                    row = entries[src + s]
                    for t_ in range(k):
                        row[dst + t_] = r.effect.entry(s, t_)
                    row[0] = r.effect.entry(s, 0)
            if not populated:
                continue  # no source rule: the path dies, blocks map to zero anyway
            big_rules.append((letter, Matrix.from_rows(entries), status))

    v0 = spec.initial_vector
    big_v0 = [v0[0]] + [0] * (dim - 1)
    start = block[spec.initial_state]
    for s in range(k):
        big_v0[start + s] = v0[s]

    out = stateless(VA, spec.alphabet, dim, big_v0, big_rules, blind=spec.blind, endmarker=True)
    return out, _report("eliminate_states", spec.summary(), out, blocks=n, block_width=k)


_PRIME_CACHE = [2, 3, 5, 7, 11, 13]


def nth_prime(i: int) -> int:
    """The i-th prime, 0-based (2, 3, 5, ...)."""
    while len(_PRIME_CACHE) <= i:
        candidate = _PRIME_CACHE[-1] + 2
        while any(candidate % p == 0 for p in _PRIME_CACHE if p * p <= candidate):
            candidate += 2
        _PRIME_CACHE.append(candidate)
    return _PRIME_CACHE[i]


def prime_power_product(exponents) -> Fraction:
    """prod_i p_i^(e_i) over the first primes p_0 = 2, p_1 = 3, ...;
    negative exponents divide."""
    m = Fraction(1)
    for i, e in enumerate(exponents):
        m *= Fraction(nth_prime(i)) ** e
    return m


def counters_to_hva1(spec: MachineSpec):
    """Encode a blind k-counter machine in a one-dimensional homing
    register over positive rationals.

    Counter i is assigned the i-th prime p_i; a step updating the
    counters by (c_1, ..., c_k) multiplies the register by the product
    of p_i^(c_i). The register returns to 1 exactly when every net count
    is zero, so blind-counter acceptance carries over unchanged.
    """
    if spec.kind != COUNTER_MACHINE:
        raise UnsupportedPassError("prime encoding applies to counter machines")
    if not spec.blind:
        raise UnsupportedPassError(
            "prime encoding cannot express mid-run zero-tests; machine must be blind"
        )

    rules = [
        TransitionRule(r.source, r.input, STATUS_ANY, r.target,
                       Matrix.from_rows([[prime_power_product(r.effect)]]))
        for r in spec.transitions
    ]
    out = replace(spec, kind=HVA, dimension=1, initial_vector=RowVector([1]),
                  transitions=tuple(rules))
    primes = [nth_prime(i) for i in range(spec.dimension)]
    return out, _report("counters_to_hva1", spec.summary(), out, primes=primes)


def attach_trivial_endmarker(spec: MachineSpec):
    """Give an end-marker-free HVA an identity $-step in every state."""
    if spec.kind != HVA or spec.endmarker:
        raise UnsupportedPassError("can only attach an end-marker to a plain HVA")
    identity = Matrix.identity(spec.dimension)
    rules = list(spec.transitions) + [
        TransitionRule(q, ENDMARKER, STATUS_ANY if spec.blind else STATUS_EQ, q, identity)
        for q in spec.states
    ]
    if not spec.blind:
        rules += [
            TransitionRule(q, ENDMARKER, STATUS_NE, q, identity) for q in spec.states
        ]
    out = replace(spec, endmarker=True, transitions=tuple(rules))
    return out, _report("attach_trivial_endmarker", spec.summary(), out)


def counters_to_integer_hva3(spec: MachineSpec, budget: SearchBudget = None):
    """Pipeline: blind counter machine -> integer 3-dimensional blind HVA.

    Composes the prime encoding, a trivial end-marker (only when the
    machine has none of its own), the integer conversion (dimension
    1 -> 3), and end-marker removal. Stage reports are kept in the
    pipeline report for debugging.
    """
    marked, r1 = counters_to_hva1(spec)
    reports = [r1]
    if not marked.endmarker:
        marked, r2 = attach_trivial_endmarker(marked)
        reports.append(r2)
    lifted, r3 = rationals_to_integers(marked)
    out, r4 = remove_endmarker(as_nondeterministic(lifted), budget)
    stages = [r.to_record() for r in reports + [r3, r4]]
    return out, _report("counters_to_integer_hva3", spec.summary(), out, stages=stages)


@dataclass
class DFA:
    """A classical DFA; the transition map may be partial (missing moves trap)."""

    states: tuple
    alphabet: tuple
    initial_state: str
    accept_states: frozenset
    delta: dict  # (state, symbol) -> state

    def __post_init__(self):
        self.states = tuple(self.states)
        self.alphabet = tuple(self.alphabet)
        self.accept_states = frozenset(self.accept_states)
        self.delta = dict(self.delta)


def dfa_to_stateless_dbhva(dfa: DFA):
    """Turn a DFA whose initial state is its only accept state into a
    stateless blind deterministic HVA.

    State q_i becomes the basis vector e_i; A_sigma has a 1 in (i, j)
    exactly when the DFA moves from q_i to q_j on sigma. Missing moves
    leave a zero row, so the vector collapses to zero and can never
    return to e_1: partial DFAs trap as expected.
    """
    if dfa.initial_state not in dfa.states:
        raise UnsupportedPassError("DFA initial state is not a state")
    if dfa.accept_states != frozenset({dfa.initial_state}):
        raise UnsupportedPassError(
            "the construction needs the initial state to be the single accept state"
        )
    n = len(dfa.states)
    index = {q: i for i, q in enumerate(dfa.states)}
    for (source, _), target in dfa.delta.items():
        if source not in index or target not in index:
            raise UnsupportedPassError(f"DFA move {source!r} -> {target!r} leaves the states")
    rules = []
    for sym in dfa.alphabet:
        entries = [[0] * n for _ in range(n)]
        for q in dfa.states:
            target = dfa.delta.get((q, sym))
            if target is not None:
                entries[index[q]][index[target]] = 1
        rules.append((sym, Matrix.from_rows(entries)))
    out = stateless(HVA, dfa.alphabet, n, [1] + [0] * (n - 1), rules)
    return out, _report("dfa_to_stateless_dbhva", {"kind": "DFA", "states": n, "dimension": 1},
                        out)


def intersect_blind_hva(a: MachineSpec, b: MachineSpec):
    """Product machine for the intersection of two blind deterministic HVAs:
    paired states, concatenated initial vectors and block-diagonal
    effects, so the dimension is the sum of the two.

    The register is the pair (register of a, register of b), each block
    evolving as in its own machine, so it equals the concatenated
    initial vector exactly when both components are back at theirs.
    """
    for spec in (a, b):
        if spec.kind != HVA or not spec.blind or spec.mode != DETERMINISTIC:
            raise UnsupportedPassError(
                "intersection applies to blind deterministic homing machines"
            )
    if a.alphabet != b.alphabet:
        raise UnsupportedPassError("intersection needs a common alphabet")
    if a.endmarker != b.endmarker:
        raise UnsupportedPassError("intersection needs matching end-marker flags")

    def pair(p, q):
        return f"({p},{q})"

    letters = tuple(a.alphabet) + ((ENDMARKER,) if a.endmarker else ())
    rules = []
    for p in a.states:
        for q in b.states:
            for letter in letters:
                ra = a.rules_from(p, letter)
                rb = b.rules_from(q, letter)
                if ra and rb:
                    (ra,), (rb,) = ra, rb
                    rules.append(
                        TransitionRule(
                            pair(p, q), letter, STATUS_ANY, pair(ra.target, rb.target),
                            direct_sum(ra.effect, rb.effect),
                        )
                    )
    out = MachineSpec(
        kind=HVA,
        mode=DETERMINISTIC,
        blind=True,
        endmarker=a.endmarker,
        realtime=True,
        alphabet=a.alphabet,
        states=tuple(pair(p, q) for p in a.states for q in b.states),
        initial_state=pair(a.initial_state, b.initial_state),
        accept_states=frozenset(
            pair(p, q) for p in a.accept_states for q in b.accept_states
        ),
        dimension=a.dimension + b.dimension,
        initial_vector=RowVector(a.initial_vector.entries + b.initial_vector.entries),
        transitions=tuple(rules),
    )
    return out, _report("intersect_blind_hva", {"left": a.summary(), "right": b.summary()}, out)
