"""Seeded random machine generators shared by the transform and
acceptance tests."""

import random
from fractions import Fraction

from vecauto.exact import Matrix, RowVector
from vecauto.machines import (
    COUNTER_MACHINE,
    DETERMINISTIC,
    ENDMARKER,
    EPSILON,
    EXTENDED_FA,
    HVA,
    NONDETERMINISTIC,
    STATUS_ANY,
    STATUS_EQ,
    STATUS_NE,
    VA,
    MachineSpec,
    TransitionRule,
    embed_monoid_effect,
    flattened_identity,
)

SMALL_ENTRIES = [Fraction(n) for n in (-2, -1, 0, 1, 2)] + [
    Fraction(1, 2),
    Fraction(-1, 2),
]


def random_matrix(rng: random.Random, dim: int) -> Matrix:
    return Matrix(dim, dim, [rng.choice(SMALL_ENTRIES) for _ in range(dim * dim)])


def random_nbhva_endmarker(rng: random.Random, max_states=3, max_dim=2) -> MachineSpec:
    """A small blind nondeterministic HVA with end-marker; eps rules only
    run from lower- to higher-numbered states so bounded search always
    terminates."""
    n = rng.randint(1, max_states)
    dim = rng.randint(1, max_dim)
    states = tuple(f"q{i}" for i in range(1, n + 1))
    rules = []
    for q in states:
        for sym in ("a", "b"):
            for _ in range(rng.choice((0, 1, 1, 2))):
                rules.append(
                    TransitionRule(q, sym, STATUS_ANY, rng.choice(states),
                                   random_matrix(rng, dim))
                )
        if rng.random() < 0.8:
            rules.append(
                TransitionRule(q, ENDMARKER, STATUS_ANY, rng.choice(states),
                               random_matrix(rng, dim))
            )
    eps_rules = 0
    if n >= 2 and rng.random() < 0.5:
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        rules.append(
            TransitionRule(f"q{i}", EPSILON, STATUS_ANY, f"q{j}",
                           random_matrix(rng, dim))
        )
        eps_rules = 1
    accepts = rng.sample(states, rng.randint(1, n))
    return MachineSpec(
        kind=HVA,
        mode=NONDETERMINISTIC,
        blind=True,
        endmarker=True,
        realtime=eps_rules == 0,
        alphabet=("a", "b"),
        states=states,
        initial_state="q1",
        accept_states=frozenset(accepts),
        dimension=dim,
        initial_vector=RowVector([rng.choice(SMALL_ENTRIES) for _ in range(dim)]),
        transitions=tuple(rules),
    )


def random_dva(rng: random.Random, max_states=3, max_dim=2) -> MachineSpec:
    """A small deterministic VA with end-marker; per (state, symbol) the
    machine gets no rule, one wildcard rule, or one rule per status."""
    n = rng.randint(1, max_states)
    dim = rng.randint(1, max_dim)
    states = tuple(f"q{i}" for i in range(1, n + 1))
    rules = []
    uses_status = False
    for q in states:
        for sym in ("a", "b", ENDMARKER):
            shape = rng.choice(("none", "wild", "wild", "split"))
            if sym == ENDMARKER and shape == "none" and rng.random() < 0.7:
                shape = "wild"  # most states should survive to the end-marker
            if shape == "none":
                continue
            if shape == "wild":
                rules.append(
                    TransitionRule(q, sym, STATUS_ANY, rng.choice(states),
                                   random_matrix(rng, dim))
                )
            else:
                uses_status = True
                for status in (STATUS_EQ, STATUS_NE):
                    rules.append(
                        TransitionRule(q, sym, status, rng.choice(states),
                                       random_matrix(rng, dim))
                    )
    accepts = rng.sample(states, rng.randint(1, n))
    return MachineSpec(
        kind=VA,
        mode=DETERMINISTIC,
        blind=not uses_status,
        endmarker=True,
        realtime=True,
        alphabet=("a", "b"),
        states=states,
        initial_state="q1",
        accept_states=frozenset(accepts),
        dimension=dim,
        initial_vector=RowVector([rng.choice(SMALL_ENTRIES) for _ in range(dim)]),
        transitions=tuple(rules),
    )


def random_extendedfa(rng: random.Random, max_states=3) -> MachineSpec:
    """A small 2x2 integer matrix-monoid machine with at most one eps rule."""
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(1, n + 1))

    def monoid_matrix():
        return Matrix(2, 2, [rng.choice((-1, 0, 1, 1, 2)) for _ in range(4)])

    rules = []
    for q in states:
        for sym in ("a", "b"):
            for _ in range(rng.choice((0, 1, 1, 2))):
                rules.append(
                    TransitionRule(q, sym, STATUS_ANY, rng.choice(states),
                                   embed_monoid_effect(monoid_matrix()))
                )
    has_eps = rng.random() < 0.6
    if has_eps:
        rules.append(
            TransitionRule(rng.choice(states), EPSILON, STATUS_ANY,
                           rng.choice(states), embed_monoid_effect(monoid_matrix()))
        )
    accepts = rng.sample(states, rng.randint(1, n))
    return MachineSpec(
        kind=EXTENDED_FA,
        mode=NONDETERMINISTIC,
        blind=True,
        endmarker=False,
        realtime=not has_eps,
        alphabet=("a", "b"),
        states=states,
        initial_state="q1",
        accept_states=frozenset(accepts),
        dimension=2,
        initial_vector=flattened_identity(2),
        transitions=tuple(rules),
    )


def blind_counter_ab() -> MachineSpec:
    """Blind one-counter machine for a^n b^n."""
    return MachineSpec(
        kind=COUNTER_MACHINE,
        mode=DETERMINISTIC,
        blind=True,
        endmarker=False,
        realtime=True,
        alphabet=("a", "b"),
        states=("q1", "q2"),
        initial_state="q1",
        accept_states=frozenset({"q1", "q2"}),
        dimension=1,
        initial_vector=(0,),
        transitions=(
            TransitionRule("q1", "a", STATUS_ANY, "q1", (1,)),
            TransitionRule("q1", "b", STATUS_ANY, "q2", (-1,)),
            TransitionRule("q2", "b", STATUS_ANY, "q2", (-1,)),
        ),
    )


def blind_counter_abc() -> MachineSpec:
    """Blind two-counter machine for equal counts of a, b and c."""
    return MachineSpec(
        kind=COUNTER_MACHINE,
        mode=DETERMINISTIC,
        blind=True,
        endmarker=False,
        realtime=True,
        alphabet=("a", "b", "c"),
        states=("q",),
        initial_state="q",
        accept_states=frozenset({"q"}),
        dimension=2,
        initial_vector=(0, 0),
        transitions=(
            TransitionRule("q", "a", STATUS_ANY, "q", (1, 1)),
            TransitionRule("q", "b", STATUS_ANY, "q", (-1, 0)),
            TransitionRule("q", "c", STATUS_ANY, "q", (0, -1)),
        ),
    )


def blind_counter_a_endmarker() -> MachineSpec:
    """Blind one-counter machine with end-marker for {a}: 'a' increments
    and '$' decrements, so only one 'a' brings the counter back to 0."""
    return MachineSpec(
        kind=COUNTER_MACHINE,
        mode=DETERMINISTIC,
        blind=True,
        endmarker=True,
        realtime=True,
        alphabet=("a",),
        states=("q",),
        initial_state="q",
        accept_states=frozenset({"q"}),
        dimension=1,
        initial_vector=(0,),
        transitions=(
            TransitionRule("q", "a", STATUS_ANY, "q", (1,)),
            TransitionRule("q", ENDMARKER, STATUS_ANY, "q", (-1,)),
        ),
    )


def counter_ab_endmarker() -> MachineSpec:
    """Deterministic non-blind one-counter machine with end-marker for
    a^n b^n: 'a' counts up in p, 'b' counts down while the counter is
    nonzero, moving to r, and '$' reads a zero counter into acc."""
    zero, nonzero = (STATUS_EQ,), (STATUS_NE,)
    return MachineSpec(
        kind=COUNTER_MACHINE,
        mode=DETERMINISTIC,
        blind=False,
        endmarker=True,
        realtime=True,
        alphabet=("a", "b"),
        states=("p", "r", "acc"),
        initial_state="p",
        accept_states=frozenset({"acc"}),
        dimension=1,
        initial_vector=(0,),
        transitions=(
            TransitionRule("p", "a", STATUS_ANY, "p", (1,)),
            TransitionRule("p", "b", nonzero, "r", (-1,)),
            TransitionRule("r", "b", nonzero, "r", (-1,)),
            TransitionRule("p", ENDMARKER, zero, "acc", (0,)),
            TransitionRule("r", ENDMARKER, zero, "acc", (0,)),
        ),
    )


def extendedfa_a_endmarker() -> MachineSpec:
    """One-dimensional matrix-monoid machine with end-marker for {a}:
    'a' doubles the register and '$' halves it."""
    return MachineSpec(
        kind=EXTENDED_FA,
        mode=NONDETERMINISTIC,
        blind=True,
        endmarker=True,
        realtime=True,
        alphabet=("a",),
        states=("q",),
        initial_state="q",
        accept_states=frozenset({"q"}),
        dimension=1,
        initial_vector=flattened_identity(1),
        transitions=(
            TransitionRule("q", "a", STATUS_ANY, "q", embed_monoid_effect(Matrix.from_rows([[2]]))),
            TransitionRule("q", ENDMARKER, STATUS_ANY, "q",
                           embed_monoid_effect(Matrix.from_rows([[Fraction(1, 2)]]))),
        ),
    )


def random_system(rng: random.Random, max_eqs=3, max_syms=3):
    """A small homogeneous system without degenerate all-zero rows."""
    from vecauto.diophantine import DiophantineSystem

    k = rng.randint(1, max_eqs)
    n = rng.randint(1, max_syms)
    rows = []
    for _ in range(k):
        row = [0] * n
        while not any(row):
            row = [rng.randint(-3, 3) for _ in range(n)]
        rows.append(tuple(row))
    return DiophantineSystem(tuple("abc"[:n]), tuple(rows))
