"""Seeded generator for the benchmark's machines and words.

Everything here is plain data: a machine is a dict in the interchange
file format (rationals as "p/q" strings), so the generator depends on
nothing in ``vecauto`` and the oracle can read the same documents the
program parses. Test-suite generators are deliberately not reused, so
that edits to the tests cannot shift a workload.
"""

from __future__ import annotations

import json
import random

# register entries of the random machines
ENTRIES = ("0", "1", "-1", "2", "-2", "1/2", "-1/2")
# 2x2 matrix-monoid entries, as in the monoid-embedding acceptance criterion
MONOID_ENTRIES = ("-1", "0", "1", "1", "2")

# The random_nondet pool: machines are drawn from fixed pool indices so the
# committed expected-verdict file covers every machine any seed can draw.
NBHVA_POOL = 48
EXTENDEDFA_POOL = 16
NBHVA_MAXLEN = 6
EXTENDEDFA_MAXLEN = 5
_NBHVA_POOL_SEED = 91_000
_EXTENDEDFA_POOL_SEED = 97_000


def machine_text(doc: dict) -> str:
    return json.dumps(doc)


def _doc(kind, mode, blind, endmarker, realtime, alphabet, states, initial_state,
         accept_states, dimension, initial_vector, rules):
    return {
        "kind": kind,
        "mode": mode,
        "blind": blind,
        "endmarker": endmarker,
        "realtime": realtime,
        "alphabet": list(alphabet),
        "states": list(states),
        "initial_state": initial_state,
        "accept_states": [q for q in states if q in accept_states],
        "dimension": dimension,
        "initial_vector": list(initial_vector),
        "transitions": [
            {"from": s, "input": x, "status": st, "to": t, "matrix": m}
            for s, x, st, t, m in rules
        ],
    }


def _matrix(rng, dim, entries=ENTRIES):
    return [[rng.choice(entries) for _ in range(dim)] for _ in range(dim)]


def _scalar(value):
    return [[value]]


def random_nbhva(rng: random.Random) -> dict:
    """Blind nondeterministic end-marker HVA: 1-3 states, dimension 1-3,
    0-2 rules per (state, letter), about half with one eps rule.

    The eps rule runs from a lower- to a higher-numbered state, so no
    eps cycle exists and every search is exhaustive under the default
    eps cap; the budget path is exercised by the monoid machines.
    """
    n = rng.randint(1, 3)
    dim = rng.randint(1, 3)
    states = [f"q{i}" for i in range(1, n + 1)]
    rules = []
    for q in states:
        for sym in ("a", "b"):
            for _ in range(rng.choice((0, 1, 1, 2))):
                rules.append((q, sym, "*", rng.choice(states), _matrix(rng, dim)))
        if rng.random() < 0.8 or (q == states[-1] and not rules):
            # at least one rule: a machine with none is a degenerate input
            # that the integer conversion cannot handle (a probe covers it)
            rules.append((q, "$", "*", rng.choice(states), _matrix(rng, dim)))
    has_eps = n >= 2 and rng.random() < 0.75
    if has_eps:
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        rules.append((f"q{i}", "eps", "*", f"q{j}", _matrix(rng, dim)))
    accept = rng.sample(states, rng.randint(1, n))
    v0 = [rng.choice(ENTRIES) for _ in range(dim)]
    return _doc("HVA", "nondeterministic", True, True, not has_eps, "ab", states, "q1",
                accept, dim, v0, rules)


def _tensor_identity(m):
    """I tensor M for a 2x2 M, flattened row-major, as a 4x4 matrix."""
    out = [["0"] * 4 for _ in range(4)]
    for block in range(2):
        for i in range(2):
            for j in range(2):
                out[block * 2 + i][block * 2 + j] = m[i][j]
    return out


def random_extendedfa(rng: random.Random) -> dict:
    """2x2 integer matrix-monoid machine, 1-3 states, with one eps rule
    between any two states (self-loops included) at rate 0.6, so some
    searches hit the eps cap and end BudgetExceeded."""
    n = rng.randint(1, 3)
    states = [f"q{i}" for i in range(1, n + 1)]
    rules = []
    for q in states:
        for sym in ("a", "b"):
            for _ in range(rng.choice((0, 1, 1, 2))):
                m = _matrix(rng, 2, MONOID_ENTRIES)
                rules.append((q, sym, "*", rng.choice(states), _tensor_identity(m)))
    has_eps = rng.random() < 0.6
    if has_eps:
        m = _matrix(rng, 2, MONOID_ENTRIES)
        rules.append((rng.choice(states), "eps", "*", rng.choice(states), _tensor_identity(m)))
    accept = rng.sample(states, rng.randint(1, n))
    return _doc("ExtendedFA", "nondeterministic", True, False, not has_eps, "ab", states,
                "q1", accept, 2, ["1", "0", "0", "1"], rules)


def nbhva_pool(index: int) -> dict:
    return random_nbhva(random.Random(_NBHVA_POOL_SEED + index))


def extendedfa_pool(index: int) -> dict:
    return random_extendedfa(random.Random(_EXTENDEDFA_POOL_SEED + index))


def random_dva(rng: random.Random) -> dict:
    """Deterministic end-marker VA, 1-3 states, dimension 2, with a rule
    for every (state, letter): a wildcard rule or one rule per status.
    Complete, so a long word always reaches the end-marker."""
    n = rng.randint(1, 3)
    dim = 2
    states = [f"q{i}" for i in range(1, n + 1)]
    rules = []
    blind = True
    for q in states:
        for sym in ("a", "b", "$"):
            if rng.random() < 0.3:
                blind = False
                for status in ("=", "!="):
                    rules.append((q, sym, status, rng.choice(states), _matrix(rng, dim)))
            else:
                rules.append((q, sym, "*", rng.choice(states), _matrix(rng, dim)))
    accept = rng.sample(states, rng.randint(1, n))
    v0 = [rng.choice(ENTRIES) for _ in range(dim)]
    return _doc("VA", "deterministic", blind, True, True, "ab", states, "q1", accept, dim,
                v0, rules)


def random_dbhva(rng: random.Random) -> dict:
    """Deterministic blind end-marker HVA, 1-3 states, dimension 2, one
    rule for every (state, letter) including the end-marker."""
    n = rng.randint(1, 3)
    dim = 2
    states = [f"q{i}" for i in range(1, n + 1)]
    rules = [
        (q, sym, "*", rng.choice(states), _matrix(rng, dim))
        for q in states
        for sym in ("a", "b", "$")
    ]
    accept = rng.sample(states, rng.randint(1, n))
    v0 = [rng.choice(ENTRIES) for _ in range(dim)]
    return _doc("HVA", "deterministic", True, True, True, "ab", states, "q1", accept, dim,
                v0, rules)


def blind_counter_ab() -> dict:
    """Blind one-counter machine for a^n b^n."""
    rules = [
        ("q1", "a", "*", "q1", [["1"]]),
        ("q1", "b", "*", "q2", [["-1"]]),
        ("q2", "b", "*", "q2", [["-1"]]),
    ]
    return _doc("CounterMachine", "deterministic", True, False, True, "ab", ["q1", "q2"],
                "q1", {"q1", "q2"}, 1, ["0"], rules)


def blind_counter_abc() -> dict:
    """Blind two-counter machine for equal counts of a, b and c."""
    rules = [
        ("q", "a", "*", "q", [["1", "1"]]),
        ("q", "b", "*", "q", [["-1", "0"]]),
        ("q", "c", "*", "q", [["0", "-1"]]),
    ]
    return _doc("CounterMachine", "deterministic", True, False, True, "abc", ["q"], "q",
                {"q"}, 2, ["0", "0"], rules)


def eq_swapped() -> dict:
    """The equal-count machine with its a/b multipliers swapped: the same
    language, and the aliasing partner of the catalog ``eq`` under the
    tensor-product intersection."""
    rules = [("q", "a", "*", "q", _scalar("1/2")), ("q", "b", "*", "q", _scalar("2"))]
    return _doc("HVA", "deterministic", True, False, True, "ab", ["q"], "q", {"q"}, 1,
                ["1"], rules)


def random_system(rng: random.Random) -> dict:
    """Homogeneous Diophantine system: 1-3 equations over two symbols,
    coefficients in [-3, 3], no all-zero row."""
    k = rng.randint(1, 3)
    n = 2
    rows = []
    for _ in range(k):
        row = [0] * n
        while not any(row):
            row = [rng.randint(-3, 3) for _ in range(n)]
        rows.append(row)
    return {"alphabet": list("abc"[:n]), "coefficients": rows}


def random_digit_string(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("12") for _ in range(rng.randint(lo, hi)))


# ---------------------------------------------------------------------------
# long words

LONG_MIN = 1000
LONG_MAX = 10000


def long_word(rng: random.Random, shape: str, letters: str, length: int) -> str:
    """A word of about `length` letters over `letters`. Structured shapes
    are blocks x^n y^n (z^n): exactly balanced, with the last block one
    letter longer, or with the last block a tenth longer; random is
    uniform. Only random words depend on `rng`, so that the cost of a
    structured word is fixed by its length."""
    if shape == "random":
        return "".join(rng.choice(letters) for _ in range(length))
    n = max(1, length // len(letters))
    counts = [n] * len(letters)
    if shape == "near_balanced":
        counts[-1] += 1
    elif shape == "unbalanced":
        counts[-1] += max(1, n // 10)
    return "".join(sym * c for sym, c in zip(letters, counts))


def block_word(rng: random.Random, shape: str, k: int, length: int) -> str:
    """Words for (a^k b^k)*: a whole number of blocks, the same with its
    last letter missing or with one more a, or a random word."""
    blocks = max(1, length // (2 * k))
    word = ("a" * k + "b" * k) * blocks
    if shape == "random":
        return "".join(rng.choice("ab") for _ in range(len(word)))
    if shape == "near_balanced":
        return word[:-1]
    if shape == "unbalanced":
        return word + "a"
    return word


def pow_word(rng: random.Random, shape: str, length: int) -> str:
    """Words for { a^(2^n) b^n }: the member nearest `length`, the member
    with one extra a, or a random word."""
    j = max(1, length.bit_length() - 1)
    if shape == "balanced":
        return "a" * 2**j + "b" * j
    if shape == "random":
        return "".join(rng.choice("ab") for _ in range(2**j + j))
    return "a" * (2**j + 1) + "b" * j
