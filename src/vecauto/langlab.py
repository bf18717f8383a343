"""Ground truth and verification: reference membership predicates,
bounded enumeration, machine-equivalence checking, and the structural
properties of stateless homing machines as executable checks.

Enumeration order is length-lexicographic (length first, then the
alphabet order of the machine), which pins golden outputs and makes
every counterexample deterministic: all checks report the first
violation in that canonical order.

Every verifier reads one walk, `machines.walk`, over the trie of words:
a machine walks its search, a reference its deterministic steps (the
predicate is the ground truth the steps are tested against), and bounded
equivalence walks the pairs of two languages' nodes. A node's own
equality says which words share it: a deterministic machine's runs and a
reference's states compare by value, and so do a nondeterministic
machine's frontiers where the budget cannot cut its search up to the
walk's length (no eps rules, and b^0 + ... + b^maxlen configurations fit
the budget, b the most rules on one key; `SearchBudget.binds`). Any
other frontier equals only itself, since the budget it has left depends
on its prefix. A language's walk steps each distinct node of a level
once per letter and gives every word its node's verdict. The pair walk
extends only the first word to reach each pair, and the first
disagreement is still the length-lex-first one. Where an eps cycle
grows the default eps cap with the word, no prefix's frontier serves a
longer word: each word is its own node, run alone (`searches`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import AlphabetError, ReferenceLanguageError, UnsupportedKindError
from .machines import (
    HVA,
    MachineSpec,
    SearchBudget,
    accepts,  # noqa: F401 -- perfbench's tracer rebinds it in this namespace
    by_word,
    searches,
    stepped,
    walk,
)
from .diophantine import check_commutative


@dataclass(frozen=True)
class ReferenceLanguage:
    """A named language given by a total membership predicate, and
    optionally by `steps`, a deterministic ``(start, step, accepting)``
    over hashable states: ``step(state, letter)`` is the next state, or
    None once no extension is a member; ``accepting(state)`` is
    membership. Every walk reads the steps when there are some; the
    predicate is the ground truth they are tested against."""

    name: str
    alphabet: tuple
    membership: object  # str -> bool
    steps: tuple = None


@dataclass(frozen=True)
class EquivalenceVerdict:
    equal: bool
    counterexample: str = None
    bound: int = 0


class _NotApplicable:
    def __repr__(self):
        return "NotApplicable"

    def __bool__(self):
        return False


NOT_APPLICABLE = _NotApplicable()


def all_strings(alphabet, maxlen: int):
    """Every string over `alphabet` of length <= maxlen, length-lex order."""
    alphabet = tuple(alphabet)
    for length in range(maxlen + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield "".join(letters)


def _search(language, budget: SearchBudget = None, maxlen: int = None):
    """``(start, step, verdict, last)``, the search of `language` for
    `machines.walk` over words of up to `maxlen` letters (None: of any
    length): a machine's `searches`, a reference's steps, or, for a
    reference without steps, its predicate asked of each word
    (`by_word`)."""
    if isinstance(language, MachineSpec):
        return searches(language, budget, maxlen)
    if language.steps is None:
        return by_word(language.membership)
    start, step, accepting = language.steps
    verdict = lambda state, word: accepting(state)
    return start, step, verdict, stepped(step, verdict)


def _walk(language, maxlen: int, budget: SearchBudget = None):
    """``(word, verdict)`` for every word up to `maxlen` in length-lex
    order, each judged when reached, of `language` (a MachineSpec or a
    ReferenceLanguage): the walk that every verifier but bounded
    equivalence reads. A machine's verdict is `accepts`'s, and the first
    word whose search runs out of budget raises UndecidedError. Words of a
    level that reach equal nodes share steps and verdict (`searches`)."""
    return walk(_search(language, budget, maxlen), language.alphabet, maxlen)


def enumerate_accepted(spec: MachineSpec, maxlen: int, budget: SearchBudget = None) -> list:
    """All accepted strings of length <= maxlen in length-lex order.

    Propagates UndecidedError (with the offending string) if any
    membership query exhausts the search budget.
    """
    return [w for w, accepted in _walk(spec, maxlen, budget) if accepted]


def equivalent_up_to(a: MachineSpec, b: MachineSpec, maxlen: int,
                     budget: SearchBudget = None) -> EquivalenceVerdict:
    """Bounded language equivalence; returns the first disagreement."""
    return _first_disagreement(a, b, maxlen, budget)


def matches_reference(spec: MachineSpec, ref: ReferenceLanguage, maxlen: int,
                      budget: SearchBudget = None) -> EquivalenceVerdict:
    """Bounded equivalence of a machine against a reference predicate."""
    return _first_disagreement(spec, ref, maxlen, budget)


def _first_disagreement(left, right, maxlen: int, budget: SearchBudget) -> EquivalenceVerdict:
    """The first string up to `maxlen`, in length-lex order, on which two
    languages differ, from one walk of pairs of their nodes: each word's
    left node is stepped, then its right, then each is judged in that
    order; at the walk's last level each side judges its own last letter
    (the searches' `last`), the left first. The two alphabets must hold
    the same letters, and the walk takes the left one's order. A word
    whose pair of nodes equals an earlier word's is dropped, and so are
    its extensions."""
    if set(left.alphabet) != set(right.alphabet):
        raise AlphabetError(f"alphabets differ: {left.alphabet} vs {right.alphabet}")
    left_start, left_step, left_verdict, left_last = _search(left, budget, maxlen)
    right_start, right_step, right_verdict, right_last = _search(right, budget, maxlen)

    # a dead side (None) is a Reject, stepped no further, as in the walk
    def step(pair, letter):
        left_node, right_node = pair
        return (None if left_node is None else left_step(left_node, letter),
                None if right_node is None else right_step(right_node, letter))

    def verdict(pair, word):
        left_node, right_node = pair
        return ((left_node is not None and left_verdict(left_node, word))
                != (right_node is not None and right_verdict(right_node, word)))

    def last(pair, letter, word):
        left_node, right_node = pair
        return ((left_node is not None and left_last(left_node, letter, word))
                != (right_node is not None and right_last(right_node, letter, word)))

    search = (left_start, right_start), step, verdict, last
    for w, differs in walk(search, left.alphabet, maxlen, True):
        if differs:
            return EquivalenceVerdict(False, w, maxlen)
    return EquivalenceVerdict(True, None, maxlen)


# ---------------------------------------------------------------------------
# structural properties of stateless machines


def check_star_closure(language, maxlen: int, budget: SearchBudget = None):
    """None when the accepted set up to `maxlen` is closed under
    concatenation and contains the empty string (L = L* evidence for
    stateless homing machines); otherwise the first offending pair
    (u, v) with uv rejected, or ("", "") when the empty string is missing.
    """
    walk = _walk(language, maxlen, budget)
    _, empty_accepted = next(walk)
    if not empty_accepted:
        return ("", "")
    accepted = [w for w, verdict in walk if verdict]
    accepted_set = set(accepted)
    for u in accepted:
        room = maxlen - len(u)
        for v in accepted:  # length-lex: no later v fits once one is too long
            if len(v) > room:
                break
            if u + v not in accepted_set:
                return (u, v)
    return None


def check_suffix_property(language, maxlen: int, budget: SearchBudget = None):
    """None when, for every accepted w1 and accepted extension w1w2 up to
    `maxlen`, the suffix w2 is accepted too (a run of a stateless
    deterministic homing machine restarts from its initial vector after
    any accepted prefix); otherwise the first (w1, w1w2, w2) violation.
    """
    accepted = [w for w, verdict in _walk(language, maxlen, budget) if verdict]
    # each accepted word's accepted extensions (itself included), in
    # length-lex order: the pairs in the order of a loop over all pairs
    extensions = {w: [] for w in accepted}
    for w12 in accepted:
        for i in range(len(w12) + 1):
            if w12[:i] in extensions:
                extensions[w12[:i]].append(w12)
    for w1 in accepted:
        for w12 in extensions[w1]:
            w2 = w12[len(w1):]
            if w2 not in extensions:
                return (w1, w12, w2)
    return None


def check_gcd_property(language, maxlen: int, budget: SearchBudget = None):
    """None when, for accepted a^i and a^j with 1 < i < j <= maxlen, the
    string a^gcd(i,j) is accepted; otherwise the first violating triple.
    Only meaningful over a unary alphabet."""
    if len(language.alphabet) != 1:
        raise AlphabetError("the gcd property applies to unary machines")
    sym = language.alphabet[0]
    exponents = [len(w) for w, accepted in _walk(language, maxlen, budget) if accepted]
    present = set(exponents)
    for i in exponents:
        if i <= 1:
            continue
        for j in exponents:
            if j <= i:
                continue
            g = math.gcd(i, j)
            if g <= maxlen and g not in present:
                return (sym * i, sym * j, sym * g)
    return None


def check_commutative_matrices(spec: MachineSpec, maxlen: int,
                               budget: SearchBudget = None):
    """NOT_APPLICABLE when some pair of effect matrices fails to commute;
    otherwise None when the accepted set up to `maxlen` is closed under
    letter permutation (reversal included, being a permutation), or the
    first (representative, disagreeing permutation) pair.

    Commuting effects say nothing about the language of a machine whose
    control state also reads the input, so only stateless homing
    machines are accepted.
    """
    if spec.kind != HVA or len(spec.states) != 1:
        raise UnsupportedKindError(
            "matrix commutativity check applies to stateless homing machines")
    matrices = [r.effect for r in spec.transitions]
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            if matrices[i] * matrices[j] != matrices[j] * matrices[i]:
                return NOT_APPLICABLE
    return check_commutative(_walk(spec, maxlen, budget), spec.alphabet)


# ---------------------------------------------------------------------------
# reference languages


def _balanced_brackets(w: str) -> bool:
    depth = 0
    for ch in w:
        depth += 1 if ch == "(" else -1
        if depth < 0:
            return False
    return depth == 0


def _is_ab_star(w: str) -> bool:
    i, n = 0, len(w)
    while i < n:
        j = i
        while j < n and w[j] == "a":
            j += 1
        count = j - i
        if count == 0 or w[j : j + count] != "b" * count:
            return False
        i = j + count
    return True


def _is_abk_star(w: str, k: int) -> bool:
    block = "a" * k + "b" * k
    return len(w) % (2 * k) == 0 and all(
        w[i : i + 2 * k] == block for i in range(0, len(w), 2 * k)
    )


def _is_pow_r(w: str) -> bool:
    j = len(w) - len(w.rstrip("b"))
    i = len(w) - j
    return w == "a" * i + "b" * j and i == 2**j


def _positive(param) -> int:
    """The parameter of ab_k_star and mod: an integer >= 1."""
    value = int(param) if str(param).isdecimal() else 0
    if value < 1:
        raise ValueError(f"an integer parameter >= 1, got {param!r}")
    return value


def _ab_count(d: int, letter: str) -> int:
    """The step of eq and leq: #a - #b."""
    return d + 1 if letter == "a" else d - 1


def _blocks(repeat: bool):
    """The step of a^n b^n, or with `repeat` of its star, over (0, n)
    after n a's of a block and (1, n) with n b's still owed."""
    def step(state, letter):
        phase, n = state
        if letter == "b":
            return (1, n - 1) if n else None
        if phase == 0:
            return (0, n + 1)
        return (0, 1) if repeat and n == 0 else None
    return step


def _pow_r_step(state, letter):
    """a^i b^j with i = 2^j, over (0, i) while reading a's, then
    (1, i / 2^j) while that is a positive integer."""
    phase, n = state
    if letter == "a":
        return None if phase else (0, n + 1)
    return (1, n // 2) if n and n % 2 == 0 else None


def _neq_step(state, letter):
    """a^i b^j, over (0, i) while reading a's, then (1, i - j)."""
    phase, d = state
    if letter == "a":
        return None if phase else (0, d + 1)
    return (1, d - 1)


def _abc_step(state, letter):
    """Equal a, b and c counts, over (#a - #b, #b - #c)."""
    ab, bc = state
    if letter == "a":
        return (ab + 1, bc)
    if letter == "b":
        return (ab - 1, bc + 1)
    return (ab, bc - 1)


def _owes_nothing(state) -> bool:
    return state[1] == 0


_AB = ("a", "b")

# name -> (alphabet, (predicate, steps)), or for a parametric language
# (alphabet, parameter -> (predicate, steps), parameter parser, name
# pattern); steps are ``(start, step, accepting)`` (see ReferenceLanguage)
_REFERENCES = {
    "ab": (_AB, (lambda w: w == "a" * (len(w) // 2) + "b" * (len(w) // 2),
                 ((0, 0), _blocks(False), _owes_nothing))),
    "ab_star": (_AB, (_is_ab_star, ((1, 0), _blocks(True), _owes_nothing))),
    "ab_k_star": (_AB, lambda k: (
        lambda w: _is_abk_star(w, k),
        (0, lambda i, c: (i + 1) % (2 * k) if c == ("a" if i < k else "b") else None,
         lambda i: i == 0)), _positive, "ab_{}_star"),
    "eq": (_AB, (lambda w: w.count("a") == w.count("b"), (0, _ab_count, lambda d: d == 0))),
    "leq": (_AB, (lambda w: w.count("a") <= w.count("b"), (0, _ab_count, lambda d: d <= 0))),
    "dyck": (("(", ")"), (_balanced_brackets,
                          (0, lambda d, c: d + 1 if c == "(" else d - 1 if d else None,
                           lambda d: d == 0))),
    "mod": (("a",), lambda m: (lambda w: len(w) % m == 0,
                               (0, lambda n, c: (n + 1) % m, lambda n: n == 0)),
            _positive, "mod_{}"),
    "mod23": (("a",), (lambda w: len(w) != 1, (0, lambda n, c: min(n + 1, 2), lambda n: n != 1))),
    "pow_r": (_AB, (_is_pow_r, ((0, 0), _pow_r_step, lambda s: s[1] == 1))),
    # the language of the one-dimensional signed-doubling machine:
    # equal a/b counts, and the shared count even; steps over
    # (#a - #b, #a mod 2)
    "evenab": (_AB, (lambda w: w.count("a") == w.count("b") and w.count("a") % 2 == 0,
                     ((0, 0),
                      lambda s, c: (s[0] + 1, 1 - s[1]) if c == "a" else (s[0] - 1, s[1]),
                      lambda s: s == (0, 0)))),
    "neq": (_AB, (lambda w: w == "a" * w.count("a") + "b" * w.count("b")
                  and w.count("a") != w.count("b"),
                  ((0, 0), _neq_step, lambda s: s[1] != 0))),
    "l_epsilon": (_AB, (lambda w: w == "", (0, lambda n, c: None, lambda n: True))),
    # steps over the position in x
    "singleton": (("1", "2"), lambda x: (
        lambda w: w == x,
        (0, lambda i, c: i + 1 if x[i:i + 1] == c else None, lambda i: i == len(x))),
        str, "only_{}"),
    "balanced_abc": (("a", "b", "c"),
                     (lambda w: w.count("a") == w.count("b") == w.count("c"),
                      ((0, 0), _abc_step, lambda s: s == (0, 0)))),
}


def reference_language(name: str, param=None) -> ReferenceLanguage:
    """Executable ground-truth predicates for the named languages.

    Supported names: ab, ab_star, ab_k_star(k), eq, leq, dyck, mod(m),
    mod23, pow_r, evenab, neq, l_epsilon, singleton(x), and
    balanced_abc (equal counts of a, b and c). k and m are integers
    >= 1; x is a string. An unknown name, or a parameter that is
    missing, extra or malformed, raises ReferenceLanguageError.
    """
    key = name.lower()
    if key not in _REFERENCES:
        raise ReferenceLanguageError(
            f"unknown reference language {name!r}; know {', '.join(_REFERENCES)}")
    alphabet, language, *parametric = _REFERENCES[key]
    if not parametric:
        if param is not None:
            raise ReferenceLanguageError(f"reference language {key!r} takes no parameter")
        return ReferenceLanguage(key, alphabet, *language)
    parse, pattern = parametric
    if param is None:
        raise ReferenceLanguageError(f"reference language {key!r} needs a parameter: {key}:PARAM")
    try:
        value = parse(param)
    except ValueError as exc:
        raise ReferenceLanguageError(f"reference language {key!r} needs {exc}") from None
    return ReferenceLanguage(pattern.format(value), alphabet, *language(value))
