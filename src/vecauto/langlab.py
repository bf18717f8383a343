"""Ground truth and verification: reference membership predicates,
bounded enumeration, machine-equivalence checking, and the structural
properties of stateless homing machines as executable checks.

Enumeration order is length-lexicographic (length first, then the
alphabet order of the machine), which pins golden outputs and makes
every counterexample deterministic: all checks report the first
violation in that canonical order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import AlphabetError, ReferenceLanguageError, UnsupportedKindError
from .machines import HVA, MachineSpec, SearchBudget, accepts, walk
from .diophantine import check_commutative


@dataclass(frozen=True)
class ReferenceLanguage:
    """A named language given by a total membership predicate."""

    name: str
    alphabet: tuple
    membership: object  # str -> bool


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


def _walk(language, maxlen: int, budget: SearchBudget = None):
    """``(word, verdict)`` for every word up to `maxlen` in length-lex
    order, each asked once, when reached, of `language` (a MachineSpec or
    a ReferenceLanguage). Every verifier reads its verdicts from here.

    A machine's verdicts come from `machines.walk`, which shares each
    prefix's search among the words that extend it; a word whose shared
    search outgrew `max_configurations` is asked of `accepts` alone."""
    if not isinstance(language, MachineSpec):
        for w in all_strings(language.alphabet, maxlen):
            yield w, language.membership(w)
        return
    for w, verdict in walk(language, maxlen, budget):
        yield w, accepts(language, w, budget) if verdict is None else verdict


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
    languages differ; each word is asked of `left`, then of `right`."""
    if tuple(left.alphabet) != tuple(right.alphabet):
        raise AlphabetError(f"alphabets differ: {left.alphabet} vs {right.alphabet}")
    for (w, in_left), (_, in_right) in zip(_walk(left, maxlen, budget),
                                           _walk(right, maxlen, budget)):
        if in_left != in_right:
            return EquivalenceVerdict(False, counterexample=w, bound=maxlen)
    return EquivalenceVerdict(True, bound=maxlen)


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
    accepted_set = set(accepted)
    for w1 in accepted:
        for w12 in accepted:
            if w12.startswith(w1):
                w2 = w12[len(w1):]
                if w2 not in accepted_set:
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


_AB = ("a", "b")

# name -> (alphabet, predicate), or for a parametric language
# (alphabet, parameter -> predicate, parameter parser, name pattern)
_REFERENCES = {
    "ab": (_AB, lambda w: w == "a" * (len(w) // 2) + "b" * (len(w) // 2)),
    "ab_star": (_AB, _is_ab_star),
    "ab_k_star": (_AB, lambda k: lambda w: _is_abk_star(w, k), _positive, "ab_{}_star"),
    "eq": (_AB, lambda w: w.count("a") == w.count("b")),
    "leq": (_AB, lambda w: w.count("a") <= w.count("b")),
    "dyck": (("(", ")"), _balanced_brackets),
    "mod": (("a",), lambda m: lambda w: len(w) % m == 0, _positive, "mod_{}"),
    "mod23": (("a",), lambda w: len(w) != 1),
    "pow_r": (_AB, _is_pow_r),
    # the language of the one-dimensional signed-doubling machine:
    # equal a/b counts, and the shared count even
    "evenab": (_AB, lambda w: w.count("a") == w.count("b") and w.count("a") % 2 == 0),
    "neq": (_AB, lambda w: w == "a" * w.count("a") + "b" * w.count("b")
            and w.count("a") != w.count("b")),
    "l_epsilon": (_AB, lambda w: w == ""),
    "singleton": (("1", "2"), lambda x: lambda w: w == x, str, "only_{}"),
    "balanced_abc": (("a", "b", "c"),
                     lambda w: w.count("a") == w.count("b") == w.count("c")),
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
    alphabet, predicate, *parametric = _REFERENCES[key]
    if not parametric:
        if param is not None:
            raise ReferenceLanguageError(f"reference language {key!r} takes no parameter")
        return ReferenceLanguage(key, alphabet, predicate)
    parse, pattern = parametric
    if param is None:
        raise ReferenceLanguageError(f"reference language {key!r} needs a parameter: {key}:PARAM")
    try:
        value = parse(param)
    except ValueError as exc:
        raise ReferenceLanguageError(f"reference language {key!r} needs {exc}") from None
    return ReferenceLanguage(pattern.format(value), alphabet, predicate(value))
