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

from .errors import AlphabetError, UnsupportedKindError
from .machines import HVA, MachineSpec, SearchBudget, accepts
from .diophantine import check_commutative


@dataclass(frozen=True)
class ReferenceLanguage:
    """A named language given by a total membership predicate."""

    name: str
    alphabet: tuple
    membership: object  # str -> bool

    def __contains__(self, word: str) -> bool:
        return self.membership(word)


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


def _membership_fn(machine, alphabet=None, budget: SearchBudget = None):
    """Accept either a MachineSpec or a bare predicate plus alphabet."""
    if isinstance(machine, MachineSpec):
        return (lambda w: accepts(machine, w, budget)), machine.alphabet
    if alphabet is None:
        raise AlphabetError("a bare membership predicate needs an explicit alphabet")
    return machine, tuple(alphabet)


def enumerate_accepted(spec: MachineSpec, maxlen: int, budget: SearchBudget = None) -> list:
    """All accepted strings of length <= maxlen in length-lex order.

    Propagates UndecidedError (with the offending string) if any
    membership query exhausts the search budget.
    """
    return [w for w in all_strings(spec.alphabet, maxlen) if accepts(spec, w, budget)]


def equivalent_up_to(a: MachineSpec, b: MachineSpec, maxlen: int,
                     budget: SearchBudget = None) -> EquivalenceVerdict:
    """Bounded language equivalence; returns the first disagreement."""
    if tuple(a.alphabet) != tuple(b.alphabet):
        raise AlphabetError(
            f"alphabets differ: {a.alphabet} vs {b.alphabet}"
        )
    return _first_disagreement(
        lambda w: accepts(a, w, budget), lambda w: accepts(b, w, budget), a.alphabet, maxlen
    )


def matches_reference(spec: MachineSpec, ref: ReferenceLanguage, maxlen: int,
                      budget: SearchBudget = None) -> EquivalenceVerdict:
    """Bounded equivalence of a machine against a reference predicate."""
    if tuple(spec.alphabet) != tuple(ref.alphabet):
        raise AlphabetError(
            f"machine alphabet {spec.alphabet} differs from reference {ref.alphabet}"
        )
    return _first_disagreement(
        lambda w: accepts(spec, w, budget), ref.membership, ref.alphabet, maxlen
    )


def _first_disagreement(left, right, alphabet, maxlen: int) -> EquivalenceVerdict:
    """The first string up to `maxlen`, in length-lex order, on which two
    membership functions differ."""
    for w in all_strings(alphabet, maxlen):
        if left(w) != right(w):
            return EquivalenceVerdict(False, counterexample=w, bound=maxlen)
    return EquivalenceVerdict(True, bound=maxlen)


# ---------------------------------------------------------------------------
# structural properties of stateless machines


def check_star_closure(machine, maxlen: int, alphabet=None, budget: SearchBudget = None):
    """None when the accepted set up to `maxlen` is closed under
    concatenation and contains the empty string (L = L* evidence for
    stateless homing machines); otherwise the first offending pair
    (u, v) with uv rejected, or ("", "") when the empty string is missing.
    """
    fn, alphabet = _membership_fn(machine, alphabet, budget)
    if not fn(""):
        return ("", "")
    accepted = [w for w in all_strings(alphabet, maxlen) if fn(w)]
    accepted_set = set(accepted)
    for u in accepted:
        if not u:
            continue
        for v in accepted:
            if not v or len(u) + len(v) > maxlen:
                continue
            if u + v not in accepted_set:
                return (u, v)
    return None


def check_suffix_property(machine, maxlen: int, alphabet=None,
                          budget: SearchBudget = None):
    """None when, for every accepted w1 and accepted extension w1w2 up to
    `maxlen`, the suffix w2 is accepted too (a run of a stateless
    deterministic homing machine restarts from its initial vector after
    any accepted prefix); otherwise the first (w1, w1w2, w2) violation.
    """
    fn, alphabet = _membership_fn(machine, alphabet, budget)
    accepted = [w for w in all_strings(alphabet, maxlen) if fn(w)]
    accepted_set = set(accepted)
    for w1 in accepted:
        for w12 in accepted:
            if w12.startswith(w1):
                w2 = w12[len(w1):]
                if w2 not in accepted_set:
                    return (w1, w12, w2)
    return None


def check_gcd_property(machine, maxlen: int, alphabet=None, budget: SearchBudget = None):
    """None when, for accepted a^i and a^j with 1 < i < j <= maxlen, the
    string a^gcd(i,j) is accepted; otherwise the first violating triple.
    Only meaningful over a unary alphabet."""
    fn, alphabet = _membership_fn(machine, alphabet, budget)
    if len(alphabet) != 1:
        raise AlphabetError("the gcd property applies to unary machines")
    sym = alphabet[0]
    exponents = [i for i in range(maxlen + 1) if fn(sym * i)]
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
    """
    if spec.kind != HVA:
        raise UnsupportedKindError("matrix commutativity check applies to homing machines")
    matrices = [r.effect for r in spec.transitions]
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            if matrices[i] * matrices[j] != matrices[j] * matrices[i]:
                return NOT_APPLICABLE
    return check_commutative(lambda w: accepts(spec, w, budget), spec.alphabet, maxlen)


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


def reference_language(name: str, param=None) -> ReferenceLanguage:
    """Executable ground-truth predicates for the named languages.

    Supported names: ab, ab_star, ab_k_star(k), eq, leq, dyck, mod(m),
    mod23, pow_r, evenab, neq, l_epsilon, singleton(x), and
    balanced_abc (equal counts of a, b and c).
    """
    key = name.lower()
    if key == "ab":
        return ReferenceLanguage("ab", ("a", "b"),
                                 lambda w: w == "a" * (len(w) // 2) + "b" * (len(w) // 2))
    if key == "ab_star":
        return ReferenceLanguage("ab_star", ("a", "b"), _is_ab_star)
    if key == "ab_k_star":
        k = int(param)
        return ReferenceLanguage(f"ab_{k}_star", ("a", "b"), lambda w: _is_abk_star(w, k))
    if key == "eq":
        return ReferenceLanguage("eq", ("a", "b"),
                                 lambda w: w.count("a") == w.count("b"))
    if key == "leq":
        return ReferenceLanguage("leq", ("a", "b"),
                                 lambda w: w.count("a") <= w.count("b"))
    if key == "dyck":
        return ReferenceLanguage("dyck", ("(", ")"), _balanced_brackets)
    if key == "mod":
        m = int(param)
        return ReferenceLanguage(f"mod_{m}", ("a",), lambda w: len(w) % m == 0)
    if key == "mod23":
        return ReferenceLanguage("mod23", ("a",), lambda w: len(w) != 1)
    if key == "pow_r":
        return ReferenceLanguage("pow_r", ("a", "b"), _is_pow_r)
    if key == "evenab":
        # the language of the one-dimensional signed-doubling machine:
        # equal a/b counts, and the shared count even
        return ReferenceLanguage(
            "evenab", ("a", "b"),
            lambda w: w.count("a") == w.count("b") and w.count("a") % 2 == 0,
        )
    if key == "neq":
        return ReferenceLanguage(
            "neq", ("a", "b"),
            lambda w: w == "a" * w.count("a") + "b" * w.count("b")
            and w.count("a") != w.count("b"),
        )
    if key == "l_epsilon":
        return ReferenceLanguage("l_epsilon", ("a", "b"), lambda w: w == "")
    if key == "singleton":
        x = str(param)
        return ReferenceLanguage(f"only_{x}", ("1", "2"), lambda w: w == x)
    if key == "balanced_abc":
        return ReferenceLanguage(
            "balanced_abc", ("a", "b", "c"),
            lambda w: w.count("a") == w.count("b") == w.count("c"),
        )
    raise KeyError(f"unknown reference language {name!r}")

