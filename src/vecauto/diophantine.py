"""Homogeneous linear Diophantine systems and their stateless
multiplicative-register machines.

A system A*s = 0 over an n-symbol alphabet corresponds to a stateless
deterministic blind FAM: symbol i multiplies the register by
prod_j p_j^(A[j][i]) over distinct primes p_j, so the register returns
to 1 exactly on strings whose Parikh image solves the system. The
translation runs in both directions, with a brute-force solution
enumerator as the independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import AlphabetError, DomainError, UnsupportedPassError
from .exact import Matrix
from .machines import DETERMINISTIC, FAM, MachineSpec, stateless
from .transforms import prime_power_product

# A Parikh vector is a plain tuple of per-symbol occurrence counts.
ParikhVector = tuple


@dataclass(frozen=True)
class DiophantineSystem:
    """k homogeneous equations over the per-symbol counts of an alphabet.

    `coefficients` has one row per equation and one column per symbol,
    in alphabet order; there is no constant column.
    """

    alphabet: tuple
    coefficients: tuple  # k rows, each a tuple of n integers

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        rows = tuple(tuple(int(c) for c in row) for row in self.coefficients)
        object.__setattr__(self, "coefficients", rows)
        n = len(self.alphabet)
        if any(len(row) != n for row in rows):
            raise DomainError("every equation needs one coefficient per symbol")

    @property
    def num_equations(self) -> int:
        return len(self.coefficients)

    def satisfied_by(self, counts) -> bool:
        return all(
            sum(c * x for c, x in zip(row, counts)) == 0 for row in self.coefficients
        )


def parikh(word: str, alphabet) -> ParikhVector:
    """Per-symbol occurrence counts of `word`, in alphabet order."""
    alphabet = tuple(alphabet)
    index = {sym: i for i, sym in enumerate(alphabet)}
    counts = [0] * len(alphabet)
    for ch in word:
        if ch not in index:
            raise AlphabetError(f"symbol {ch!r} not in alphabet {alphabet}")
        counts[index[ch]] += 1
    return tuple(counts)


def famw_from_system(system: DiophantineSystem) -> MachineSpec:
    """Stateless deterministic blind FAM recognizing the strings whose
    Parikh image solves the system; equation j is tracked by the j-th
    prime's exponent."""
    rules = [
        (sym, Matrix.from_rows([[prime_power_product(row[i] for row in system.coefficients)]]))
        for i, sym in enumerate(system.alphabet)
    ]
    return stateless(FAM, system.alphabet, 1, [1], rules)


def _factor(n: int) -> dict:
    """Prime factorization by trial division; multipliers here only ever
    involve tiny primes."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def system_from_famw(spec: MachineSpec) -> DiophantineSystem:
    """Recover the Diophantine system from a stateless deterministic
    blind FAM by factoring its multipliers.

    The primes are the sorted union of all numerator and denominator
    factors; row j of the result gives, per symbol, the exponent of the
    j-th prime in that symbol's multiplier. Under the first-k-primes
    convention this inverts `famw_from_system` exactly.
    """
    if spec.kind != FAM or not spec.blind or spec.mode != DETERMINISTIC:
        raise UnsupportedPassError(
            "system extraction applies to stateless deterministic blind FAMs"
        )
    if len(spec.states) != 1:
        raise UnsupportedPassError("system extraction applies to stateless machines")
    multipliers = {}
    for r in spec.transitions:
        if r.input in spec.alphabet:
            multipliers[r.input] = r.effect.entry(0, 0)
    exponents = {}
    for sym in spec.alphabet:
        m = multipliers.get(sym, Fraction(1))
        if m <= 0:
            raise DomainError("multiplicative registers must stay positive")
        per_prime = dict(_factor(m.numerator))
        for p, e in _factor(m.denominator).items():
            per_prime[p] = per_prime.get(p, 0) - e
        exponents[sym] = per_prime
    primes = sorted({p for per in exponents.values() for p in per})
    rows = tuple(
        tuple(exponents[sym].get(p, 0) for sym in spec.alphabet) for p in primes
    )
    return DiophantineSystem(spec.alphabet, rows)


def solutions_up_to(system: DiophantineSystem, bound: int) -> set:
    """All nonnegative solutions with every component <= bound.

    Deliberately an exhaustive scan: this is the oracle, so it must be
    obviously correct, not fast.
    """
    if bound < 0:
        raise DomainError("bound must be nonnegative")
    n = len(system.alphabet)
    return {
        counts
        for counts in itertools.product(range(bound + 1), repeat=n)
        if system.satisfied_by(counts)
    }


def check_commutative(accepts_fn, alphabet, bound: int):
    """None when membership up to `bound` is permutation-invariant,
    otherwise the first (accepted-or-not representative, disagreeing
    permutation) pair in length-lexicographic order."""
    alphabet = tuple(alphabet)
    for length in range(bound + 1):
        seen = {}
        for letters in itertools.product(alphabet, repeat=length):
            word = "".join(letters)
            cls = parikh(word, alphabet)
            verdict = accepts_fn(word)
            if cls not in seen:
                seen[cls] = (word, verdict)
            elif seen[cls][1] != verdict:
                return (seen[cls][0], word)
    return None
