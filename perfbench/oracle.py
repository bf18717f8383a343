"""Independent brute-force interpreter: the benchmark's correctness oracle.

It reads the interchange-format documents that ``gen`` produces and
decides membership by plain path enumeration over ``Fraction``
registers: no configuration deduplication, no memo, nothing shared
with ``vecauto``. Nondeterministic search uses the same eps cap as the
program, |states| * (|w| + 2) eps-moves per path, and reports one of

* ``A`` -- some path within the cap accepts;
* ``R`` -- no path accepts and no path was cut by the cap;
* ``C`` -- no path accepts but some path was cut, so the program may
  answer Reject (when its deduplication closed the cycle) or
  BudgetExceeded, never Accept;
* ``?`` -- the enumeration hit ``node_limit`` first (no verdict).

Run ``python3 -m perfbench.oracle`` from the repository root to rewrite
``expected.json``, the verdicts of every machine in the random_nondet
pool on every word up to its bound.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    __package__ = "perfbench"

from perfbench import gen  # noqa: E402

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
NODE_LIMIT = 5_000


class _Limit(Exception):
    pass


class Machine:
    """A parsed interchange document, in the oracle's own representation."""

    def __init__(self, doc: dict):
        self.kind = doc["kind"]
        self.deterministic = doc["mode"] == "deterministic"
        self.endmarker = doc["endmarker"]
        self.realtime = doc["realtime"]
        self.alphabet = tuple(doc["alphabet"])
        self.states = tuple(doc["states"])
        self.initial_state = doc["initial_state"]
        self.accept_states = frozenset(doc["accept_states"])
        counter = self.kind == "CounterMachine"
        number = int if counter else Fraction
        self.v0 = tuple(number(x) for x in doc["initial_vector"])
        self.rules = {}
        for t in doc["transitions"]:
            if counter:
                effect = tuple(int(x) for x in t["matrix"][0])
                status = t["status"] if isinstance(t["status"], str) else tuple(t["status"])
            else:
                effect = tuple(tuple(Fraction(x) for x in row) for row in t["matrix"])
                status = t["status"]
            self.rules.setdefault((t["from"], t["input"]), []).append(
                (status, t["to"], effect)
            )

    def apply(self, register, effect):
        if self.kind == "CounterMachine":
            return tuple(c + d for c, d in zip(register, effect))
        n = len(effect[0])
        return tuple(
            sum(register[i] * effect[i][j] for i in range(len(register))) for j in range(n)
        )

    def status(self, register):
        if self.kind == "CounterMachine":
            return tuple("=" if c == 0 else "!=" for c in register)
        if self.kind == "VA":
            return "=" if register[0] == 1 else "!="
        if self.kind == "FAM":
            return "=" if register == (1,) else "!="
        return "=" if register == self.v0 else "!="

    def accepting(self, state, register) -> bool:
        if state not in self.accept_states:
            return False
        if self.kind == "VA":
            return register[0] == 1
        if self.kind == "FAM":
            return register == (1,)
        if self.kind == "CounterMachine":
            return all(c == 0 for c in register)
        return register == self.v0

    def moves(self, state, letter, register):
        for status, target, effect in self.rules.get((state, letter), ()):
            if status != "*" and status != self.status(register):
                continue
            yield target, self.apply(register, effect)


def verdict(machine: Machine, word: str, node_limit: int = NODE_LIMIT) -> str:
    letters = list(word) + (["$"] if machine.endmarker else [])
    if machine.deterministic:
        state, register = machine.initial_state, machine.v0
        for letter in letters:
            successors = list(machine.moves(state, letter, register))
            if not successors:
                return "R"
            (state, register), = successors
        return "A" if machine.accepting(state, register) else "R"

    cap = len(machine.states) * (len(word) + 2)
    end = len(letters)
    cut = False
    nodes = 0

    def explore(state, position, register, eps_spent) -> bool:
        nonlocal cut, nodes
        nodes += 1
        if nodes > node_limit:
            raise _Limit
        if position == end:
            if machine.accepting(state, register):
                return True
            if machine.endmarker:
                return False
        if not machine.realtime:
            if eps_spent < cap:
                for target, reg in machine.moves(state, "eps", register):
                    if explore(target, position, reg, eps_spent + 1):
                        return True
            elif (state, "eps") in machine.rules:
                cut = True
        if position < end:
            for target, reg in machine.moves(state, letters[position], register):
                if explore(target, position + 1, reg, eps_spent):
                    return True
        return False

    try:
        if explore(machine.initial_state, 0, machine.v0, 0):
            return "A"
    except _Limit:
        return "?"
    return "C" if cut else "R"


def all_words(alphabet, maxlen: int):
    """Every word of length <= maxlen, length-lexicographic order."""
    for length in range(maxlen + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield "".join(letters)


def doc_digest(doc: dict) -> str:
    return hashlib.sha256(gen.machine_text(doc).encode()).hexdigest()[:16]


def pool_entries():
    """(pool key, document, word bound) for every random_nondet pool machine."""
    for i in range(gen.NBHVA_POOL):
        yield f"nbhva/{i}", gen.nbhva_pool(i), gen.NBHVA_MAXLEN
    for i in range(gen.EXTENDEDFA_POOL):
        yield f"extendedfa/{i}", gen.extendedfa_pool(i), gen.EXTENDEDFA_MAXLEN


def expected_record(doc: dict, maxlen: int) -> dict:
    machine = Machine(doc)
    verdicts = "".join(verdict(machine, w) for w in all_words(machine.alphabet, maxlen))
    return {"digest": doc_digest(doc), "maxlen": maxlen, "verdicts": verdicts}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    records = {}
    for key, doc, maxlen in pool_entries():
        records[key] = expected_record(doc, maxlen)
        print(key, records[key]["verdicts"].count("?"), "unknown", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
