"""The breadth-first search over configurations that `run_nondeterministic`
once was, kept as a reference for the position-by-position search.

It searches (state, register, position) configurations in order of
depth, letters and eps moves alike, with exact deduplication and parent
links, and caps the configurations it expands at `max_configurations`.
On a real-time machine depth is position, so its order, its parent
links and its budget count are the one search's.
"""

from collections import deque
from typing import NamedTuple

from vecauto.machines import (
    ACCEPT,
    BUDGET_EXCEEDED,
    ENDMARKER,
    EPSILON,
    REJECT,
    Configuration,
    SearchBudget,
)


class Search(NamedTuple):
    """A verdict, the configuration the search ended at, its parent
    links (configuration -> (parent, rule index)) and the count of
    configurations it expanded."""

    verdict: str
    last: Configuration
    parents: dict
    expanded: int

    @property
    def trace(self) -> tuple:
        path = [self.last]
        while self.parents[path[-1]] is not None:
            path.append(Configuration._make(self.parents[path[-1]][0]))
        return tuple(reversed(path))

    @property
    def accepting_path(self) -> tuple:
        if self.verdict == ACCEPT:
            return tuple(self.parents[c][1] for c in self.trace[1:])


def bfs(spec, word: str, budget: SearchBudget = None) -> Search:
    """Accept as soon as an accepting configuration is dequeued at the end
    of the word; Reject only when the whole reachable space was searched
    with nothing pruned by the budget."""
    budget = budget or SearchBudget()
    eps_cap = budget.eps_cap(spec, len(word))
    end_position = len(word) + (1 if spec.endmarker else 0)
    eps_sources = frozenset() if spec.realtime else spec.epsilon_sources
    accepting = spec.register_tests[1]

    start_key = (spec.initial_state, spec.initial_vector, 0)
    parents = {start_key: None}
    queue = deque([(start_key, 0)])
    pruned = False
    expanded = 0

    while queue:
        key, eps_spent = queue.popleft()
        state, register, position = key
        if position == end_position:
            if state in spec.accept_states and accepting(register):
                return Search(ACCEPT, Configuration._make(key), parents, expanded)
            if spec.endmarker:
                continue  # the end-marker closes the computation

        moves = []
        if state in eps_sources:
            if eps_spent < eps_cap:
                moves.append((EPSILON, position, eps_spent + 1))
            else:
                pruned = True
        if position < len(word):
            moves.append((word[position], position + 1, eps_spent))
        elif position == len(word) and spec.endmarker:
            moves.append((ENDMARKER, position + 1, eps_spent))
        if expanded >= budget.max_configurations:
            # keep draining the queue for acceptance checks only; the cap
            # cuts something off only where a move is left
            pruned = pruned or bool(moves)
            continue
        expanded += 1

        for letter, next_position, next_eps in moves:
            for rule_idx, target, next_register in spec.successors(state, letter, register):
                next_key = (target, next_register, next_position)
                if next_key in parents:
                    continue
                parents[next_key] = (key, rule_idx)
                queue.append((next_key, next_eps))

    verdict = BUDGET_EXCEEDED if pruned else REJECT
    return Search(verdict, Configuration._make(key), parents, expanded)
