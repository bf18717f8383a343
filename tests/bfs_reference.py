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
    # the cap as written in `SearchBudget`'s contract, whether or not it
    # can bind, so the reference shares no rule with the program's search
    eps_cap = budget.eps_per_path
    if eps_cap is None:
        eps_cap = len(spec.states) * (len(word) + 2)
    endmarker = spec.endmarker
    # the letter read from each position: the word's, then the end-marker
    # where the machine has one, then None past the last
    letters = list(word) + [ENDMARKER] * endmarker + [None]
    end_position = len(letters) - 1
    eps_sources = frozenset() if spec.realtime else spec.epsilon_sources
    accepting = spec.register_tests[1]
    accept_states, successors = spec.accept_states, spec.successors
    max_configurations = budget.max_configurations

    start_key = (spec.initial_state, spec.initial_vector, 0)
    parents = {start_key: None}
    queue = deque([(start_key, 0)])
    popleft, append = queue.popleft, queue.append
    pruned = False
    expanded = 0

    while queue:
        key, eps_spent = popleft()
        state, register, position = key
        if position == end_position:
            if state in accept_states and accepting(register):
                return Search(ACCEPT, Configuration._make(key), parents, expanded)
            if endmarker:
                continue  # the end-marker closes the computation

        eps_move = False
        if state in eps_sources:
            if eps_spent < eps_cap:
                eps_move = True
            else:
                pruned = True
        letter = letters[position]
        if expanded >= max_configurations:
            # keep draining the queue for acceptance checks only; the cap
            # cuts something off only where a move is left
            pruned = pruned or eps_move or letter is not None
            continue
        expanded += 1

        # eps successors are queued before letter successors
        if eps_move:
            for rule_idx, target, next_register in successors(state, EPSILON, register):
                next_key = (target, next_register, position)
                if next_key not in parents:
                    parents[next_key] = (key, rule_idx)
                    append((next_key, eps_spent + 1))
        if letter is not None:
            position += 1
            for rule_idx, target, next_register in successors(state, letter, register):
                next_key = (target, next_register, position)
                if next_key not in parents:
                    parents[next_key] = (key, rule_idx)
                    append((next_key, eps_spent))

    verdict = BUDGET_EXCEEDED if pruned else REJECT
    return Search(verdict, Configuration._make(key), parents, expanded)
