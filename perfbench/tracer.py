"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds the public functions of each layer in every
``vecauto`` module that holds them (``vecauto.machines.vec_mat_mul``,
``vecauto.langlab.accepts``, ...), so calls between layers pass through
a timing wrapper. Spans (name, start, end, parent, job) stay in memory
and are written once, by ``write``. The exact kernel's calls are too
many to keep one by one: they are counted and timed in aggregate, and
their time is charged to the enclosing span as child coverage.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

LAYERS = {
    "exact": ("vec_mat_mul", "mat_mul", "tensor", "inverse"),
    "machines": ("accepts", "run_deterministic", "run_nondeterministic", "validate",
                 "extendedfa_embed"),
    "langlab": ("matches_reference", "equivalent_up_to", "enumerate_accepted",
                "check_star_closure", "check_suffix_property", "check_gcd_property",
                "check_commutative_matrices"),
    "transforms": ("remove_endmarker", "rationals_to_integers", "eliminate_states",
                   "counters_to_integer_hva3", "intersect_blind_hva"),
    "fileformat": ("parse_machine", "write_machine"),
    "cli": ("main",),
    "diophantine": ("famw_from_system", "check_commutative"),
}
LEAF_MODULE = "exact"
VERIFIERS = {f"langlab.{f}" for f in LAYERS["langlab"]} | {"diophantine.check_commutative"}


def span_names() -> list:
    return [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]


def _bits(value) -> int:
    if type(value) is int:
        return abs(value).bit_length()
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _trie_nodes(words) -> int:
    """Distinct non-empty prefixes of a set of words."""
    total = 0
    previous = ""
    for w in sorted(set(words)):
        common = 0
        for x, y in zip(previous, w):
            if x != y:
                break
            common += 1
        total += len(w) - common
        previous = w
    return total


class Tracer:
    """Per-layer calls, self time, spans and counts of one traced run."""

    def __init__(self):
        self.names = span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.stack = []  # [span index, child seconds]
        self.job = -1
        self.verifier_depth = 0
        self.register_bits_max = 0
        self.letters_fed = 0
        self.budget_exceeded = 0
        self.words_checked = 0
        self.out_dimension_max = 0
        self.out_entry_bits_max = 0
        self.bytes = 0
        self.job_words = {}  # id(spec) -> words queried in the current job
        self.distinct_prefixes = 0
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "vecauto" or name.startswith("vecauto.")]
        hooks = self._after_hooks()
        for module_name, functions in LAYERS.items():
            home = importlib.import_module(f"vecauto.{module_name}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                name = f"{module_name}.{fn_name}"
                if module_name == LEAF_MODULE:
                    wrapper = self._leaf(name, original)
                else:
                    wrapper = self._span(name, original, hooks.get(name))
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        self._saved.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)

    def uninstall(self):
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def start_job(self, job: int):
        self._close_job()
        self.job = job

    def finish(self):
        self._close_job()

    def _close_job(self):
        for words in self.job_words.values():
            self.distinct_prefixes += _trie_nodes(words)
        self.job_words = {}

    # -- wrappers -----------------------------------------------------------

    def _leaf(self, name, original):
        calls, self_s, stack = self.calls, self.self_s, self.stack
        track_bits = name == "exact.vec_mat_mul"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = original(*args, **kwargs)
            dt = perf_counter() - t0
            calls[name] += 1
            self_s[name] += dt
            if stack:
                stack[-1][1] += dt
            if track_bits:
                bits = max(map(_bits, result.entries), default=0)
                if bits > self.register_bits_max:
                    self.register_bits_max = bits
            return result
        return wrapper

    def _span(self, name, original, after):
        name_id = self.name_id[name]
        calls, self_s, stack = self.calls, self.self_s, self.stack
        verifier = name in VERIFIERS

        def wrapper(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_job.append(self.job)
            frame = [index, 0.0]
            stack.append(frame)
            if verifier:
                self.verifier_depth += 1
            t0 = perf_counter()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if verifier:
                    self.verifier_depth -= 1
                duration = t1 - t0
                self.span_end[index] = t1
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _after_hooks(self) -> dict:
        def run(args, result):
            spec, word = args[0], args[1]
            self.letters_fed += len(word)
            self.job_words.setdefault(id(spec), []).append(word)
            if result.verdict == "BudgetExceeded":
                self.budget_exceeded += 1

        def accepts(args, result):
            if self.verifier_depth:
                self.words_checked += 1

        def transformed(args, result):
            out = result[0]
            self.out_dimension_max = max(self.out_dimension_max, out.dimension)
            for rule in out.transitions:
                effect = rule.effect
                entries = effect if isinstance(effect, tuple) else effect.entries
                bits = max(map(_bits, entries), default=0)
                self.out_entry_bits_max = max(self.out_entry_bits_max, bits)

        def parsed(args, result):
            self.bytes += len(args[0])

        def written(args, result):
            self.bytes += len(result)

        hooks = {
            "machines.run_deterministic": run,
            "machines.run_nondeterministic": run,
            "machines.accepts": accepts,
            "fileformat.parse_machine": parsed,
            "fileformat.write_machine": written,
        }
        for fn in LAYERS["transforms"]:
            hooks[f"transforms.{fn}"] = transformed
        return hooks

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        kernel = self.calls["exact.vec_mat_mul"]
        out["exact.register_bits_max"] = (self.register_bits_max, "count")
        out["machines.letters_fed"] = (self.letters_fed, "count")
        out["machines.budget_exceeded"] = (self.budget_exceeded, "count")
        out["machines.kernel_calls_per_letter"] = (
            kernel / self.letters_fed if self.letters_fed else 0.0, "ratio")
        out["langlab.words_checked"] = (self.words_checked, "count")
        out["langlab.prefix_redundancy"] = (
            self.letters_fed / self.distinct_prefixes if self.distinct_prefixes else 0.0,
            "ratio")
        out["transforms.out_dimension_max"] = (self.out_dimension_max, "count")
        out["transforms.out_entry_bits_max"] = (self.out_entry_bits_max, "count")
        out["fileformat.bytes"] = (self.bytes, "count")
        return out

    def write(self, path):
        """Write the spans: one JSON header line, then the raw arrays
        (name id, start, end, parent, job) in that order."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": [["name", "H"], ["start", "d"], ["end", "d"],
                             ["parent", "l"], ["job", "l"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_job):
                arr.tofile(handle)

