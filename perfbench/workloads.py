"""The three workloads: how each is set up, what one job does, and how
its outcome is checked.

A job is one user-level action: one CLI command, one pass plus its
equivalence check, or one long-word query. ``Job.run`` is the timed
part; it parses its machines from text inside the job, so the
program's value-keyed effect memo starts cold in every job, as it does
for a CLI user. ``Job.check`` runs after timing and compares the
outcome with an oracle that does not come from the code under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from vecauto import builders, cli, diophantine, fileformat, langlab, machines, transforms
from vecauto.errors import UndecidedError, UnsupportedPassError

from perfbench import gen, oracle

WORKLOADS = ("catalog_verify", "random_nondet", "long_words")


@dataclass
class Tally:
    """What a checked job contributes: membership verdicts decided,
    letters in those queries, queries left undecided, and the reason
    the job failed (None when its outcome is right)."""

    queries: int
    letters: int
    undecided: int = 0
    error: str = None


@dataclass
class Job:
    name: str
    run: object    # () -> outcome; the timed part
    check: object  # outcome -> Tally


def word_count(alphabet_size: int, maxlen: int) -> tuple:
    """(words, letters) over all words of length <= maxlen."""
    words = sum(alphabet_size**n for n in range(maxlen + 1))
    letters = sum(n * alphabet_size**n for n in range(maxlen + 1))
    return words, letters


def _failed(reason: str) -> Tally:
    return Tally(0, 0, 0, reason)


# ---------------------------------------------------------------------------
# catalog_verify: CLI commands on machine files written at set-up

# (catalog name, parameter, reference name, reference parameter, maxlen):
# 2047 words on two letters, 13 on one
_CATALOG = [
    ("pow_r", None, "pow_r", None, 10),
    ("ab_star", None, "ab_star", None, 10),
    ("eq", None, "eq", None, 10),
    ("leq", None, "leq", None, 10),
    ("dyck", None, "dyck", None, 10),
    ("evenab", None, "evenab", None, 10),
    ("l_epsilon", None, "l_epsilon", None, 10),
    ("ab_k_star", 2, "ab_k_star", 2, 10),
    ("ab_k_star", 3, "ab_k_star", 3, 10),
] + [("mod", m, "mod", m, 12) for m in range(1, 7)] + [
    ("mod_rot", m, "mod", m, 12) for m in (1, 2, 4)
]
_STAR_CLOSURE = [(n, p) for n, p, *_ in _CATALOG if n != "pow_r"]
_SUFFIX = [(n, p) for n, p in _STAR_CLOSURE if n != "leq"]
_COMMUTATIVE_MATRICES = [("eq", None), ("leq", None), ("evenab", None), ("l_epsilon", None)]
_ENUMERATE = [("pow_r", None), ("eq", None), ("dyck", None), ("ab_k_star", 2), ("mod", 6)]
_PROPERTY_MAXLEN = 10
_SEPARATION_MAXLEN = 10
_FINITE_MAXLEN = 10


def _catalog_key(name, param):
    return name if param is None else f"{name}_{param}"


def _cli_run(argv):
    def run():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()
    return run


def _records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _cli_check(expected_code, expected_records, words, letters):
    """Compare exit code and JSON records; `expected_records` is a thunk
    so the oracle runs once, after timing, and only when needed."""
    cache = []

    def check(outcome):
        code, text = outcome
        if not cache:
            cache.append(expected_records())
        if code != expected_code:
            return _failed(f"exit code {code}, expected {expected_code}: {text[:200]}")
        got = _records(text)
        if got != cache[0]:
            return _failed(f"records differ: {str(got)[:200]}")
        return Tally(words, letters)
    return check


def _ref_words(membership, alphabet, maxlen):
    return [w for w in oracle.all_words(alphabet, maxlen) if membership(w)]


def _star_closed(membership, alphabet, maxlen):
    if not membership(""):
        return False
    accepted = _ref_words(membership, alphabet, maxlen)
    return all(
        membership(u + v) for u in accepted for v in accepted if len(u) + len(v) <= maxlen
    )


def _suffix_closed(membership, alphabet, maxlen):
    accepted = _ref_words(membership, alphabet, maxlen)
    return all(
        membership(w12[len(w1):]) for w1 in accepted for w12 in accepted
        if w12.startswith(w1)
    )


def _property_record(holds, summary, maxlen):
    # the witness order is the program's business; the oracle decides Ok
    # versus Counterexample, and a Counterexample record is compared by
    # verdict alone in _verdict_check
    if holds:
        return [{"verdict": "Ok", "machine": summary, "bound": maxlen}]
    return [{"verdict": "Counterexample"}]


def _verdict_check(expected, words, letters):
    cache = []

    def check(outcome):
        code, text = outcome
        if not cache:
            cache.append(expected())
        want = cache[0]
        got = _records(text)
        if want[0]["verdict"] == "Ok":
            ok = code == 0 and got == want
        else:
            ok = code == 1 and len(got) == 1 and got[0]["verdict"] == "Counterexample"
        if not ok:
            return _failed(f"exit code {code}, records {str(got)[:200]}")
        return Tally(words, letters)
    return check


def _summary(doc):
    return {"kind": doc["kind"], "states": len(doc["states"]), "dimension": doc["dimension"]}


def _parikh_ok(rows, alphabet):
    def membership(w):
        counts = [w.count(sym) for sym in alphabet]
        return all(sum(c * x for c, x in zip(row, counts)) == 0 for row in rows)
    return membership


def setup_catalog_verify(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    jobs = []

    def save(name, spec):
        path = workdir / f"{name}.mach"
        text = fileformat.write_machine(spec)
        path.write_text(text, encoding="utf-8")
        return str(path), json.loads(text)

    catalog = {}
    for name, param, *_ in _CATALOG:
        key = _catalog_key(name, param)
        catalog[key] = save(key, builders.example(name, param))

    for name, param, ref_name, ref_param, maxlen in _CATALOG:
        path, doc = catalog[_catalog_key(name, param)]
        ref = langlab.reference_language(ref_name, ref_param)
        against = ref_name if ref_param is None else f"{ref_name}:{ref_param}"
        words, letters = word_count(len(doc["alphabet"]), maxlen)
        summary = _summary(doc)
        record = {"verdict": "Equal", "counterexample": None, "bound": maxlen,
                  "machine": summary, "against": {"reference": ref.name}}
        jobs.append(Job(
            f"verify {_catalog_key(name, param)} --against {against} --maxlen {maxlen}",
            _cli_run(["verify", path, "--against", against, "--maxlen", str(maxlen)]),
            _cli_check(0, lambda record=record: [record], words, letters),
        ))
        if (name, param) in _ENUMERATE:
            jobs.append(Job(
                f"enumerate {_catalog_key(name, param)} --maxlen {maxlen}",
                _cli_run(["enumerate", path, "--maxlen", str(maxlen)]),
                _cli_check(0, lambda ref=ref, doc=doc, maxlen=maxlen: [
                    {"accepted": w} for w in _ref_words(ref.membership, doc["alphabet"], maxlen)
                ], words, letters),
            ))

    refs = {_catalog_key(n, p): langlab.reference_language(rn, rp)
            for n, p, rn, rp, _ in _CATALOG}
    for prop, members, decide in (
        ("star-closure", _STAR_CLOSURE, _star_closed),
        ("suffix", _SUFFIX, _suffix_closed),
    ):
        for name, param in members:
            key = _catalog_key(name, param)
            path, doc = catalog[key]
            maxlen = _PROPERTY_MAXLEN
            words, letters = word_count(len(doc["alphabet"]), maxlen)
            jobs.append(Job(
                f"check {prop} {key} --maxlen {maxlen}",
                _cli_run(["check", prop, path, "--maxlen", str(maxlen)]),
                _verdict_check(
                    lambda decide=decide, ref=refs[key], doc=doc, maxlen=maxlen:
                    _property_record(decide(ref.membership, doc["alphabet"], maxlen),
                                     _summary(doc), maxlen),
                    # star closure also queries the empty word first
                    words + (prop == "star-closure"), letters),
            ))
    for m in range(1, 7):
        key = f"mod_{m}"
        path, doc = catalog[key]
        maxlen = 12
        # the reference is mod m, whose accepted exponents are closed under gcd
        jobs.append(Job(
            f"check gcd {key} --maxlen {maxlen}",
            _cli_run(["check", "gcd", path, "--maxlen", str(maxlen)]),
            _cli_check(0, lambda doc=doc, maxlen=maxlen: [
                {"verdict": "Ok", "machine": _summary(doc), "bound": maxlen}],
                *word_count(1, maxlen)),
        ))
    for name, param in _COMMUTATIVE_MATRICES:
        key = _catalog_key(name, param)
        path, doc = catalog[key]
        maxlen = 10
        # one-dimensional registers: every pair of effects commutes, and
        # each of these languages depends on letter counts alone
        jobs.append(Job(
            f"check commutative-matrices {key} --maxlen {maxlen}",
            _cli_run(["check", "commutative-matrices", path, "--maxlen", str(maxlen)]),
            _cli_check(0, lambda doc=doc, maxlen=maxlen: [
                {"verdict": "Ok", "machine": _summary(doc), "bound": maxlen}],
                *word_count(2, maxlen)),
        ))

    # separation machines: both single-string distinguishers, and the
    # finite-language vector automaton, on seeded strings
    for i in range(3):
        x = gen.random_digit_string(rng, 2, 6)
        for label, build in (("dbva", builders.binary_distinguisher),
                             ("dbhva", builders.hva_distinguisher)):
            path, doc = save(f"sep_{label}_{i}", build(x))
            maxlen = _SEPARATION_MAXLEN
            words, letters = word_count(2, maxlen)
            record = {"verdict": "Equal", "counterexample": None, "bound": maxlen,
                      "machine": _summary(doc), "against": {"reference": f"only_{x}"}}
            jobs.append(Job(
                f"verify sep_{label}({x}) --against singleton:{x} --maxlen {maxlen}",
                _cli_run(["verify", path, "--against", f"singleton:{x}",
                          "--maxlen", str(maxlen)]),
                _cli_check(0, lambda record=record: [record], words, letters),
            ))
    for i in range(2):
        # three distinct strings: the vector has dimension 2^3 + 1 = 9 in every seed
        strings = set()
        while len(strings) < 3:
            strings.add(gen.random_digit_string(rng, 1, 3))
        strings = sorted(strings)
        path, doc = save(f"finite_{i}", builders.finite_language_va(strings))
        maxlen = _FINITE_MAXLEN
        members = set(strings)
        jobs.append(Job(
            f"enumerate finite_language_va({','.join(strings)}) --maxlen {maxlen}",
            _cli_run(["enumerate", path, "--maxlen", str(maxlen)]),
            _cli_check(0, lambda members=members, maxlen=maxlen: [
                {"accepted": w} for w in oracle.all_words(("1", "2"), maxlen) if w in members
            ], *word_count(2, maxlen)),
        ))

    # multiplicative-register machines from seeded Diophantine systems
    for i in range(3):
        system = gen.random_system(rng)
        alphabet, rows = system["alphabet"], system["coefficients"]
        sys_path = workdir / f"system_{i}.json"
        sys_path.write_text(json.dumps(system), encoding="utf-8")
        famw = diophantine.famw_from_system(fileformat.parse_system(json.dumps(system)))
        path, doc = save(f"famw_{i}", famw)
        famw_text = Path(path).read_text(encoding="utf-8")
        out_path = workdir / f"famw_{i}_cli.mach"
        label = f"system_{i}{rows}"

        def famw_check(outcome, out_path=out_path, famw_text=famw_text):
            code, text = outcome
            written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
            if code != 0 or text or written != famw_text:
                return _failed(f"to-famw exit {code}, output file differs")
            return Tally(0, 0)
        jobs.append(Job(
            f"diophantine to-famw {label}",
            _cli_run(["diophantine", "to-famw", str(sys_path), "-o", str(out_path)]),
            famw_check,
        ))
        maxlen = 10
        words, letters = word_count(len(alphabet), maxlen)
        membership = _parikh_ok(rows, alphabet)
        jobs.append(Job(
            f"enumerate famw {label} --maxlen {maxlen}",
            _cli_run(["enumerate", path, "--maxlen", str(maxlen)]),
            _cli_check(0, lambda membership=membership, alphabet=alphabet, maxlen=maxlen: [
                {"accepted": w} for w in _ref_words(membership, alphabet, maxlen)
            ], words, letters),
        ))
        jobs.append(Job(
            f"check commutative famw {label} --maxlen {maxlen}",
            _cli_run(["check", "commutative", path, "--maxlen", str(maxlen)]),
            _cli_check(0, lambda doc=doc, maxlen=maxlen: [
                {"verdict": "Ok", "machine": _summary(doc), "bound": maxlen}],
                words, letters),
        ))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# random_nondet: passes plus bounded equivalence, and monoid embeddings

_PASSES = ("remove_endmarker", "rationals_to_integers")
# Every search is capped at this many configurations, as a CLI user caps
# it with --budget: uncapped, a monoid machine with an eps self-loop
# searches up to the default million configurations on every word. A
# capped search ends BudgetExceeded and counts as undecided, so slow
# machines stay in the workload.
BUDGET = machines.SearchBudget(max_configurations=500)


class _SourceCheck:
    """Checks a pool machine's own verdicts against the expected-verdict
    file, once per machine per run."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.done = {}

    def __call__(self, key: str, text: str) -> str:
        if key not in self.done:
            self.done[key] = self._compare(key, text)
        return self.done[key]

    def _compare(self, key, text):
        record = self.expected[key]
        spec = fileformat.parse_machine(text)
        words = oracle.all_words(spec.alphabet, record["maxlen"])
        for w, want in zip(words, record["verdicts"]):
            got = machines.run_nondeterministic(spec, w, BUDGET).verdict
            if not _agrees(want, got):
                return f"{key} on {w!r}: program {got}, oracle {want}"
        return None


def _agrees(oracle_verdict: str, program_verdict: str) -> bool:
    """BudgetExceeded is undecided, never wrong; a decided verdict must
    match the oracle's whenever the oracle has one."""
    if program_verdict == machines.BUDGET_EXCEEDED or oracle_verdict == "?":
        return True
    if oracle_verdict == "A":
        return program_verdict == machines.ACCEPT
    return program_verdict == machines.REJECT


def _pass_job(key, text, pass_name, maxlen, source_check):
    def run():
        spec = fileformat.parse_machine(text)
        out, _ = getattr(transforms, pass_name)(spec)
        out = fileformat.parse_machine(fileformat.write_machine(out))
        try:
            return langlab.equivalent_up_to(spec, out, maxlen, BUDGET)
        except UndecidedError as exc:
            return exc.word

    words = list(oracle.all_words(("a", "b"), maxlen))
    position = {w: i for i, w in enumerate(words)}

    def check(outcome):
        if isinstance(outcome, str):  # cut short by UndecidedError
            i = position[outcome]
            decided = words[:i]
            return Tally(2 * i + 1, 2 * sum(map(len, decided)) + len(outcome), 1)
        if not outcome.equal:
            return _failed(f"{pass_name} changed the language of {key}: "
                           f"{outcome.counterexample!r}")
        error = source_check(key, text)
        if error:
            return _failed(error)
        return Tally(2 * len(words), 2 * sum(map(len, words)))
    return Job(f"{pass_name} {key} + equivalent_up_to --maxlen {maxlen}", run, check)


def _embed_job(key, text, maxlen, expected):
    words = list(oracle.all_words(("a", "b"), maxlen))

    def run():
        spec = fileformat.parse_machine(text)
        embedded = machines.extendedfa_embed(spec)
        return [
            (machines.run_nondeterministic(spec, w, BUDGET).verdict,
             machines.run_nondeterministic(embedded, w, BUDGET).verdict)
            for w in words
        ]

    def check(outcome):
        undecided = 0
        for w, (left, right), want in zip(words, outcome, expected[key]["verdicts"]):
            if left != right:
                return _failed(f"extendedfa_embed changed {key} on {w!r}: {left} vs {right}")
            if not _agrees(want, left):
                return _failed(f"{key} on {w!r}: program {left}, oracle {want}")
            undecided += 2 * (left == machines.BUDGET_EXCEEDED)
        return Tally(2 * len(words), 2 * sum(map(len, words)), undecided)
    return Job(f"extendedfa_embed {key} word by word --maxlen {maxlen}", run, check)


def setup_random_nondet(seed: int, workdir: Path) -> list:
    """The whole pool, both passes of every machine, in seeded order."""
    rng = random.Random(seed)
    expected = oracle.load_expected()
    source_check = _SourceCheck(expected)
    jobs = []
    for i in range(gen.NBHVA_POOL):
        key = f"nbhva/{i}"
        doc = gen.nbhva_pool(i)
        _check_digest(expected, key, doc)
        text = gen.machine_text(doc)
        for pass_name in _PASSES:
            jobs.append(_pass_job(key, text, pass_name, gen.NBHVA_MAXLEN, source_check))
    for i in range(gen.EXTENDEDFA_POOL):
        key = f"extendedfa/{i}"
        doc = gen.extendedfa_pool(i)
        _check_digest(expected, key, doc)
        jobs.append(_embed_job(key, gen.machine_text(doc), gen.EXTENDEDFA_MAXLEN, expected))
    rng.shuffle(jobs)
    return jobs


def _check_digest(expected, key, doc):
    if expected[key]["digest"] != oracle.doc_digest(doc):
        raise RuntimeError(
            f"expected.json is stale for {key}; regenerate it with python3 -m perfbench.oracle"
        )


# ---------------------------------------------------------------------------
# long_words: one query on one distinct long word per job

RANDOM_DVAS = 1
RANDOM_DBHVAS = 1
_PROBE_LETTERS = 64
# register growth of the random machines, in bits after the probe word:
# 0.75 to 1.25 bits per letter, about the catalog eq machine's 1 bit
_PROBE_BITS = (48, 80)
_LONG_POOL_SEED = 83_000


def _surviving(make, rng):
    """Draw machines until one survives a random probe word: its register
    stays nonzero and grows at a rate inside _PROBE_BITS, so long words
    load the exact kernel and cost about the same from seed to seed."""
    while True:
        doc = make(rng)
        machine = oracle.Machine(doc)
        state, register = machine.initial_state, machine.v0
        for letter in "".join(rng.choice("ab") for _ in range(_PROBE_LETTERS)):
            (state, register), = machine.moves(state, letter, register)
        bits = max(max(e.numerator.bit_length(), e.denominator.bit_length())
                   for e in register)
        if any(register) and _PROBE_BITS[0] <= bits <= _PROBE_BITS[1]:
            return doc


def _word_maker(kind):
    """(rng, shape, length) -> word, for each kind of long-word input."""
    if kind in ("ab", "abc"):
        return lambda rng, shape, n: gen.long_word(rng, shape, kind, n)
    if kind == "dyck":
        return lambda rng, shape, n: gen.long_word(rng, shape, "()", n)
    if kind == "pow":
        return gen.pow_word
    if kind.startswith("block"):
        k = int(kind[len("block"):])
        return lambda rng, shape, n: gen.block_word(rng, shape, k, n)
    # unary: a multiple of 6 or a near miss
    return lambda rng, shape, n: "a" * (n - n % 6 + rng.choice((0, 0, 1, 3)))


def _intersection(a_name, a_param, b_name, b_param):
    product, _ = transforms.intersect_blind_hva(
        builders.example(a_name, a_param), builders.example(b_name, b_param))
    return fileformat.write_machine(product)


def _ref(name, param=None):
    return langlab.reference_language(name, param).membership


def _both(f, g):
    return lambda w: f(w) and g(w)


def long_word_machines() -> list:
    """(label, machine text, word kind, expected-verdict function) for every
    long-word machine; the pass outputs are built here, during set-up.
    The random machines come from a fixed generator seed, so that every
    workload seed loads the kernel with the same register growth."""
    rng = random.Random(_LONG_POOL_SEED)
    out = [
        ("eq", fileformat.write_machine(builders.example("eq")), "ab", _ref("eq")),
        ("dyck", fileformat.write_machine(builders.example("dyck")), "dyck", _ref("dyck")),
        ("pow_r", fileformat.write_machine(builders.example("pow_r")), "pow", _ref("pow_r")),
    ]
    for k in (2, 3):
        out.append((f"ab_k_star_{k}", fileformat.write_machine(builders.example("ab_k_star", k)),
                    f"block{k}", _ref("ab_k_star", k)))
    for label, counter, kind, ref in (
        ("counter_ab", gen.blind_counter_ab(), "ab", _ref("ab")),
        ("counter_abc", gen.blind_counter_abc(), "abc", _ref("balanced_abc")),
    ):
        spec = fileformat.parse_machine(gen.machine_text(counter))
        hva3, _ = transforms.counters_to_integer_hva3(spec)
        out.append((f"counters_to_integer_hva3({label})", fileformat.write_machine(hva3),
                    kind, ref))
    for a, ap, b, bp, kind, ref in (
        ("mod", 2, "mod", 3, "unary", _ref("mod", 6)),
        ("eq", None, "ab_k_star", 2, "block2", _both(_ref("eq"), _ref("ab_k_star", 2))),
        ("evenab", None, "ab_k_star", 2, "block2",
         _both(_ref("evenab"), _ref("ab_k_star", 2))),
        ("eq", None, "evenab", None, "ab", _ref("evenab")),
    ):
        label = f"intersect({_catalog_key(a, ap)},{_catalog_key(b, bp)})"
        out.append((label, _intersection(a, ap, b, bp), kind, ref))
    for i in range(RANDOM_DVAS):
        doc = _surviving(gen.random_dva, rng)
        source = oracle.Machine(doc)
        text = gen.machine_text(doc)
        flat, _ = transforms.eliminate_states(fileformat.parse_machine(text))
        out.append((f"dva_{i}", text, "ab", source))
        out.append((f"eliminate_states(dva_{i})", fileformat.write_machine(flat), "ab", source))
    for i in range(RANDOM_DBHVAS):
        doc = _surviving(gen.random_dbhva, rng)
        source = oracle.Machine(doc)
        text = gen.machine_text(doc)
        lifted, _ = transforms.rationals_to_integers(fileformat.parse_machine(text))
        out.append((f"dbhva_{i}", text, "ab", source))
        out.append((f"rationals_to_integers(dbhva_{i})", fileformat.write_machine(lifted),
                    "ab", source))
    return out


def _long_job(label, text, word, expected):
    def run():
        spec = fileformat.parse_machine(text)
        try:
            return machines.accepts(spec, word)
        except UndecidedError:
            return None

    wanted = []

    def check(outcome):
        if outcome is None:
            return Tally(1, len(word), 1)
        if not wanted:
            wanted.append(expected(word) if callable(expected)
                          else oracle.verdict(expected, word) == "A")
        want = wanted[0]
        if outcome != want:
            return _failed(f"{label} on a {len(word)}-letter word: program {outcome}, "
                           f"expected {want}")
        return Tally(1, len(word))
    return Job(f"{label} on {len(word)} letters", run, check)


# word shapes from the shortest length stratum to the longest: the
# structured balanced words, whose registers grow fastest, are the longest
_SHAPES_BY_LENGTH = ("random", "unbalanced", "near_balanced", "balanced")


def setup_long_words(seed: int, workdir: Path) -> list:
    """Four words per machine, one of each shape, each shape in its own
    quarter of the length range. Within a quarter the machines take evenly
    spaced lengths, so job costs spread without gaps; the seed shortens
    each by up to 1% and sets the job order. The letters of random words
    come from a fixed stream per job, as the random machines do: a random
    word's register, and so its cost, depends on its letters, and with
    seed-drawn letters the median job moved by a quarter between seeds."""
    rng = random.Random(seed)
    jobs = []
    entries = long_word_machines()
    slots = len(_SHAPES_BY_LENGTH) * len(entries) - 1
    for m, (label, text, kind, expected) in enumerate(entries):
        make = _word_maker(kind)
        for k, shape in enumerate(_SHAPES_BY_LENGTH):
            slot = k * len(entries) + m
            top = gen.LONG_MIN + slot * (gen.LONG_MAX - gen.LONG_MIN) // slots
            length = rng.randint(top - top // 100, top)
            letters = random.Random(_LONG_POOL_SEED + 1 + slot)
            jobs.append(_long_job(label, text, make(letters, shape, length), expected))
    rng.shuffle(jobs)
    return jobs


SETUP = {
    "catalog_verify": setup_catalog_verify,
    "random_nondet": setup_random_nondet,
    "long_words": setup_long_words,
}


# ---------------------------------------------------------------------------
# known defects, probed outside the measured jobs


def _aliasing_probe() -> dict:
    """The tensor intersection of ``eq`` with its multiplier-swapped copy
    should recognize eq, but scalar aliasing makes it accept unbalanced
    words."""
    swapped = fileformat.parse_machine(gen.machine_text(gen.eq_swapped()))
    product, _ = transforms.intersect_blind_hva(builders.example("eq"), swapped)
    eq = _ref("eq")
    words = ["a", "b", "ab", "aab"] + ["a" * n + "b" * (n + 1) for n in (10, 100, 1000)]
    wrong = [w[:12] for w in words if machines.accepts(product, w) != eq(w)]
    return {"defect": "intersect_blind_hva(eq, eq with a/b multipliers swapped)",
            "probes": len(words), "wrong": len(wrong), "examples": wrong[:3]}


def _empty_machine_probe() -> dict:
    """A blind end-marker HVA with no transitions validates; the integer
    conversion should convert or refuse it with UnsupportedPassError."""
    doc = gen.nbhva_pool(0)
    doc = dict(doc, transitions=[], realtime=True)
    spec = fileformat.parse_machine(gen.machine_text(doc))
    try:
        transforms.rationals_to_integers(spec)
        outcome = None
    except UnsupportedPassError:
        outcome = None
    except Exception as exc:  # noqa: BLE001 -- any other exception is the defect
        outcome = f"{type(exc).__name__}: {exc}"
    return {"defect": "rationals_to_integers on a machine with no transitions",
            "probes": 1, "wrong": int(outcome is not None),
            "examples": [outcome] if outcome else []}


def known_defect_probes() -> list:
    """Known program defects, each checked on a few inputs every run;
    ``wrong`` counts the inputs that still get a wrong outcome."""
    return [_aliasing_probe(), _empty_machine_probe()]
