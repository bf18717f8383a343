"""Acceptance suite: every release criterion as one test, each printing
a single pass/fail line. All comparisons are exact (rational
arithmetic), so every tolerance is zero.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
from fractions import Fraction

from machine_gen import (
    blind_counter_a_endmarker,
    blind_counter_ab,
    blind_counter_abc,
    extendedfa_a_endmarker,
    random_dva,
    random_extendedfa,
    random_nbhva_endmarker,
    random_system,
)
from vecauto.builders import (
    binary_distinguisher,
    example,
    finite_language_va,
    hva_distinguisher,
)
from vecauto.diophantine import (
    check_commutative,
    famw_from_system,
    solutions_up_to,
    system_from_famw,
)
from vecauto.exact import Matrix, RowVector, vec_mat_mul
from vecauto.langlab import (
    NOT_APPLICABLE,
    all_strings,
    check_commutative_matrices,
    check_gcd_property,
    check_star_closure,
    check_suffix_property,
    equivalent_up_to,
    matches_reference,
    reference_language,
)
from vecauto.machines import (
    DETERMINISTIC,
    ENDMARKER,
    HVA,
    STATUS_EQ,
    STATUS_NE,
    MachineSpec,
    TransitionRule,
    accepts,
    extendedfa_embed,
    run_nondeterministic,
    validate,
)
from vecauto.transforms import (
    bordered_matrix,
    counters_to_integer_hva3,
    eliminate_states,
    intersect_blind_hva,
    rationals_to_integers,
    remove_endmarker,
    scale_initial_vector,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_c01_example_machine_fidelity():
    cases = [
        (example("pow_r"), reference_language("pow_r"), 10),
        (example("ab_star"), reference_language("ab_star"), 8),
        (example("eq"), reference_language("eq"), 10),
        (example("leq"), reference_language("leq"), 10),
        (example("dyck"), reference_language("dyck"), 10),
        (example("evenab"), reference_language("evenab"), 10),
        (example("l_epsilon"), reference_language("l_epsilon"), 10),
    ]
    cases += [(example("mod", m), reference_language("mod", m), 10) for m in range(1, 7)]
    cases += [
        (example("ab_k_star", k), reference_language("ab_k_star", k), 10)
        for k in (2, 3)
    ]
    failures = []
    for spec, ref, bound in cases:
        verdict = matches_reference(spec, ref, bound)
        if not verdict.equal:
            failures.append((ref.name, verdict.counterexample))
    report(1, "example-machine fidelity", not failures, str(failures))


def test_c02_endmarker_removal():
    machines = [example("pow_r")]
    machines += [random_nbhva_endmarker(random.Random(3000 + i)) for i in range(20)]
    failures = []
    for idx, spec in enumerate(machines):
        out, rep = remove_endmarker(spec)
        if validate(out):
            failures.append((idx, "invalid output"))
            continue
        if len(out.states) > len(spec.states) + 2:
            failures.append((idx, "too many states"))
            continue
        if rep.parameters["accepts_empty"]:
            incoming = [r for r in out.transitions if r.target == out.initial_state]
            if incoming:
                failures.append((idx, "fresh initial state has incoming transitions"))
                continue
        verdict = equivalent_up_to(spec, out, 8)
        if not verdict.equal:
            failures.append((idx, verdict.counterexample))
    report(2, "end-marker removal", not failures, str(failures))


def _integer_conversion_invariant(spec, lifted, c, scale):
    """Replay accepted runs: just before postprocessing the lifted
    register must be (c^(p+1) * final, c^(p+1), 1)."""
    scaled = spec if scale == 1 else scale_initial_vector(spec, scale)[0]
    checked = 0
    for word in all_strings(spec.alphabet, 5):
        result = run_nondeterministic(scaled, word)
        if not result.accepted:
            continue
        path = result.accepting_path
        register = scaled.initial_vector
        lifted_register = lifted.initial_vector
        for step_index, rule_index in enumerate(path):
            rule = scaled.transitions[rule_index]
            register = vec_mat_mul(register, rule.effect)
            if rule.input == ENDMARKER:
                lifted_register = vec_mat_mul(
                    lifted_register, bordered_matrix(rule.effect, c)
                )
            else:
                lifted_register = vec_mat_mul(
                    lifted_register, lifted.transitions[rule_index].effect
                )
            power = Fraction(c) ** (step_index + 1)
            expected = RowVector(
                [power * e for e in register.entries] + [power, Fraction(1)]
            )
            if lifted_register != expected:
                return False, (word, step_index)
        checked += 1
        if checked >= 8:
            break
    return True, checked


def test_c03_integer_conversion():
    failures = []
    for i in range(20):
        spec = random_nbhva_endmarker(random.Random(4000 + i))
        out, rep = rationals_to_integers(spec)
        if validate(out):
            failures.append((i, "invalid output"))
            continue
        if out.dimension != spec.dimension + 2 or len(out.states) != len(spec.states):
            failures.append((i, "wrong shape"))
            continue
        if any(e.denominator != 1 for r in out.transitions for e in r.effect.entries):
            failures.append((i, "non-integer entry"))
            continue
        verdict = equivalent_up_to(spec, out, 8)
        if not verdict.equal:
            failures.append((i, verdict.counterexample))
            continue
        ok, where = _integer_conversion_invariant(
            spec, out, rep.parameters["c"], rep.parameters["initial_scale"]
        )
        if not ok:
            failures.append((i, f"register-shape invariant at {where}"))
    report(3, "integer conversion", not failures, str(failures))


def _blocks_invariant(source, collapsed):
    """All non-current blocks zero; the leading entry mirrors the
    (end-marker-normalized) source register's first entry."""
    normalized = MachineSpec(
        **{
            **{f: getattr(source, f) for f in (
                "kind", "mode", "blind", "endmarker", "realtime", "alphabet",
                "states", "initial_state", "accept_states", "dimension",
                "initial_vector", "gfa_final_vector", "gfa_cutpoint")},
            "transitions": tuple(
                TransitionRule(
                    r.source, r.input, r.status, r.target,
                    Matrix.zero(source.dimension, source.dimension),
                )
                if r.input == ENDMARKER and r.target not in source.accept_states
                else r
                for r in source.transitions
            ),
        }
    )
    k = source.dimension
    block = {q: 1 + i * k for i, q in enumerate(source.states)}
    for word in all_strings(source.alphabet, 6):
        src = run_nondeterministic(normalized, word)
        big = run_nondeterministic(collapsed, word)
        for s_conf, b_conf in zip(src.trace, big.trace):
            if b_conf.register[0] != s_conf.register[0]:
                return False, (word, "leading entry")
            for q in source.states:
                base = block[q]
                for t in range(k):
                    expected = s_conf.register[t] if q == s_conf.state else 0
                    if b_conf.register[base + t] != expected:
                        return False, (word, f"block {q}")
    return True, None


def test_c04_state_elimination():
    failures = []
    for i in range(10):
        spec = random_dva(random.Random(5000 + i))
        assert validate(spec) == []
        out, _ = eliminate_states(spec)
        n, k = len(spec.states), spec.dimension
        if validate(out):
            failures.append((i, "invalid output"))
            continue
        if len(out.states) != 1 or out.dimension != n * k + 1:
            failures.append((i, "wrong shape"))
            continue
        verdict = equivalent_up_to(spec, out, 8)
        if not verdict.equal:
            failures.append((i, verdict.counterexample))
            continue
        ok, where = _blocks_invariant(spec, out)
        if not ok:
            failures.append((i, f"block invariant at {where}"))
    report(4, "state elimination", not failures, str(failures))


def test_c05_counter_pipeline():
    failures = []
    for name, source, bound in [
        ("a^n b^n", blind_counter_ab(), 10),
        ("balanced abc", blind_counter_abc(), 9),
        ("a with end-marker", blind_counter_a_endmarker(), 6),
    ]:
        out, _ = counters_to_integer_hva3(source)
        if validate(out):
            failures.append((name, "invalid output"))
            continue
        if out.dimension != 3:
            failures.append((name, "dimension"))
            continue
        if any(e.denominator != 1 for r in out.transitions for e in r.effect.entries):
            failures.append((name, "non-integer entry"))
            continue
        verdict = equivalent_up_to(source, out, bound)
        if not verdict.equal:
            failures.append((name, verdict.counterexample))
    report(5, "counter pipeline", not failures, str(failures))


def test_c06_separation_suite():
    digits = ("1", "2")
    pool = [w for w in all_strings(digits, 5) if w]
    failures = []
    for x in pool:
        for build, label in ((binary_distinguisher, "flat"), (hva_distinguisher, "homing")):
            spec = build(x)
            if not accepts(spec, x):
                failures.append((label, x, "rejects its own string"))
            if accepts(spec, ""):
                failures.append((label, x, "accepts the empty string"))
            for y in pool:
                if y != x and accepts(spec, y):
                    failures.append((label, x, y))

    short = [w for w in all_strings(digits, 3) if w]
    test_words = list(all_strings(digits, 5))
    for size in (1, 2, 3):
        for subset in itertools.combinations(short, size):
            spec = finite_language_va(subset)
            wanted = set(subset)
            got = {w for w in test_words if accepts(spec, w)}
            if got != wanted:
                failures.append(("finite", subset, got ^ wanted))
    report(6, "separation suite", not failures, str(failures[:5]))


def test_c07_diophantine_round_trip():
    failures = []
    for i in range(20):
        system = random_system(random.Random(6000 + i))
        machine = famw_from_system(system)
        n = len(system.alphabet)

        # the register is a one-dimensional product, so membership is a
        # function of the Parikh class; one representative per class
        # covers all strings up to the length bound
        accepted_classes = set()
        for counts in itertools.product(range(10), repeat=n):
            if sum(counts) > 9:
                continue
            word = "".join(sym * c for sym, c in zip(system.alphabet, counts))
            if accepts(machine, word):
                accepted_classes.add(counts)
        expected = {
            s for s in solutions_up_to(system, 9) if sum(s) <= 9
        }
        if accepted_classes != expected:
            failures.append((i, "solution set mismatch"))
            continue
        if system_from_famw(machine) != system:
            failures.append((i, "round trip"))
            continue
        words = all_strings(system.alphabet, 6)
        if check_commutative(((w, accepts(machine, w)) for w in words), system.alphabet):
            failures.append((i, "not commutative"))
    report(7, "multiplicative-register round trip", not failures, str(failures))


STATELESS_EXAMPLES = (
    [("eq", None), ("leq", None), ("dyck", None), ("evenab", None),
     ("l_epsilon", None), ("ab_star", None)]
    + [("ab_k_star", k) for k in (2, 3)]
    + [("mod", m) for m in range(1, 7)]
    + [("mod_rot", m) for m in (1, 2, 4)]
)


def test_c08_stateless_properties():
    failures = []
    for name, param in STATELESS_EXAMPLES:
        spec = example(name, param)
        witness = check_star_closure(spec, 8)
        if witness is not None:
            failures.append(("star", name, param, witness))
        if spec.mode == DETERMINISTIC:
            witness = check_suffix_property(spec, 8)
            if witness is not None:
                failures.append(("suffix", name, param, witness))
    for m in range(1, 7):
        witness = check_gcd_property(example("mod", m), 12)
        if witness is not None:
            failures.append(("gcd", m, witness))
    for name in ("eq", "leq", "evenab", "l_epsilon"):
        outcome = check_commutative_matrices(example(name), 7)
        if outcome is NOT_APPLICABLE or outcome is not None:
            failures.append(("commutative", name, outcome))
    report(8, "stateless properties", not failures, str(failures))


def _stateless_unary_attempt(m_eq, m_ne):
    """A stateless non-blind unary homing machine with one multiplier per
    register status."""
    return MachineSpec(
        kind=HVA,
        mode=DETERMINISTIC,
        blind=False,
        endmarker=False,
        realtime=True,
        alphabet=("a",),
        states=("q",),
        initial_state="q",
        accept_states=frozenset({"q"}),
        dimension=1,
        initial_vector=RowVector([1]),
        transitions=(
            TransitionRule("q", "a", STATUS_EQ, "q", Matrix.from_rows([[m_eq]])),
            TransitionRule("q", "a", STATUS_NE, "q", Matrix.from_rows([[m_ne]])),
        ),
    )


def test_c09_closure_and_negative_facts():
    failures = []
    product, _ = intersect_blind_hva(example("mod", 2), example("mod", 3))
    verdict = matches_reference(product, reference_language("mod", 6), 12)
    if not verdict.equal:
        failures.append(("intersection", verdict.counterexample))

    # pinned impossibility witness: every stateless deterministic homing
    # machine accepting both a^2 and a^3 also accepts a, so none of these
    # attempts recognizes the union of the 2- and 3-cycles
    pool = [Fraction(v) for v in (0, 1, -1, 2, -2, 3)] + [
        Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
    ]
    attempts = 0
    for m_eq in pool:
        for m_ne in pool:
            attempt = _stateless_unary_attempt(m_eq, m_ne)
            if accepts(attempt, "aa") and accepts(attempt, "aaa"):
                attempts += 1
                if not accepts(attempt, "a"):
                    failures.append(("gap machine exists", m_eq, m_ne))
                if check_suffix_property(attempt, 8) is not None:
                    failures.append(("suffix check failed", m_eq, m_ne))
    if attempts == 0:
        failures.append(("no attempt accepted both witnesses",))
    report(9, "closure and pinned negative facts", not failures, str(failures))


def test_c10_monoid_machine_embedding():
    failures = []
    budget_outcomes = 0
    machines = [random_extendedfa(random.Random(7000 + i)) for i in range(10)]
    for i, spec in enumerate(machines + [extendedfa_a_endmarker()]):
        assert validate(spec) == []
        embedded = extendedfa_embed(spec)
        if validate(embedded):
            failures.append((i, "invalid embedding"))
            continue
        for word in all_strings(spec.alphabet, 7):
            left = run_nondeterministic(spec, word).verdict
            right = run_nondeterministic(embedded, word).verdict
            if left != right:
                failures.append((i, word, left, right))
                break
            if left == "BudgetExceeded":
                budget_outcomes += 1
    report(
        10,
        "matrix-monoid embedding",
        not failures,
        f"budget-exceeded outcomes: {budget_outcomes}" if not failures else str(failures),
    )
