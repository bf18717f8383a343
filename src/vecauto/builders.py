"""Synthesizers for the string-separation machines and the catalog of
concrete example machines.

Every builder emits a machine that already passes ``validate``; an
internal inconsistency here is a builder bug, not a user error. The
separation machines encode strings as numbers in base m over the digit
alphabet {1, ..., m-1} (no zero digit, so the encoding is injective on
nonempty strings).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BuilderError, EncodingError
from .exact import Matrix, RowVector, direct_sum, inverse, mat_mul, tensor, tensor_vec
from .machines import (
    DETERMINISTIC,
    ENDMARKER,
    HVA,
    NONDETERMINISTIC,
    STATUS_ANY,
    STATUS_EQ,
    STATUS_NE,
    VA,
    MachineSpec,
    TransitionRule,
    stateless,
)
from .transforms import DFA, dfa_to_stateless_dbhva, remove_endmarker


def _scalar(value) -> Matrix:
    return Matrix.from_rows([[Fraction(value)]])


# ---------------------------------------------------------------------------
# base-m encodings


def digit_alphabet(base: int) -> tuple:
    """The digits 1..base-1; a base outside 3..10 has a digit that is not
    one character, or no second digit, so it is refused."""
    if not 3 <= base <= 10:
        raise BuilderError(f"encoding base must be in 3..10, got {base}")
    return tuple(str(d) for d in range(1, base))


def digit_matrix(digit: int, base: int) -> Matrix:
    """The matrix that extends (1, e(x)) to (1, e(x d)) for one more digit d."""
    return Matrix.from_rows([[1, digit], [0, base]])


def encode_base(x: str, base: int = 3) -> int:
    """Value of a digit string in base m over digits {1, ..., m-1}; the
    one check of a separation string and its base."""
    digits = digit_alphabet(base)
    if not x:
        raise EncodingError("cannot encode the empty string")
    value = 0
    for ch in x:
        if ch not in digits:
            raise EncodingError(f"digit {ch!r} invalid for base {base}")
        value = base * value + int(ch)
    return value


def _reverse_encoding(x: str, base: int) -> int:
    return encode_base(x[::-1], base)


# ---------------------------------------------------------------------------
# string separation


def unary_distinguisher(i: int, alphabet=("a", "b")) -> MachineSpec:
    """Stateless blind VA with end-marker accepting exactly a^i.

    Starts at 2^i, halves on each 'a', and multiplies by zero on any
    other symbol so foreign letters poison the register permanently.
    """
    if i < 0:
        raise BuilderError("exponent must be nonnegative")
    if "a" not in alphabet:
        raise BuilderError("alphabet must contain 'a'")
    rules = [(ENDMARKER, _scalar(1))]
    for sym in alphabet:
        rules.append((sym, _scalar(Fraction(1, 2) if sym == "a" else 0)))
    return stateless(VA, alphabet, 1, [Fraction(2) ** i], rules, endmarker=True)


def binary_distinguisher(x: str, base: int = 3) -> MachineSpec:
    """Stateless blind VA with end-marker accepting exactly the string x.

    The initial vector carries the reversed-string encoding e(x^r); each
    digit d applies the inverse digit matrix, peeling one digit of y^r
    off the difference, so just before the end-marker the vector is
    (1, e(x^r) - e(y^r)). The $-matrix folds that difference into the
    first entry, which therefore equals 1 exactly when y = x; on the
    empty input the first entry becomes 1 + e(x^r) > 1.
    """
    if not x:
        raise BuilderError("cannot build a distinguisher for the empty string")
    target = _reverse_encoding(x, base)
    rules = [(str(d), inverse(digit_matrix(d, base))) for d in range(1, base)]
    rules.append((ENDMARKER, Matrix.from_rows([[1, target], [1, 0]])))
    return stateless(VA, digit_alphabet(base), 2, [1, target], rules, endmarker=True)


def finite_language_va(strings, base: int = 3) -> MachineSpec:
    """Stateless blind VA with end-marker accepting exactly a finite set
    of nonempty strings, on a vector of dimension 2^|X| + 1.

    The per-string distinguisher vectors run in parallel as one tensor
    product in the trailing entries. The first of the two end-marker
    factors collapses each parallel pair (1, e_i - e_y) to
    (e_i - e_y, 0), turning the tensor block into the single product
    P = prod_i (e(x_i^r) - e(y^r)) followed by zeros; the second factor
    rebuilds the fixed initial tail and adds P to the leading 1, so the
    first entry is 1 exactly when some factor vanished, i.e. y is in X.
    """
    strings = sorted(set(strings), key=lambda s: (len(s), s))
    if not strings:
        raise BuilderError("the string set must be nonempty")
    if "" in strings:
        raise BuilderError("the construction needs nonempty strings")
    k = len(strings)
    encodings = [_reverse_encoding(x, base) for x in strings]
    dim = 2**k + 1

    def bordered(block: Matrix) -> Matrix:
        return direct_sum(Matrix.identity(1), block)

    def tensor_power(m: Matrix) -> Matrix:
        out = m
        for _ in range(k - 1):
            out = tensor(out, m)
        return out

    tail = RowVector([1, encodings[0]])
    for e in encodings[1:]:
        tail = tensor_vec(tail, RowVector([1, e]))
    v0 = RowVector([1] + list(tail.entries))

    rules = [
        (str(d), bordered(tensor_power(inverse(digit_matrix(d, base)))))
        for d in range(1, base)
    ]
    collapse = bordered(tensor_power(Matrix.from_rows([[0, 0], [1, 0]])))
    rebuild_rows = [list(v0.entries), [1] + [0] * (dim - 1)]
    rebuild_rows += [[0] * dim for _ in range(dim - 2)]
    rules.append((ENDMARKER, mat_mul(collapse, Matrix.from_rows(rebuild_rows))))
    return stateless(VA, digit_alphabet(base), dim, v0, rules, endmarker=True)


def hva_distinguisher(x: str, base: int = 3) -> MachineSpec:
    """Two-state blind deterministic HVA accepting exactly the string x.

    From the initial state, the first letter applies the whole encoding
    of x^r composed with one inverse digit matrix and moves to the only
    accept state; later letters keep peeling digits. The vector returns
    to (1, 0) exactly when e(y^r) = e(x^r), and the empty input never
    leaves the non-accepting initial state.
    """
    if not x:
        raise BuilderError("cannot build a distinguisher for the empty string")
    # the product of the digit matrices of x^r
    encode_all = Matrix.from_rows([[1, _reverse_encoding(x, base)], [0, base ** len(x)]])
    rules = []
    for d in range(1, base):
        inv = inverse(digit_matrix(d, base))
        rules.append(TransitionRule("q1", str(d), STATUS_ANY, "q2", mat_mul(encode_all, inv)))
        rules.append(TransitionRule("q2", str(d), STATUS_ANY, "q2", inv))
    return MachineSpec(
        kind=HVA,
        mode=DETERMINISTIC,
        blind=True,
        endmarker=False,
        realtime=True,
        alphabet=digit_alphabet(base),
        states=("q1", "q2"),
        initial_state="q1",
        accept_states=frozenset({"q2"}),
        dimension=2,
        initial_vector=RowVector([1, 0]),
        transitions=tuple(rules),
    )


def finite_language_nbhva(strings, base: int = 3) -> MachineSpec:
    """Blind nondeterministic HVA with at most 3 states (2 when the empty
    string is absent) accepting exactly a finite set of strings.

    First a stateless end-marker machine is built: digits accumulate the
    forward encoding e(y) in the second vector entry, and the end-marker
    nondeterministically picks a member x_i via a matrix that returns
    the vector to (1, 0) exactly when e(y) = e(x_i). End-marker removal
    then folds the picking step into a fresh accept state.
    """
    strings = sorted(set(strings), key=lambda s: (len(s), s))
    if not strings:
        raise BuilderError("the string set must be nonempty")
    rules = [(str(d), digit_matrix(d, base)) for d in range(1, base)]
    for x in strings:
        if x == "":
            rules.append((ENDMARKER, Matrix.identity(2)))
        else:
            e = encode_base(x, base)
            rules.append((ENDMARKER, Matrix.from_rows([[1 - e, -e], [1, 1]])))
    with_marker = stateless(
        HVA, digit_alphabet(base), 2, [1, 0], rules,
        mode=NONDETERMINISTIC, endmarker=True,
    )
    out, _ = remove_endmarker(with_marker)
    return out


# ---------------------------------------------------------------------------
# example machine catalog


def _pow_r() -> MachineSpec:
    """Three-state blind deterministic HVA with end-marker for
    { a^(2^n) b^n : n >= 0 }: 'a' increments the first entry, 'b'
    doubles the second, and the end-marker stores their difference in
    both entries, which equals (1, 1) exactly when i + 1 - 2^j = 1."""
    a = Matrix.from_rows([[1, 0], [1, 1]])
    b = Matrix.from_rows([[1, 0], [0, 2]])
    end = Matrix.from_rows([[1, 1], [-1, -1]])
    rules = [
        TransitionRule("q1", "a", STATUS_ANY, "q1", a),
        TransitionRule("q1", "b", STATUS_ANY, "q2", b),
        TransitionRule("q2", "b", STATUS_ANY, "q2", b),
        TransitionRule("q1", ENDMARKER, STATUS_ANY, "q3", end),
        TransitionRule("q2", ENDMARKER, STATUS_ANY, "q3", end),
    ]
    return MachineSpec(
        kind=HVA,
        mode=DETERMINISTIC,
        blind=True,
        endmarker=True,
        realtime=True,
        alphabet=("a", "b"),
        states=("q1", "q2", "q3"),
        initial_state="q1",
        accept_states=frozenset({"q3"}),
        dimension=2,
        initial_vector=RowVector([1, 1]),
        transitions=tuple(rules),
    )


def _ab_star() -> MachineSpec:
    """Stateless blind deterministic HVA of dimension 10 for {a^n b^n}*.

    A three-dimensional core counts 2^i - 1 while reading a's and drains
    it while reading b's, leaving a nonzero third entry exactly when a
    block was unbalanced. The core is tensored with itself so that entry
    nine carries the square of that residue, and a tenth entry absorbs
    entry nine whenever a new block of a's starts; once positive it can
    never return to zero, which pins every unbalanced block.
    """
    core_a = Matrix.from_rows([[1, 1, 0], [0, 2, 0], [0, 0, 0]])
    core_b = Matrix.from_rows(
        [[1, 0, Fraction(-1, 2)], [0, 0, Fraction(1, 2)], [0, 0, Fraction(1, 2)]]
    )

    def lift(core: Matrix, carry_ninth: bool) -> Matrix:
        sq = tensor(core, core)
        rows = [list(sq.row(i)) + [0] for i in range(9)]
        if carry_ninth:
            rows[8][9] = 1
        rows.append([0] * 9 + [1])
        return Matrix.from_rows(rows)

    rules = [("a", lift(core_a, True)), ("b", lift(core_b, False))]
    return stateless(HVA, ("a", "b"), 10, [1] + [0] * 9, rules)


def cyclic_dfa(m: int) -> DFA:
    states = tuple(f"q{i}" for i in range(m))
    delta = {(f"q{i}", "a"): f"q{(i + 1) % m}" for i in range(m)}
    return DFA(states, ("a",), "q0", {"q0"}, delta)


def _mod(m: int) -> MachineSpec:
    if m < 1:
        raise BuilderError("modulus must be >= 1")
    spec, _ = dfa_to_stateless_dbhva(cyclic_dfa(m))
    return spec


def _mod_rot(m: int) -> MachineSpec:
    """Planar-rotation recognizer for a^(km); only the moduli with
    rational sine and cosine are constructible in exact arithmetic."""
    rotations = {
        1: Matrix.identity(2),
        2: Matrix.from_rows([[-1, 0], [0, -1]]),
        4: Matrix.from_rows([[0, -1], [1, 0]]),
    }
    if m not in rotations:
        raise BuilderError(
            f"rotation recognizer needs rational entries; modulus must be in {{1, 2, 4}}, got {m}"
        )
    return stateless(HVA, ("a",), 2, [1, 0], [("a", rotations[m])])


def _ab_k_star(k: int) -> MachineSpec:
    """Stateless blind deterministic HVA of dimension 2k for {a^k b^k}*:
    'a' shifts the populated entry up through the first half, 'b'
    through the second half and back to the start; any off-pattern
    letter zeroes the vector."""
    if k <= 1:
        raise BuilderError("block length must be > 1")
    dim = 2 * k
    a_entries = [[0] * dim for _ in range(dim)]
    for i in range(k):
        a_entries[i][i + 1] = 1
    b_entries = [[0] * dim for _ in range(dim)]
    for i in range(k):
        src = i + k
        b_entries[src][(src + 1) % dim] = 1
    rules = [("a", Matrix.from_rows(a_entries)), ("b", Matrix.from_rows(b_entries))]
    return stateless(HVA, ("a", "b"), dim, [1] + [0] * (dim - 1), rules)


def _eq() -> MachineSpec:
    """One-dimensional scale counter for equally many a's and b's."""
    rules = [("a", _scalar(2)), ("b", _scalar(Fraction(1, 2)))]
    return stateless(HVA, ("a", "b"), 1, [1], rules)


def _leq() -> MachineSpec:
    """Nondeterministic one-dimensional machine for |w|_a <= |w|_b: each
    'b' either halves the register or leaves it alone."""
    rules = [("a", _scalar(2)), ("b", _scalar(Fraction(1, 2))), ("b", _scalar(1))]
    return stateless(HVA, ("a", "b"), 1, [1], rules, mode=NONDETERMINISTIC)


def _dyck() -> MachineSpec:
    """Non-blind one-dimensional machine for balanced brackets: doubling
    on '(', halving on ')' while above the start value, and zeroing the
    register forever on a ')' at the start value."""
    rules = [
        ("(", _scalar(2)),
        (")", _scalar(Fraction(1, 2)), STATUS_NE),
        (")", _scalar(0), STATUS_EQ),
    ]
    return stateless(HVA, ("(", ")"), 1, [1], rules, blind=False)


def _evenab() -> MachineSpec:
    """One-dimensional machine whose register is (-1)^(#a) 2^(#a - #b):
    it returns to 1 exactly on strings with equally many a's and b's and
    an even count. The sign bit is what a positive-register
    multiplicative machine cannot express."""
    rules = [("a", _scalar(-2)), ("b", _scalar(Fraction(1, 2)))]
    return stateless(HVA, ("a", "b"), 1, [1], rules)


def _l_epsilon() -> MachineSpec:
    """The unary-point machine for i = 0 with its end-marker step removed:
    a homing machine accepting only the empty string."""
    rules = [("a", _scalar(Fraction(1, 2))), ("b", _scalar(0))]
    return stateless(HVA, ("a", "b"), 1, [1], rules)


# name -> (builder, whether it takes an integer parameter)
_CATALOG = {
    "pow_r": (_pow_r, False),
    "ab_star": (_ab_star, False),
    "mod": (_mod, True),
    "mod_rot": (_mod_rot, True),
    "ab_k_star": (_ab_k_star, True),
    "eq": (_eq, False),
    "leq": (_leq, False),
    "dyck": (_dyck, False),
    "evenab": (_evenab, False),
    "l_epsilon": (_l_epsilon, False),
    "unary_point": (unary_distinguisher, True),
}
EXAMPLE_NAMES = tuple(_CATALOG)


def example(name: str, param: int = None) -> MachineSpec:
    """Catalog lookup for the named example machines.

    Parametric entries (mod, mod_rot, ab_k_star, unary_point) require
    `param`; the rest reject it.
    """
    key = name.lower()
    if key not in _CATALOG:
        raise BuilderError(f"unknown example {name!r}; know {', '.join(EXAMPLE_NAMES)}")
    build, parametric = _CATALOG[key]
    if not parametric:
        if param is not None:
            raise BuilderError(f"example {key!r} takes no parameter")
        return build()
    if param is None:
        raise BuilderError(f"example {key!r} needs an integer parameter")
    return build(param)
