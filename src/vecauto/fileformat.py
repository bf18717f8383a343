"""The machine interchange file format (plus DFA and system files).

One machine per JSON document. Rationals are written as "p/q" or "p"
strings, matrices as row-major nested arrays, the empty-input symbol as
"eps" and the end-marker as "$". The writer is canonical (fixed key
order, two-space indent), so writing a parsed canonical file reproduces
it byte for byte.
"""

from __future__ import annotations

import json

from .diophantine import DiophantineSystem
from .errors import MachineFileError
from .exact import Matrix, RowVector, format_rational, parse_rational
from .machines import COUNTER_MACHINE, GFA, KINDS, MachineSpec, TransitionRule
from .transforms import DFA

_STATUS_TOKENS = ("*", "=", "!=")


def _fail(field, detail):
    raise MachineFileError(f"{field}: {detail}")


def _rational(field, value):
    try:
        return parse_rational(value)
    except (ValueError, TypeError):
        _fail(field, f"expected a rational 'p/q' string, got {value!r}")


def _int(field, value):
    q = _rational(field, value)
    if q.denominator != 1:
        _fail(field, f"expected an integer, got {value!r}")
    return q.numerator


def _list(field, value):
    if not isinstance(value, list):
        _fail(field, "expected a list")
    return value


def _string_list(field, value):
    if not all(isinstance(s, str) for s in _list(field, value)):
        _fail(field, "expected a list of strings")
    return value


def _document(text: str, required) -> dict:
    """The JSON object in `text`, checked for the `required` keys; raises
    MachineFileError with the offending line (for syntax) or key."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MachineFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        _fail("document", "expected a JSON object")
    for key in required:
        if key not in doc:
            _fail(key, "missing")
    return doc


def _transitions(value, extra_keys=()):
    """(field name, object) for each transition object: string "from",
    "input" and "to", plus the `extra_keys`."""
    for i, t in enumerate(_list("transitions", value)):
        where = f"transitions[{i}]"
        if not isinstance(t, dict):
            _fail(where, "expected an object")
        for key in ("from", "input", "to") + extra_keys:
            if key not in t:
                _fail(f"{where}.{key}", "missing")
        for key in ("from", "input", "to"):
            if not isinstance(t[key], str):
                _fail(f"{where}.{key}", "expected a string")
        yield where, t


def _parse_status(field, value, kind):
    if isinstance(value, str):
        if value not in _STATUS_TOKENS:
            _fail(field, f"unknown status {value!r}")
        return value
    if isinstance(value, list) and kind == COUNTER_MACHINE:
        if not all(s in ("=", "!=") for s in value):
            _fail(field, f"counter status components must be '=' or '!=', got {value!r}")
        return tuple(value)
    _fail(field, f"malformed status {value!r}")


def _parse_effect(field, value, kind):
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        _fail(field, "expected a nested row-major array")
    if kind == COUNTER_MACHINE:
        if len(value) != 1:
            _fail(field, "counter updates are a single row of increments")
        return tuple(_int(field, x) for x in value[0])
    width = len(value[0])
    if any(len(row) != width for row in value):
        _fail(field, "matrix rows have unequal lengths")
    return Matrix.from_rows([[_rational(field, x) for x in row] for row in value])


def parse_machine(text: str) -> MachineSpec:
    """Parse a machine document; raises MachineFileError with the
    offending line (for syntax) or field (for structure)."""
    doc = _document(text, (
        "kind", "mode", "blind", "endmarker", "realtime", "alphabet",
        "states", "initial_state", "accept_states", "dimension",
        "initial_vector", "transitions",
    ))
    kind = doc["kind"]
    if kind not in KINDS:
        _fail("kind", f"unknown kind {kind!r}")
    if doc["mode"] not in ("deterministic", "nondeterministic"):
        _fail("mode", f"unknown mode {doc['mode']!r}")
    for flag in ("blind", "endmarker", "realtime"):
        if not isinstance(doc[flag], bool):
            _fail(flag, "expected true or false")
    if isinstance(doc["dimension"], bool) or not isinstance(doc["dimension"], int):
        _fail("dimension", "expected an integer")

    entries = _list("initial_vector", doc["initial_vector"])
    if kind == COUNTER_MACHINE:
        initial_vector = tuple(_int("initial_vector", x) for x in entries)
    else:
        initial_vector = RowVector(_rational("initial_vector", x) for x in entries)

    rules = []
    for where, t in _transitions(doc["transitions"], ("status", "matrix")):
        rules.append(
            TransitionRule(
                source=t["from"],
                input=t["input"],
                status=_parse_status(f"{where}.status", t["status"], kind),
                target=t["to"],
                effect=_parse_effect(f"{where}.matrix", t["matrix"], kind),
            )
        )

    gfa_final_vector = None
    gfa_cutpoint = None
    if doc.get("gfa_final_vector") is not None:
        entries = _list("gfa_final_vector", doc["gfa_final_vector"])
        gfa_final_vector = RowVector(_rational("gfa_final_vector", x) for x in entries)
    if doc.get("gfa_cutpoint") is not None:
        gfa_cutpoint = _rational("gfa_cutpoint", doc["gfa_cutpoint"])

    return MachineSpec(
        kind=kind,
        mode=doc["mode"],
        blind=doc["blind"],
        endmarker=doc["endmarker"],
        realtime=doc["realtime"],
        alphabet=_string_list("alphabet", doc["alphabet"]),
        states=_string_list("states", doc["states"]),
        initial_state=doc["initial_state"],
        accept_states=_string_list("accept_states", doc["accept_states"]),
        dimension=doc["dimension"],
        initial_vector=initial_vector,
        transitions=rules,
        gfa_final_vector=gfa_final_vector,
        gfa_cutpoint=gfa_cutpoint,
    )


def _effect_rows(spec: MachineSpec, effect) -> list:
    if spec.kind == COUNTER_MACHINE:
        return [[str(c) for c in effect]]
    return [[format_rational(e) for e in effect.row(i)] for i in range(effect.rows)]


def write_machine(spec: MachineSpec) -> str:
    """Serialize a machine canonically."""
    doc = {
        "kind": spec.kind,
        "mode": spec.mode,
        "blind": spec.blind,
        "endmarker": spec.endmarker,
        "realtime": spec.realtime,
        "alphabet": list(spec.alphabet),
        "states": list(spec.states),
        "initial_state": spec.initial_state,
        "accept_states": [q for q in spec.states if q in spec.accept_states],
        "dimension": spec.dimension,
        "initial_vector": [format_rational(e) for e in spec.initial_vector],
        "transitions": [
            {
                "from": r.source,
                "input": r.input,
                "status": list(r.status) if isinstance(r.status, tuple) else r.status,
                "to": r.target,
                "matrix": _effect_rows(spec, r.effect),
            }
            for r in spec.transitions
        ],
    }
    if spec.kind == GFA:
        doc["gfa_final_vector"] = [format_rational(e) for e in spec.gfa_final_vector]
        doc["gfa_cutpoint"] = format_rational(spec.gfa_cutpoint)
    return json.dumps(doc, indent=2) + "\n"


def load_machine(path) -> MachineSpec:
    with open(path, encoding="utf-8") as handle:
        return parse_machine(handle.read())


def save_machine(spec: MachineSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_machine(spec))


# ---------------------------------------------------------------------------
# DFA files (input to the stateless-recognizer construction)


def parse_dfa(text: str) -> DFA:
    doc = _document(text, ("states", "alphabet", "initial_state", "accept_states", "transitions"))
    delta = {}
    for where, t in _transitions(doc["transitions"]):
        move = (t["from"], t["input"])
        if move in delta:
            _fail(where, f"duplicate move {move}")
        delta[move] = t["to"]
    return DFA(
        states=_string_list("states", doc["states"]),
        alphabet=_string_list("alphabet", doc["alphabet"]),
        initial_state=doc["initial_state"],
        accept_states=_string_list("accept_states", doc["accept_states"]),
        delta=delta,
    )


# ---------------------------------------------------------------------------
# Diophantine system files


def parse_system(text: str) -> DiophantineSystem:
    doc = _document(text, ("alphabet", "coefficients"))
    alphabet = _string_list("alphabet", doc["alphabet"])
    rows = doc["coefficients"]
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(type(c) is int for c in r) for r in rows
    ):
        _fail("coefficients", "expected a list of rows of JSON integers")
    try:
        return DiophantineSystem(alphabet, rows)
    except Exception as exc:
        raise MachineFileError(f"coefficients: {exc}") from exc


def write_system(system: DiophantineSystem) -> str:
    doc = {
        "alphabet": list(system.alphabet),
        "coefficients": [list(row) for row in system.coefficients],
    }
    return json.dumps(doc, indent=2) + "\n"
