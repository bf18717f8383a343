"""Command-line front end.

Every command prints line-delimited JSON records so test harnesses can
assert on the output without scraping prose. Exit codes: 0 for
ok/accept/equal, 1 for reject/not-equal (with the counterexample in the
record), 2 for usage or parse errors, 3 for an exhausted search budget.
A malformed command line is a usage error too: one UsageError record.

`main` may be called any number of times in one process; the parser is
built on the first call and shared by the later ones.

The default search budget can be overridden with the environment
variables VECAUTO_MAX_CONFIGS and VECAUTO_EPS_PER_PATH.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import builders, diophantine, fileformat, langlab, transforms
from .errors import UndecidedError, VecautoError
from .exact import dot, format_rational
from .machines import (
    ACCEPT,
    BUDGET_EXCEEDED,
    DEFAULT_MAX_CONFIGURATIONS,
    DETERMINISTIC,
    GFA,
    REJECT,
    MachineSpec,
    RunResult,
    SearchBudget,
    accepts,
    run_deterministic,
    run_nondeterministic,
    validate,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _intersect_cmd(spec, args):
    if args.with_machine is None:
        raise VecautoError("intersect needs a second machine: --with MACHINE")
    return transforms.intersect_blind_hva(spec, _load_valid(args.with_machine))


# Every entry looks its pass up in `transforms` when it runs, so a
# rebinding of the module attribute (a tracer, a test) is seen.
_PASSES = {
    "remove-endmarker": lambda spec, args: transforms.remove_endmarker(spec),
    "rationals-to-integers": lambda spec, args: transforms.rationals_to_integers(spec),
    "eliminate-states": lambda spec, args: transforms.eliminate_states(spec),
    "counters-to-hva1": lambda spec, args: transforms.counters_to_hva1(spec),
    "counters-to-integer-hva3": lambda spec, args: transforms.counters_to_integer_hva3(spec),
    "attach-endmarker": lambda spec, args: transforms.attach_trivial_endmarker(spec),
    "scale-initial-vector": lambda spec, args: transforms.scale_initial_vector(spec, args.scale),
    "intersect": _intersect_cmd,
}

# `check` properties, in the order the command line lists them; like the
# passes, each entry looks its check up when it runs.
_CHECKS = {
    "star-closure": lambda spec, maxlen, budget: langlab.check_star_closure(spec, maxlen, budget),
    "suffix": lambda spec, maxlen, budget: langlab.check_suffix_property(spec, maxlen, budget),
    "gcd": lambda spec, maxlen, budget: langlab.check_gcd_property(spec, maxlen, budget),
    "commutative-matrices":
        lambda spec, maxlen, budget: langlab.check_commutative_matrices(spec, maxlen, budget),
    "commutative": lambda spec, maxlen, budget: diophantine.check_commutative(
        ((w, accepts(spec, w, budget)) for w in langlab.all_strings(spec.alphabet, maxlen)),
        spec.alphabet),
}


def _emit(record: dict) -> None:
    print(json.dumps(record))


def _count(text: str, name: str) -> int:
    """A nonnegative integer read from the option or environment variable
    `name`: the argparse type of --maxlen, --budget, --eps-per-path and
    --bound (a partial that fixes `name`), and the parser of the budget
    environment variables. It raises VecautoError, which argparse does
    not catch, so a bad value ends in a UsageError record naming `name`."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise VecautoError(f"{name} must be a nonnegative integer, got {text!r}")
    return value


def _integer(text: str) -> int:
    """An integer: the argparse type of `build`'s parameter and of
    `separate --base`, whose ranges the builders check. Like `_count`, it
    raises VecautoError, so a bad value ends in a UsageError record."""
    try:
        return int(text)
    except ValueError:
        raise VecautoError(f"not an integer: {text!r}") from None


def _option_or_env(value, name):
    if value is not None or not os.environ.get(name):
        return value
    return _count(os.environ[name], name)


def _budget_from(args) -> SearchBudget:
    max_configs = _option_or_env(args.budget, "VECAUTO_MAX_CONFIGS")
    return SearchBudget(
        eps_per_path=_option_or_env(args.eps_per_path, "VECAUTO_EPS_PER_PATH"),
        max_configurations=DEFAULT_MAX_CONFIGURATIONS if max_configs is None else max_configs,
    )


def _emit_if_invalid(spec) -> bool:
    """Emit the Invalid record of a machine that fails validation; True if it did."""
    diags = validate(spec)
    if diags:
        _emit({"verdict": "Invalid", "diagnostics": diags, "machine": spec.summary()})
    return bool(diags)


def _load_valid(path) -> MachineSpec:
    spec = fileformat.load_machine(path)
    diags = validate(spec)
    if diags:
        raise VecautoError("; ".join(diags))
    return spec


def cmd_validate(args) -> int:
    try:
        spec = fileformat.load_machine(args.machine)
    except VecautoError as exc:
        _emit({"verdict": "ParseError", "detail": str(exc)})
        return EXIT_USAGE
    if _emit_if_invalid(spec):
        return EXIT_USAGE
    _emit({"verdict": "Valid", "machine": spec.summary()})
    return EXIT_OK


def _check_symbols(word: str, alphabet) -> None:
    """A word with a symbol outside `alphabet` is a usage error."""
    foreign = [ch for ch in word if ch not in alphabet]
    if foreign:
        raise VecautoError(f"input symbols {foreign} not in alphabet {list(alphabet)}")


def cmd_run(args) -> int:
    spec = _load_valid(args.machine)
    word = args.input
    _check_symbols(word, spec.alphabet)
    budget = _budget_from(args)  # a malformed budget is a usage error in either mode
    record = {"verdict": None, "machine": spec.summary(), "input": word}
    deterministic = spec.mode == DETERMINISTIC
    stats = args.stats and not deterministic
    if deterministic and not args.trace:
        result = run_deterministic(spec, word)
    elif args.trace or stats:  # stats are read from the run's own record, `RunResult.stats`
        # a deterministic run has at most len(word) + 2 configurations, so
        # the default budget never cuts it; --budget bounds searches only
        result = run_nondeterministic(spec, word, None if deterministic else budget)
    else:  # the verdict alone: `accepts` keeps one frontier, not every position's
        try:
            result = RunResult(ACCEPT if accepts(spec, word, budget) else REJECT, None)
        except UndecidedError:
            result = RunResult(BUDGET_EXCEEDED, None)
    record["verdict"] = result.verdict
    if spec.kind == GFA:
        record["value"] = format_rational(dot(result.last.register, spec.gfa_final_vector))
    if args.trace and deterministic:
        record["trace"] = [dict(c._asdict(), register=[format_rational(e) for e in c.register])
                           for c in result.trace]
    elif args.trace and result.accepted:
        record["accepting_path"] = list(result.accepting_path)
    if stats:
        record["stats"] = result.stats
    _emit(record)
    if record["verdict"] == BUDGET_EXCEEDED:
        return EXIT_BUDGET
    return EXIT_OK if record["verdict"] == ACCEPT else EXIT_NO


def cmd_transform(args) -> int:
    if args.pass_name == "dfa-to-stateless":
        out, report = transforms.dfa_to_stateless_dbhva(fileformat.load_dfa(args.input_path))
    else:
        spec = _load_valid(args.input_path)
        out, report = _PASSES[args.pass_name](spec, args)
    if _emit_if_invalid(out):
        return EXIT_USAGE
    fileformat.save_machine(out, args.output_path)
    _emit(report.to_record())
    return EXIT_OK


def cmd_build(args) -> int:
    fileformat.save_machine(builders.example(args.name, args.param), args.output)
    return EXIT_OK


def cmd_separate(args) -> int:
    build = {"dbva": builders.binary_distinguisher, "dbhva": builders.hva_distinguisher,
             "gfa": lambda x, base: builders.finite_language_gfa([x], base)}[args.model]
    spec = build(args.x, args.base)
    for other in args.others:
        _check_symbols(other, spec.alphabet)
    fileformat.save_machine(spec, args.output)
    failures = []
    if not accepts(spec, args.x):
        failures.append(args.x)
    for other in [y for y in ["", *args.others] if y != args.x]:
        if accepts(spec, other):
            failures.append(other)
    _emit(
        {
            "verdict": "Separated" if not failures else "Failed",
            "accepts": args.x,
            "rejects": [y for y in args.others if y != args.x],
            "failures": failures,
        }
    )
    return EXIT_OK if not failures else EXIT_NO


def cmd_verify(args) -> int:
    spec = _load_valid(args.machine)
    budget = _budget_from(args)
    if os.path.exists(args.against):
        other = _load_valid(args.against)
        verdict = langlab.equivalent_up_to(spec, other, args.maxlen, budget)
        against = {"machine": other.summary()}
    else:
        name, sep, param = args.against.partition(":")
        ref = langlab.reference_language(name, param if sep else None)
        verdict = langlab.matches_reference(spec, ref, args.maxlen, budget)
        against = {"reference": ref.name}
    _emit(
        {
            "verdict": "Equal" if verdict.equal else "NotEqual",
            "counterexample": verdict.counterexample,
            "bound": verdict.bound,
            "machine": spec.summary(),
            "against": against,
        }
    )
    return EXIT_OK if verdict.equal else EXIT_NO


def cmd_check(args) -> int:
    spec = _load_valid(args.machine)
    result = _CHECKS[args.property](spec, args.maxlen, _budget_from(args))
    if result is langlab.NOT_APPLICABLE:
        _emit({"verdict": "NotApplicable", "machine": spec.summary()})
        return EXIT_OK
    if result is None:
        _emit({"verdict": "Ok", "machine": spec.summary(), "bound": args.maxlen})
        return EXIT_OK
    _emit({"verdict": "Counterexample", "witness": list(result), "machine": spec.summary()})
    return EXIT_NO


def cmd_enumerate(args) -> int:
    spec = _load_valid(args.machine)
    for word in langlab.enumerate_accepted(spec, args.maxlen, _budget_from(args)):
        _emit({"accepted": word})
    return EXIT_OK


def cmd_diophantine(args) -> int:
    if args.subcommand == "to-famw":
        spec = diophantine.famw_from_system(fileformat.load_system(args.path))
        if _emit_if_invalid(spec):
            return EXIT_USAGE
        fileformat.save_machine(spec, args.output)
        return EXIT_OK
    if args.subcommand == "from-famw":
        system = diophantine.system_from_famw(_load_valid(args.path))
        fileformat.save_system(system, args.output)
        return EXIT_OK
    system = fileformat.load_system(args.path)
    for counts in sorted(diophantine.solutions_up_to(system, args.bound)):
        _emit({"solution": list(counts)})
    return EXIT_OK


def _add_budget_flags(parser) -> None:
    parser.add_argument("--budget", type=functools.partial(_count, name="--budget"), default=None,
                        help="cap on explored configurations per search")
    parser.add_argument("--eps-per-path", type=functools.partial(_count, name="--eps-per-path"),
                        default=None, help="cap on eps-moves along any one path")


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors end in a UsageError record: `error`
    prints the usage to stderr and raises VecautoError instead of exiting.
    Subparsers are built with the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise VecautoError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared. Parsing leaves no
    state on it: each call fills a fresh namespace, and the dispatch
    tables look their functions up when a command runs."""
    parser = _Parser(
        prog="vecauto",
        description="Exact-arithmetic workbench for vector and homing vector automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a machine file against the model invariants")
    p.add_argument("machine")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a machine on an input string")
    p.add_argument("machine")
    p.add_argument("input")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="report a nondeterministic search's configurations expanded, peak "
                        "frontier, the limit that cut it and its widest register in bits")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("transform", help="apply a transformation pass")
    p.add_argument("pass_name", choices=sorted(_PASSES) + ["dfa-to-stateless"])
    p.add_argument("input_path")
    p.add_argument("output_path")
    p.add_argument("--scale", default="1", help="factor for scale-initial-vector")
    p.add_argument("--with", dest="with_machine", help="second machine for intersect")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("build", help="emit an example machine from the catalog")
    p.add_argument("name", choices=builders.EXAMPLE_NAMES)
    p.add_argument("param", nargs="?", type=_integer, default=None)
    p.add_argument("-o", "--output", required=True, help="machine file to write")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("separate", help="build a machine accepting x and rejecting the rest")
    p.add_argument("x")
    p.add_argument("others", nargs="*")
    p.add_argument("--model", choices=("dbva", "dbhva", "gfa"), default="dbva")
    p.add_argument("--base", type=_integer, default=3)
    p.add_argument("-o", "--output", required=True,
                   help="machine file to write; stdout holds the record only")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("verify", help="bounded equivalence against a reference or machine")
    p.add_argument("machine")
    p.add_argument("--against", required=True,
                   help="machine file, reference name, or reference name:param")
    p.add_argument("--maxlen", type=functools.partial(_count, name="--maxlen"), required=True)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="run a structural property check")
    p.add_argument("property", choices=_CHECKS)
    p.add_argument("machine")
    p.add_argument("--maxlen", type=functools.partial(_count, name="--maxlen"), required=True)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="list accepted strings up to a length bound")
    p.add_argument("machine")
    p.add_argument("--maxlen", type=functools.partial(_count, name="--maxlen"), required=True)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("diophantine", help="linear homogeneous system commands")
    dio = p.add_subparsers(dest="subcommand", required=True)
    q = dio.add_parser("to-famw", help="system file -> stateless FAM machine file")
    q.add_argument("path")
    q.add_argument("-o", "--output", required=True, help="machine file to write")
    q = dio.add_parser("from-famw", help="stateless FAM machine file -> system file")
    q.add_argument("path")
    q.add_argument("-o", "--output", required=True, help="system file to write")
    q = dio.add_parser("solve", help="enumerate nonnegative solutions up to a bound")
    q.add_argument("path")
    q.add_argument("--bound", type=functools.partial(_count, name="--bound"), required=True)
    p.set_defaults(func=cmd_diophantine)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help, after the help text is printed
        return EXIT_OK
    except UndecidedError as exc:
        _emit({"verdict": "BudgetExceeded", "detail": str(exc)})
        return EXIT_BUDGET
    except (OSError, VecautoError) as exc:
        _emit({"verdict": "UsageError", "detail": str(exc)})
        return EXIT_USAGE

