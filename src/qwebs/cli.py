"""Command line front end with stable JSON output.

One executable, subcommand style; all output is deterministic for a fixed
command line and seed (keys sorted, rows in the descending tableau order),
so runs can be diffed against golden files.

Every JSON input is read through `_read`, so a malformed file of any kind is
an input error.  A vector is a map at the edge: `eval` reads it with
`tensor.read_tensor_vector` and writes its image with
`tensor.tensor_vector_json`, and `act` reads it with
`howe.read_tableau_vector`.  Every command is declared once, in `COMMANDS`,
and `main` builds the parser of the command it runs and no other.  The
`verify` sweeps are declared once, in `VERIFY_SWEEPS`: it names the flags,
their order and the call each flag makes.

`lt-basis` and `dual-canonical` write their JSON list one block at a time,
each as soon as it is made.  The shape's memo of LT maps (`bases.lt_memo`)
is cleared once each block is walked, and a whole-shape sweep (no --type)
keeps no block once it is written.  A refused request writes nothing, but
an exit 3 in the middle of a sweep can follow a partial list: the exit code
is the status.

Exit codes: 0 success, 2 invalid input, 3 violated internal invariant.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import verify
from .bases import (
    InvariantViolationError,
    dual_block,
    gram_matrix,
    lt_block,
    lt_memo,
)
from .howe import act_divided, check_generator, check_key_bits, read_tableau_vector, terms_texts
from .ring import LaurentPoly, NonDivisibleError
from .tableaux import Shape, check_request, enumerate_tableaux
from .tensor import ShapeMismatchError, read_tensor_vector, tensor_vector_json
from .webalg import bounded_weights, cartan_matrix, frobenius_check
from .webs import (
    Web,
    check_work,
    evaluate_dense,
    ladder_from_word,
    web_form,
    ev_closed,
)

# Every input error is a ValueError (the JSON decoder's, the qwebs checks')
# or an OSError from opening a file.
INPUT_ERRORS = (ValueError, OSError)


def _load_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _read(read, path: str, what: str):
    """`read` of the JSON at `path`, a `what`; a missing or mistyped field is an input error."""
    data = _load_json(path)
    try:
        return read(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {what} JSON: {type(exc).__name__}: {exc}") from exc


def _emit(payload, fmt: str, as_table) -> None:
    if fmt == "table" and as_table is not None:
        print(as_table(payload))
    else:
        print(json.dumps(payload, sort_keys=True))


# A number on the command line is ASCII decimal digits with an optional "-":
# `int` would also take other scripts' digits, "_", "+" and spaces around it.
_DECIMAL = re.compile(r"-?[0-9]+")


def decimal(text: str) -> int:
    """The int an option's text spells in ASCII decimal (the `type` of every numeric option)."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"expected a decimal integer, got {text!r}")
    return int(text)


def _parse_vec(text: str) -> tuple[int, ...]:
    try:
        return tuple(decimal(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


_WORD_RE = re.compile(r"([+-])([0-9]+)\^([0-9]+)")


def _parse_word(text: str) -> list[tuple[int, int, int]]:
    """Rung words like '-1^1,+2^1': sign, upright index, rung width."""
    word = []
    if not text:
        return word
    for token in text.split(","):
        m = _WORD_RE.fullmatch(token)
        if not m:
            raise ValueError(f"bad rung token {token!r}, expected e.g. -1^2")
        sign = 1 if m.group(1) == "+" else -1
        word.append((sign, int(m.group(2)), int(m.group(3))))
    return word


def _tableaux_table(payload) -> str:
    return "\n".join("/".join("".join(map(str, row)) for row in t["rows"]) for t in payload)


def _poly_str(data) -> str:
    return str(LaurentPoly.from_json(data))


def _matrix_table(payload) -> str:
    lines = []
    for t in payload["labels"]:
        lines.append("label " + "/".join("".join(map(str, row)) for row in t["rows"]))
    width = max((len(_poly_str(p)) for row in payload["entries"] for p in row), default=1)
    for row in payload["entries"]:
        lines.append("  ".join(_poly_str(p).rjust(width) for p in row))
    return "\n".join(lines)


# -- subcommand implementations ----------------------------------------


def cmd_tableaux(args) -> int:
    shape = Shape(args.N, args.l)
    ktype = _parse_vec(args.type) if args.type is not None else None
    ts = enumerate_tableaux(shape, ktype, semistandard_only=args.semistandard)
    _emit([t.to_json() for t in ts], args.format, _tableaux_table)
    return 0


def cmd_ladder(args) -> int:
    k = _parse_vec(args.k)
    _emit(ladder_from_word(args.N, k, _parse_word(args.word)).to_json(), args.format, None)
    return 0


def cmd_eval(args) -> int:
    web = _read(Web.from_json, args.web, "web")
    space, terms = _read(read_tensor_vector, args.vector, "tensor vector")
    if space != web.domain:
        raise ShapeMismatchError("vector does not live in the web's domain")
    check_work(web, len(terms))
    _emit(tensor_vector_json(web.codomain, evaluate_dense(web, terms)), args.format, None)
    return 0


def cmd_ev(args) -> int:
    web = _read(Web.from_json, args.web, "web")
    check_work(web, 1)
    _emit(ev_closed(web).to_json(), args.format, _poly_str)
    return 0


def cmd_form(args) -> int:
    u = _read(Web.from_json, args.u, "web")
    w = _read(Web.from_json, args.w, "web")
    check_work(u, 1)
    check_work(w, 1)
    _emit(web_form(u, w).to_json(), args.format, _poly_str)
    return 0


def cmd_act(args) -> int:
    shape, terms = _read(read_tableau_vector, args.vector, "tableau vector")
    sign = 1 if args.sign == "+" else -1
    check_generator(shape, sign, args.i, args.r)
    # each key moves at most C(N, r) ways; reading the vector held N*m to
    # MAX_KEY_WIDTH, so N <= 1024 and the binomial is small even with no terms
    check_key_bits(shape, len(terms) * math.comb(shape.N, args.r))
    out = act_divided(shape, sign, args.i, args.r, terms)
    print(terms_texts(shape, [out])[0])  # JSON in both formats
    return 0


def basis_entries(shape: Shape, block: dict, dual: bool) -> list[str]:
    """`json.dumps(entry, sort_keys=True)` of each element of an `lt_block` (a
    `dual_block` if `dual`), with the expansions from one `howe.terms_texts` table."""
    labels = {t: json.dumps(t.to_json(), sort_keys=True) for t in block}
    expansions = terms_texts(shape, [elem.terms for elem in block.values()])
    out = []
    for (t, elem), x in zip(block.items(), expansions):
        if dual:
            beta = ", ".join(f'{{"coeff": {json.dumps(g.to_json())}, "tableau": {labels[s]}}}'
                             for s, g in elem.beta)
            out.append(f'{{"beta": [{beta}], "expansion": {x}, "tableau": {labels[t]}}}')
        else:
            out.append(f'{{"expansion": {x}, "tableau": {labels[t]}, "word": {json.dumps(elem.word)}}}')
    return out


def cmd_basis(args) -> int:
    """`lt-basis` (args.dual false) or `dual-canonical` (args.dual true), one block at a time."""
    shape = Shape(args.N, args.l)
    if args.type is not None:
        ktypes = [_parse_vec(args.type)]
    else:  # every bounded weight is the type of a semistandard tableau
        check_request(shape)  # column-strict: the expansions run over every such tableau
        ktypes = bounded_weights(args.N, shape.m)
    opened = False
    for k in ktypes:
        block = lt_block(args.N, args.l, k)
        lt_memo.cache_clear()  # the block holds the maps it needs; its walk's ancestors go
        if args.dual:
            block = dual_block(args.N, args.l, k)
        entries = basis_entries(shape, block, args.dual)
        if args.type is None:  # a sweep keeps no block it has written
            lt_block.cache_clear()
            dual_block.cache_clear()
        if entries:
            sys.stdout.write((", " if opened else "[") + ", ".join(entries))
            opened = True
    sys.stdout.write("]\n" if opened else "[]\n")
    return 0


def cmd_gram(args) -> int:
    k = _parse_vec(args.type)
    matrix = gram_matrix(args.N, args.l, k, basis=args.basis)
    _emit(matrix.to_json(), args.format, _matrix_table)
    return 0


def cmd_cartan(args) -> int:
    k = _parse_vec(args.k)
    matrix = cartan_matrix(args.N, k)
    frob = frobenius_check(args.N, k, matrix)
    payload = {
        "cartan": matrix.to_json(),
        "gorenstein_parameter": frob.gorenstein,
        "frobenius": {
            "passed": frob.passed,
            "total_dimension": frob.total_dimension.to_json(),
        },
    }
    _emit(payload, args.format, lambda p: _matrix_table(p["cartan"])
          + f"\ngorenstein {p['gorenstein_parameter']}"
          + f"\nfrobenius {'pass' if p['frobenius']['passed'] else 'FAIL'}")
    return 0


# The `verify` sweeps in flag and run order: flag -> the call it makes on the
# parsed arguments.  Each call looks its checker up in `verify` when it runs,
# so a wrapper installed over e.g. `verify.check_howe` sees each call.
VERIFY_SWEEPS = {
    "relations": lambda a: verify.check_relations(a.max_N),
    "evaluators": lambda a: verify.check_evaluators(a.cases, a.seed, min(a.max_N, 3), a.max_m),
    "howe": lambda a: verify.check_howe(),
    "dual": lambda a: verify.check_dual_blocks(),
    "form": lambda a: verify.check_form_consistency(),
    "shapovalov": lambda a: verify.check_shapovalov(a.cases, a.seed),
    "commutator": lambda a: verify.check_commutator(a.cases, a.seed),
    "serre": lambda a: verify.check_serre(),
    "cartan": lambda a: verify.check_cartan(min(a.max_N, 3), a.max_m),
}


# The (least, largest) size options `verify` accepts; a request outside is
# refused before any sweep runs.  The sweeps start at N = 2 and m = 2, so
# below that they would make no check.  --cases has no least value: zero
# cases make no check, which the run reports as a failure.  The relations
# sweep takes about 7 s at N = 6 and 32 s at N = 7; --max-m 9 brings shape
# (3, 3) into the Cartan sweep, which then takes about 13 s (0.2 s at 8, on
# 2 cores with Python 3.11, in process); a case costs a few milliseconds.
VERIFY_LIMITS = {"max_N": (2, 6), "max_m": (2, 8), "cases": (None, 10_000)}


def cmd_verify(args) -> int:
    for name, (least, limit) in VERIFY_LIMITS.items():
        value, flag = getattr(args, name), "--" + name.replace("_", "-")
        if least is not None and value < least:
            raise ValueError(f"{flag} {value} is below the least value {least}")
        if value > limit:
            raise ValueError(f"{flag} {value} exceeds the limit {limit}")
    reports = [run(args) for flag, run in VERIFY_SWEEPS.items() if args.all or getattr(args, flag)]
    if not reports:
        raise ValueError("nothing to verify; pass --all or a specific sweep")
    if args.format == "json":
        print(json.dumps(
            [{"name": r.name, "passed": r.passed, "cases": r.cases, "failures": r.failures}
             for r in reports], sort_keys=True))
    else:
        for r in reports:
            print(r.summary())
    return 0 if all(r.passed for r in reports) else 3


# The options several commands share, each an (option, add_argument keywords) pair.
_FORMAT = ("--format", {"choices": ("json", "table"), "default": "json"})
_N = ("--N", {"type": decimal, "required": True})
_SHAPE = [_FORMAT, ("--N", {**_N[1], "help": "strand color bound (>= 2)"}),
          ("--l", {"type": decimal, "required": True, "help": "row count of the shape"})]
_REQUIRED, _FLAG = {"required": True}, {"action": "store_true"}

# Every command, in `qwebs --help` order: name -> (help, handler, extra
# defaults, options).  `command_parser` and `build_parser` read this table only.
COMMANDS = {
    "tableaux": ("enumerate tableaux of a shape, descending", cmd_tableaux, {}, [
        *_SHAPE, ("--type", {"help": "entry multiplicities, e.g. 1,1,0,2"}),
        ("--semistandard", _FLAG)]),
    "ladder": ("build a ladder web from a rung word", cmd_ladder, {}, [
        _FORMAT, _N, ("--k", {**_REQUIRED, "help": "start weight, e.g. 2,0"}),
        ("--word", {"default": "", "help": "rung word, bottom rung first; use the = form for "
                                           "leading signs, e.g. --word=-1^1,+2^1"})]),
    "eval": ("apply a web to a tensor vector", cmd_eval, {}, [
        _FORMAT, ("--web", {**_REQUIRED, "help": "web JSON path, or - for stdin"}),
        ("--vector", {**_REQUIRED, "help": "tensor vector JSON path"})]),
    "ev": ("closed evaluation of an endomorphism web", cmd_ev, {}, [
        _FORMAT, ("--web", _REQUIRED)]),
    "form": ("the web form of two webs with equal boundaries", cmd_form, {}, [
        _FORMAT, ("--u", _REQUIRED), ("--w", _REQUIRED)]),
    "act": ("apply a divided power to a tableau vector", cmd_act, {}, [
        _FORMAT, ("--sign", {**_REQUIRED, "choices": ("+", "-")}),
        ("--i", {**_REQUIRED, "type": decimal}), ("--r", {"type": decimal, "default": 1}),
        ("--vector", {**_REQUIRED, "help": "tableau vector JSON path"})]),
    "lt-basis": ("intermediate basis vectors with peel words", cmd_basis, {"dual": False}, [
        *_SHAPE, ("--type", {"help": "restrict to one type block"})]),
    "dual-canonical": ("dual canonical basis vectors with corrections", cmd_basis, {"dual": True}, [
        *_SHAPE, ("--type", {"help": "restrict to one type block"})]),
    "gram": ("Gram matrix of a basis on one type block", cmd_gram, {}, [
        *_SHAPE, ("--type", _REQUIRED), ("--basis", {"choices": ("lt", "dual"), "default": "lt"})]),
    "cartan": ("graded Cartan matrix and Frobenius report", cmd_cartan, {}, [
        _FORMAT, _N, ("--k", {**_REQUIRED, "help": "block weight, e.g. 1,1,1,1"})]),
    "verify": ("relation and property sweeps", cmd_verify, {}, [
        ("--format", {**_FORMAT[1], "default": "table"}), ("--all", _FLAG),
        *[(f"--{flag}", _FLAG) for flag in VERIFY_SWEEPS],
        ("--seed", {"type": decimal, "default": 2024}), ("--cases", {"type": decimal, "default": 100}),
        ("--max-N", {"type": decimal, "default": 4}), ("--max-m", {"type": decimal, "default": 6})]),
}


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, as `qwebs name`: the subparser that
    `build_parser` adds for it, with the same options and defaults."""
    return _add_options(argparse.ArgumentParser(prog=f"qwebs {name}"), name)


def _add_options(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, func, defaults, options = COMMANDS[name]
    for option, kwargs in options:
        parser.add_argument(option, **kwargs)
    parser.set_defaults(command=name, func=func, **defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser with every command's subparser (help and the choice errors list them)."""
    parser = argparse.ArgumentParser(
        prog="qwebs",
        description="Exact computation in SL(N) web spaces over Z[v, v^-1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, *_) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=text), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, from the parser of the named command alone.

    Once argv[0] names a command, the full parser hands every later argument
    to that command's subparser, so the two agree; only help, a missing or
    unknown command and arguments the command leaves over, whose error
    prints the top-level usage, need the full parser.
    """
    if argv and argv[0] in COMMANDS:
        args, rest = command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        return args.func(args)
    except (InvariantViolationError, NonDivisibleError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
