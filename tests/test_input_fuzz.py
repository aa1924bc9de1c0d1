"""Mutated input at the command line exits 0 or 2, never with a traceback.

Valid requests are mutated at the boundary: the JSON files of `eval`, `ev`,
`form` and `act` lose keys, have values swapped for other types, floats,
bools and +-2^64, nudged by one or repeated in their lists; the numeric
options of the shape and weight commands take the same kinds of values, and
numbers spelled other than in ASCII decimals.
Each case runs `main` in process and must exit 0, or 2 with nothing on
stdout, within CASE_SECONDS.  The cases are derandomized, so a run is the
same every time.
"""

import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from qwebs.cli import main
from qwebs.howe import terms_texts, tableau_key
from qwebs.tableaux import Shape, Tableau
from qwebs.tensor import Boundary, Factor, basis_indices, tensor_vector_json
from qwebs.webs import Web, cap, cup, ladder_from_word, merge, split, tag

CASE_SECONDS = 2.0
BIG = 2**64
# What a JSON value is swapped for: other types, floats, bools and +-2^64.
ODD_VALUES = [None, True, False, 0, -1, 1.5, -0.5, BIG, -BIG, BIG + 1, "1", "", [], [1], {}, {"N": 2}]
# Spellings of a number that `int` reads and the command line refuses, which
# takes ASCII decimal digits with an optional "-" only: digits of another
# script, a digit separator, a plus sign and a space.
NOT_DECIMAL = ["\u0661", "\u0662", "\uff12", "1_0", "+1", " 1", "1 "]
# What a numeric option's text, or one entry of a list option, is swapped for.
ODD_TEXTS = ["0", "1", "-1", "2", str(BIG), str(-BIG), "1.5", "True", "", "x", "1e3", *NOT_DECIMAL]


def _documents() -> dict:
    """The valid JSON documents the cases start from."""
    # slice kinds of every sort, on N = 3: the merge and split of a (1, 2) pair,
    # a tag, then a cup and the cap that closes it
    web = Web(Boundary(3, (Factor(1), Factor(2))),
              (merge(2, 1, 1), split(2, 1, 1), tag(1, 1), cup(1, 1), cap(1, 1)))
    indices = basis_indices(web.domain)
    vector = tensor_vector_json(web.domain, {idx: {n: 1, -n: n + 1} for n, idx in enumerate(indices[:3])})
    shape = Shape(2, 2)
    keys = [tableau_key(Tableau.from_json({"N": 2, "l": 2, "rows": rows}))
            for rows in ([[1, 2], [3, 4]], [[1, 3], [2, 4]], [[1, 1], [2, 2]])]
    tableau_vector = json.loads(terms_texts(shape, [{k: {n: 1} for n, k in enumerate(keys)}])[0])
    u = ladder_from_word(2, (2, 2, 0), [(-1, 2, 1), (-1, 1, 1)])
    w = ladder_from_word(2, (2, 2, 0), [(-1, 2, 2), (-1, 1, 1), (1, 2, 1)])
    closed = ladder_from_word(2, (2, 0), [(-1, 1, 1), (1, 1, 1)])
    return {"web": web.to_json(), "vector": vector, "tableau_vector": tableau_vector,
            "u": u.to_json(), "w": w.to_json(), "closed": closed.to_json()}


DOCS = _documents()
# command -> its fixed options and its files, each an (option, document) pair
JSON_COMMANDS = {
    "eval": ([], [("--web", "web"), ("--vector", "vector")]),
    "ev": ([], [("--web", "closed")]),
    "form": ([], [("--u", "u"), ("--w", "w")]),
    "act": (["--sign", "-", "--i", "1"], [("--vector", "tableau_vector")]),
}
# command -> its valid numeric options in order, and the options left as they are
OPTION_COMMANDS = {
    "tableaux": ({"--N": "2", "--l": "2", "--type": "1,1,1,1"}, ["--semistandard"]),
    "ladder": ({"--N": "2", "--k": "2,0"}, ["--word=-1^1"]),
    "lt-basis": ({"--N": "2", "--l": "2"}, []),
    "dual-canonical": ({"--N": "2", "--l": "2", "--type": "1,1,1,1"}, []),
    "gram": ({"--N": "2", "--l": "2", "--type": "1,1,1,1"}, ["--basis", "dual"]),
    "cartan": ({"--N": "2", "--k": "1,1,1,1"}, []),
}


def _run(argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall time of `qwebs argv` in process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the option parser refuses with exit 2
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _check(argv: list[str]) -> None:
    code, out, err, wall = _run(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert code == 0 or out == "", (argv, out[:200])
    assert wall < CASE_SECONDS, (argv, wall)


def _places(doc, path=()):
    """(path of the container, key, value) of every value inside doc, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in list(items):
        yield path, key, value
        yield from _places(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """doc after one to three mutations: a key or entry deleted, a value swapped for
    an odd one, an int nudged by one, or a list entry repeated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["delete", "swap", "nudge", "repeat"]))
        places = [(path, key) for path, key, value in _places(doc)
                  if how in ("delete", "swap")
                  or how == "nudge" and type(value) is int
                  or how == "repeat" and isinstance(_at(doc, path), list)]
        if not places:
            continue
        path, key = draw(st.sampled_from(places))
        parent = _at(doc, path)
        if how == "delete":
            del parent[key]
        elif how == "swap":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif how == "nudge":
            parent[key] += draw(st.sampled_from([-1, 1]))
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _json_argv(name: str, fuzz_dir, docs: dict) -> list[str]:
    """The command line of a JSON command, its files written from `docs`, by option."""
    fixed, files = JSON_COMMANDS[name]
    argv = [name, *fixed]
    for option, _ in files:
        path = fuzz_dir / f"{option[2:]}.json"
        path.write_text(json.dumps(docs[option]))
        argv += [option, str(path)]
    return argv


def _option_argv(name: str, values: dict) -> list[str]:
    return [name, *(f"{option}={value}" for option, value in values.items()), *OPTION_COMMANDS[name][1]]


def test_the_requests_the_cases_mutate_exit_0(fuzz_dir):
    for name, (_, files) in JSON_COMMANDS.items():
        assert _run(_json_argv(name, fuzz_dir, {option: DOCS[doc] for option, doc in files}))[0] == 0, name
    for name, (values, _) in OPTION_COMMANDS.items():
        assert _run(_option_argv(name, values))[0] == 0, name


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_json_inputs_exit_0_or_2(fuzz_dir, data):
    name = data.draw(st.sampled_from(sorted(JSON_COMMANDS)))
    files = JSON_COMMANDS[name][1]
    target = data.draw(st.sampled_from(files))
    docs = {option: data.draw(mutated(DOCS[doc])) if (option, doc) == target else DOCS[doc]
            for option, doc in files}
    _check(_json_argv(name, fuzz_dir, docs))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_numeric_options_exit_0_or_2(data):
    name = data.draw(st.sampled_from(sorted(OPTION_COMMANDS)))
    values = dict(OPTION_COMMANDS[name][0])
    for _ in range(data.draw(st.integers(1, 2))):
        option = data.draw(st.sampled_from(sorted(values)))
        entries = values[option].split(",")
        at = data.draw(st.integers(0, len(entries) - 1))
        hows = ["swap"] + ["nudge"] * entries[at].isdigit() + ["delete", "repeat"] * (len(entries) > 1)
        how = data.draw(st.sampled_from(hows))
        if how == "swap":
            entries[at] = data.draw(st.sampled_from(ODD_TEXTS))
        elif how == "nudge":
            entries[at] = str(int(entries[at]) + data.draw(st.sampled_from([-1, 1])))
        elif how == "delete":
            del entries[at]
        else:
            entries.insert(at, entries[at])
        values[option] = ",".join(entries)
    _check(_option_argv(name, values))


# Command lines whose only fault is a number not spelled in ASCII decimals;
# {} is where the spelling goes.
NOT_DECIMAL_LINES = [
    "ladder --N 2 --k 1,1 --word=-{}^1", "ladder --N 2 --k 1,1 --word=-1^{}",
    "cartan --N {} --k 1,1,1,1", "cartan --N 2 --k 1,{},1,1",
    "act --sign - --i={} --vector {vector}", "act --sign - --i 1 --r={} --vector {vector}",
    *(f"verify --evaluators --{option}={{}}" for option in ("seed", "cases", "max-N", "max-m")),
]


@pytest.mark.parametrize("text", NOT_DECIMAL)
def test_numbers_not_in_ascii_decimals_exit_2(fuzz_dir, text):
    vector = _json_argv("act", fuzz_dir, {"--vector": DOCS["tableau_vector"]})[-1]
    argvs = [[tok.format(text, vector=vector) for tok in line.split()] for line in NOT_DECIMAL_LINES]
    for name, (values, _) in OPTION_COMMANDS.items():
        for option in values:
            argvs.append(_option_argv(name, {**values, option: ",".join([text, *values[option].split(",")[1:]])}))
    for argv in argvs:
        code, out, err, _ = _run(argv)
        assert (code, out) == (2, ""), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

