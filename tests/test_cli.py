import argparse
import hashlib
import itertools
import json
import sys
import time

import pytest

from qwebs import bases, verify
from qwebs.bases import dual_block, lt_block
from qwebs.cli import COMMANDS, VERIFY_SWEEPS, basis_entries, build_parser, command_parser, main, parse_args
from qwebs.howe import act_divided
from qwebs.tableaux import Shape
from qwebs.tensor import MAX_N, Boundary, Factor
from qwebs.verify import Report
from qwebs.webalg import bounded_weights
from qwebs.webs import Web, cap, cup, ladder_from_word, merge, split, tag

from helpers import compose, fresh_lt_memo, reflect, terms_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tableaux_command(capsys):
    code, out = run(capsys, "tableaux", "--N", "2", "--l", "1", "--type", "1,1", "--semistandard")
    assert code == 0
    assert json.loads(out) == [{"N": 2, "l": 1, "rows": [[1, 2]]}]


def test_tableaux_descending_table(capsys):
    code, out = run(capsys, "tableaux", "--N", "2", "--l", "1", "--type", "1,1", "--format", "table")
    assert code == 0
    assert out.splitlines() == ["12", "21"]


def test_dual_canonical_command(capsys):
    code, out = run(capsys, "dual-canonical", "--N", "2", "--l", "1", "--type", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    terms = payload[0]["expansion"]["terms"]
    assert terms == [
        {"coeff": [[0, 1]], "rows": [[1, 2]]},
        {"coeff": [[-1, 1]], "rows": [[2, 1]]},
    ]


def test_lt_basis_has_words(capsys):
    code, out = run(capsys, "lt-basis", "--N", "2", "--l", "1")
    assert code == 0
    payload = json.loads(out)
    words = {tuple(map(tuple, e["word"])) for e in payload}
    assert ((1, 1),) in words and () in words


def test_ladder_eval_ev_form(capsys, tmp_path):
    code, out = run(capsys, "ladder", "--N", "2", "--k", "2,0", "--word=-1^1")
    assert code == 0
    web = tmp_path / "web.json"
    web.write_text(out)
    # closed evaluation fails on a non-endomorphism
    code, _ = run(capsys, "ev", "--web", str(web))
    assert code == 2
    code, out = run(capsys, "form", "--u", str(web), "--w", str(web))
    assert code == 0
    assert json.loads(out) == [[0, 1], [2, 1]]
    # identity endomorphism evaluates to one
    code, out = run(capsys, "ladder", "--N", "2", "--k", "2,0", "--word=")
    idweb = tmp_path / "id.json"
    idweb.write_text(out)
    code, out = run(capsys, "ev", "--web", str(idweb))
    assert code == 0
    assert json.loads(out) == [[0, 1]]


def test_eval_command(capsys, tmp_path):
    code, out = run(capsys, "ladder", "--N", "2", "--k", "2,0", "--word=-1^1")
    web = tmp_path / "web.json"
    web.write_text(out)
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({
        "N": 2,
        "space": [{"color": 2, "dual": False}, {"color": 0, "dual": False}],
        "terms": [{"subsets": [[2, 1], []], "coeff": [[0, 1]]}],
    }))
    code, out = run(capsys, "eval", "--web", str(web), "--vector", str(vec))
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [
        {"coeff": [[0, 1]], "subsets": [[1], [2]]},
        {"coeff": [[-1, 1]], "subsets": [[2], [1]]},
    ]


def test_act_command(capsys, tmp_path):
    vec = tmp_path / "tv.json"
    vec.write_text(json.dumps({
        "N": 2, "l": 1,
        "terms": [{"rows": [[1, 1]], "coeff": [[0, 1]]}],
    }))
    code, out = run(capsys, "act", "--sign", "-", "--i", "1", "--vector", str(vec))
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"coeff": [[0, 1]], "rows": [[1, 2]]},
        {"coeff": [[-1, 1]], "rows": [[2, 1]]},
    ]
    # act has no table form: --format table prints the same JSON
    assert run(capsys, "act", "--format", "table", "--sign", "-", "--i", "1", "--vector", str(vec)) == (0, out)


def test_gram_and_cartan_commands(capsys):
    code, out = run(capsys, "gram", "--N", "2", "--l", "1", "--type", "1,1")
    assert code == 0
    assert json.loads(out)["entries"] == [[[[0, 1], [2, 1]]]]
    code, out = run(capsys, "cartan", "--N", "2", "--k", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["gorenstein_parameter"] == 2
    assert payload["frobenius"]["passed"] is True


def test_exit_code_on_invalid_input(capsys, tmp_path):
    code, _ = run(capsys, "ladder", "--N", "2", "--k", "2,0", "--word=-1^3")
    assert code == 2
    # a boundary needs N >= 2: a ladder's, and a web's or a vector's read from JSON
    strand = [{"color": 1, "dual": False}]
    web1 = _write(tmp_path, "w1.json", {"N": 1, "domain": strand, "slices": []})
    web2 = _write(tmp_path, "w2.json", {"N": 2, "domain": strand, "slices": []})
    vec1 = _write(tmp_path, "v1.json", {"N": 1, "space": strand,
                                        "terms": [{"subsets": [[1]], "coeff": [[0, 1]]}]})
    for N, argv in ((0, "ladder --N 0 --k 0,0"), (1, "ladder --N 1 --k 1,0 --word=-1^1"),
                    (-1, "ladder --N -1 --k 0"), (1, f"ev --web {web1}"),
                    (1, f"eval --web {web2} --vector {vec1}")):
        assert main(argv.split()) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: invalid N={N}: a boundary needs N >= 2" in captured.err
    # and N <= MAX_N, so a mask of 1..N stays small: a ladder's, a block weight's, and
    # a web's or a vector's read from JSON
    big = 2**70
    web_big = _write(tmp_path, "wb.json", {"N": big, "domain": strand, "slices": []})
    vec_big = _write(tmp_path, "vb.json", {"N": big, "space": strand,
                                           "terms": [{"subsets": [[1]], "coeff": [[0, 1]]}]})
    for argv in (f"ladder --N {big} --k 1,0 --word=-1^1", f"ladder --N {big} --k 1,0",
                 f"cartan --N {big} --k 1,1", f"ev --web {web_big}", f"form --u {web_big} --w {web_big}",
                 f"eval --web {web_big} --vector {vec_big}", f"eval --web {web2} --vector {vec_big}"):
        assert main(argv.split()) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: invalid N={big}: a boundary needs N <= {MAX_N}" in captured.err
    code, _ = run(capsys, "tableaux", "--N", "2", "--l", "1", "--type", "1,2")
    assert code == 2
    code, _ = run(capsys, "tableaux", "--N", "2", "--l", "1", "--type=-1,3")
    assert code == 2
    assert main(["cartan", "--N", "0", "--k", "1"]) == 2
    assert "error: invalid N=0" in capsys.readouterr().err
    # an empty type is a malformed list, not the absence of a type
    for command in ("tableaux", "lt-basis", "dual-canonical", "gram"):
        assert main([command, "--N", "2", "--l", "1", "--type="]) == 2, command
        assert "expected a comma-separated integer list, got ''" in capsys.readouterr().err


def test_oversized_tableaux_request_exits_2_at_once(capsys):
    # a whole-shape basis sweep is refused by the same bound; the bounds of
    # the last eleven have over a million digits each and are never built,
    # the bound for l = 10**9 must stop after a few of its l terms, for
    # l = 1, m = 2**53 a difference of lgamma values would cancel, and
    # 10**400 is too large for a float
    for argv in ("tableaux --N 8 --l 3 --semistandard", "lt-basis --N 2 --l 7",
                 "tableaux --N 2 --l 1000000", "tableaux --N 4000000 --l 1",
                 "lt-basis --N 2 --l 1000000",
                 "tableaux --N 2 --l 1000000000", "lt-basis --N 2 --l 1000000000",
                 "lt-basis --N 9007199254740992 --l 1", "tableaux --N 9007199254740992 --l 1",
                 f"lt-basis --N {10**400} --l 1", f"tableaux --N {10**400} --l 1",
                 f"tableaux --N 2 --l {10**400}", f"lt-basis --N 2 --l {10**400}",
                 f"tableaux --N {10**400} --l 1 --semistandard",
                 f"tableaux --N 2 --l {10**400} --semistandard"):
        start = time.perf_counter()
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "than the limit of 1000000" in captured.err
        assert time.perf_counter() - start < 1.0


def _one_two(N: int) -> str:
    """The type N-1,1,0,...,0 of shape (N, 1): N tableaux, one 2 among N-1 ones."""
    return ",".join([str(N - 1), "1"] + ["0"] * (N - 2))


def test_tableau_maps_over_the_key_bit_limit_exit_2_at_once(capsys, tmp_path):
    # a key is N*m bits: the 4,096 tableaux of (4096, 1) of type 4095,1,0,...
    # would be keys of 2 MB each, and one lowering of a (1024, 1) tableau by
    # two may move any 2 of its 1,024 columns, C(1024, 2) keys of 128 KB
    vector = _write(tmp_path, "wide.json", {"N": 1024, "l": 1, "terms": [
        {"rows": [[1] * 1024], "coeff": [[0, 1]]}]})
    wide = _one_two(4096)
    for argv in (f"lt-basis --N 4096 --l 1 --type {wide}", f"dual-canonical --N 4096 --l 1 --type {wide}",
                 f"gram --N 4096 --l 1 --type {wide}", f"cartan --N 4096 --k {wide}",
                 f"act --sign - --i 1 --r 2 --vector {vector}"):
        start = time.perf_counter()
        code = main(argv.split())
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1.0, argv[:20]
        assert code == 2 and captured.out == "", argv[:20]
        assert "bits each, exceed the limit of 1073741824 bits" in captured.err


def test_tableau_keys_over_the_key_width_limit_exit_2_at_once(capsys, tmp_path):
    # a key of (2^20, 1) would be 2^40 bits, even in an empty vector, and one
    # of (32768, 1) or (4096, 1) is 2^30 or 2^24 bits, whatever r the action
    # asks for
    wide = _write(tmp_path, "wide.json", {"N": 4096, "l": 1, "terms": [
        {"rows": [[1] * 4096], "coeff": [[0, 1]]}]})
    empty = _write(tmp_path, "empty.json", {"N": 2**20, "l": 1, "terms": []})
    one = _write(tmp_path, "one.json", {"N": 32768, "l": 1, "terms": [
        {"rows": [list(range(1, 32769))], "coeff": [[0, 1]]}]})
    for argv, width in ((f"act --sign - --i 1 --vector {empty}", 2**40),
                        (f"act --sign - --i 1 --r 0 --vector {one}", 2**30),
                        (f"act --sign + --i 1 --r 40000 --vector {one}", 2**30),
                        (f"act --sign - --i 1 --vector {wide}", 2**24)):
        start = time.perf_counter()
        code = main(argv.split())
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and captured.out == "", argv
        assert f"is {width} bits, over the limit of 1048576 bits" in captured.err, argv


def test_tableau_maps_at_the_key_bit_limit_are_answered(capsys):
    # the 1,024 tableaux of (1024, 1) of type 1023,1,0,... hold 2^30 bits of keys;
    # the walk checks each 2^20-bit key in one pass, not one shift per field
    start = time.perf_counter()
    code, out = run(capsys, "gram", "--N", "1024", "--l", "1", "--type", _one_two(1024))
    assert time.perf_counter() - start < 8.0
    assert code == 0 and json.loads(out)["entries"] == [[[[2 * k, 1] for k in range(1024)]]]


def _ladder_4096(capsys, tmp_path, word: str) -> str:
    """The path of `qwebs ladder --N 4096 --k 4096,0 --word=<word>`'s web."""
    code, out = run(capsys, "ladder", "--N", "4096", "--k", "4096,0", f"--word={word}")
    assert code == 0
    path = tmp_path / f"ladder{word}.json"
    path.write_text(out)
    return str(path)


def test_web_requests_over_the_term_bound_exit_2_at_once(capsys, tmp_path):
    # a width-2 rung splits the color-4096 strand into C(4096, 2) = 8,386,560 terms
    wide, loop = _ladder_4096(capsys, tmp_path, "-1^2"), _ladder_4096(capsys, tmp_path, "-1^2,+1^2")
    closed = _write(tmp_path, "closed.json", {
        "N": 4096, "space": [{"color": 4096, "dual": False}, {"color": 0, "dual": False}],
        "terms": [{"subsets": [list(range(4096, 0, -1)), []], "coeff": [[0, 1]]}]})
    for argv in (f"form --u {wide} --w {wide}", f"ev --web {loop}", f"eval --web {wide} --vector {closed}"):
        start = time.perf_counter()
        code = main(argv.split())
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and captured.out == "", argv
        assert "error: slice 0: the web's image may hold more terms than the limit of 1000000" in captured.err
        assert "Traceback" not in captured.err


def test_web_requests_within_the_term_bound_are_answered(capsys, tmp_path):
    narrow = _ladder_4096(capsys, tmp_path, "-1^1")  # 4,096 terms
    code, out = run(capsys, "form", "--u", narrow, "--w", narrow)
    assert code == 0 and len(json.loads(out)) == 4096
    # the README example
    code, out = run(capsys, "ladder", "--N", "2", "--k", "2,0", "--word=-1^1")
    web = tmp_path / "web.json"
    web.write_text(out)
    assert run(capsys, "form", "--u", str(web), "--w", str(web), "--format", "table") == (0, "v^2 + 1\n")


def test_semistandard_tableaux_are_held_to_their_own_count(capsys):
    # (8, 1) has C(15, 8) = 6,435 semistandard tableaux but 8^8 column-strict
    # ones, which the basis expansions would cover
    assert main(["tableaux", "--N", "8", "--l", "1", "--semistandard"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 6_435
    for argv in ("tableaux --N 8 --l 1", "dual-canonical --N 8 --l 1", "lt-basis --N 8 --l 1"):
        assert main(argv.split()) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "than the limit of 1000000" in captured.err


def test_basis_commands_write_nothing_when_refused_and_a_list_when_empty(capsys):
    # a writer that opened the list before the first block was made would
    # leave "[" on stdout here
    for command in ("lt-basis", "dual-canonical"):
        assert main([command, "--N", "2", "--l", "2", "--type", "1,1,1,2"]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "" and "type must be" in captured.err
        # no column-strict tableau has three 1s in two columns
        assert main([command, "--N", "2", "--l", "2", "--type", "3,1,0,0"]) == 0, command
        assert capsys.readouterr().out == "[]\n"
    # nor a three in two columns, found before a search that would meet it
    # only after placing 1..37
    back_loaded = ",".join(["1"] * 37 + ["3", "0", "0"])
    for command, empty in (("tableaux", "[]"), ("lt-basis", "[]"), ("dual-canonical", "[]"),
                           ("gram", '{"entries": [], "labels": []}')):
        start = time.perf_counter()
        assert main([command, "--N", "2", "--l", "20", "--type", back_loaded]) == 0, command
        assert capsys.readouterr().out == empty + "\n"
        assert time.perf_counter() - start < 1.0


def _basis_entry_reference(t, elem, dual: bool) -> str:
    """The JSON of one basis element as the dict form writes it."""
    entry = {"tableau": t.to_json(), "expansion": terms_json(t.shape, elem.terms)}
    if dual:
        entry["beta"] = [{"tableau": s.to_json(), "coeff": g.to_json()} for s, g in elem.beta]
    else:
        entry["word"] = [list(p) for p in elem.word]
    return json.dumps(entry, sort_keys=True)


def test_basis_entries_match_the_dict_reference():
    blocks = [(N, l, k) for N, l in ((3, 2), (2, 4)) for k in bounded_weights(N, N * l)]
    blocks.append((4, 2, (1,) * 8))
    binomials = corrected = 0
    for N, l, k in blocks:
        for dual in (False, True):
            block = dual_block(lt_block(N, l, k)) if dual else lt_block(N, l, k)
            reference = [_basis_entry_reference(t, elem, dual) for t, elem in block.items()]
            assert basis_entries(Shape(N, l), block, dual) == reference, (N, l, k, dual)
            binomials += sum(len(c) > 1 for elem in block.values() for c in elem.terms.values())
            corrected += dual and sum(bool(elem.beta) for elem in block.values())
    # the cases hold a coefficient with two exponents and a nonempty correction list
    assert binomials and corrected


def test_whole_shape_sweep_keeps_no_block(capsys):
    assert main(["dual-canonical", "--N", "2", "--l", "3"]) == 0
    assert json.loads(capsys.readouterr().out)
    assert lt_block.cache_info().currsize == 0 and bases.lt_memo.cache_info().currsize == 0


# sha256 of the JSON each command line prints: the full-shape sweeps recorded
# before the LT blocks became a peel-tree walk, the single blocks before the
# blocks were kept as the howe kernel's column maps, the tableaux lists before
# one recursion replaced the strip and column builds
GOLDEN_DIGESTS = {
    "lt-basis --N 3 --l 2": "2d3f386d44d9cdcf8b6a60417e45b6d692dde2fdb55551a7b2978ef9d733e3c9",
    "lt-basis --N 2 --l 4": "a2ecd914d3c4f2e09cc7e71283ddc9d98c19fad89e32e2461f268b92cc7485d5",
    "dual-canonical --N 3 --l 2": "ad8054875bcf3613846ec04155fdcbdadfff37c4db9ae4d44d697f28d64ca6ed",
    "dual-canonical --N 2 --l 4": "d42865f2dfb68e70d8f2d5a957028b62b6f42ebbca8a758bc3c8d29088264cb0",
    "dual-canonical --N 4 --l 2 --type 1,1,1,1,1,1,1,1":
        "620ffb5cae175d70b71da573cdd64fc433c511beb4221e0de5621e24ac503dd8",
    "gram --N 2 --l 4 --type 1,1,1,1,1,1,1,1 --basis dual":
        "4f23b69dae117bc9429a7f7cec0d8944bdffe4c71183f543fd2473363bb20459",
    "gram --N 3 --l 2 --type 1,1,1,1,1,1":
        "7b6af8ca88220168b8192411231b37ff0580a21b800fccf80de6eaa3aaf33fa1",
    "cartan --N 4 --k 3,1,1,1,1,1,0,0":
        "32120db73dfb772be417e5fbbcab1983cbfca520b2f2b88337d5d4dd4b02720e",
    "tableaux --N 3 --l 2": "e707b256a317bc96a7543b699f374e5ea07fdca975b34e9da5d109a62b96952e",
    "tableaux --N 2 --l 4 --semistandard":
        "3f5eca3d404a01c5ffcdeb7489b0de1e9eb4091c8e469494ea13b16e3abbf3de",
    "tableaux --N 3 --l 3 --semistandard":
        "00d6c5f6bc3ceaf361604fe3526ae3fb4de677f6002d6a91d802acc22e24041c",
    "tableaux --N 4 --l 2 --type 1,1,1,1,1,1,1,1":
        "6a9ea1f6992e6e215643a17b3b53af2edf574ef732596a80583c74c7135f1897",
    "tableaux --N 2 --l 5 --type 2,1,1,1,1,1,1,1,1,0 --semistandard":
        "50918776c7bc5d086687db0ab3e5910c123bde55a2d268268930fee9ca76e545",
}


def _golden_id(command: str) -> str:
    """The values of a command line, e.g. dual-canonical-3-2."""
    return "-".join(tok for tok in command.split() if not tok.startswith("--"))


@pytest.mark.parametrize("command", list(GOLDEN_DIGESTS), ids=_golden_id)
def test_full_shape_bases_match_golden_digests(capsys, command):
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[command]


# Inputs of the vector commands, written here: a ladder web with a 14-term
# vector on its domain, a web through a split, a merge, a cup and two tags
# whose image has dual factors, a 4-term tableau vector of shape (3, 2) over
# four types, two closed and two open ladder webs, and the open ladder u with
# a cup, a tag pair and a cap on top, which keep its plain codomain.
def _vector_command_inputs(tmp_path) -> dict:
    ladder = ladder_from_word(3, (2, 1, 1), [(-1, 1, 1), (+1, 2, 1), (-1, 2, 2)])
    domain = Boundary(3, (Factor(2), Factor(1)))
    tagged = Web(domain, (split(1, 1, 1), merge(1, 1, 2), cup(2, 3), tag(2, 4, "right"), tag(1, 1)))
    column = ladder_from_word(3, (3, 0, 0), [(-1, 1, 1), (-1, 2, 1), (-1, 1, 1)])
    u = ladder_from_word(2, (2, 2, 0, 0), [(-1, 2, 1), (-1, 3, 1), (-1, 1, 1), (-1, 2, 1)])
    w = ladder_from_word(2, (2, 2, 0, 0), [(-1, 2, 2), (-1, 1, 1), (-1, 3, 1)])
    tagged_u = Web(u.domain, u.slices + (cup(1, 2), tag(1, 2), tag(1, 2, "right"), cap(1, 2)))

    def vector(web, every):
        """Every `every`-th basis index of the web's domain, with varied coefficients."""
        pools = [list(itertools.combinations(range(1, 4), f.color)) for f in web.domain.factors]
        terms = [{"subsets": [sorted(s, reverse=True) for s in idx],
                  "coeff": [[n % 5 - 2, (-1) ** n * (n % 3 + 1)], [n % 5 + 1, 1]]}
                 for n, idx in enumerate(list(itertools.product(*pools))[::every])]
        return {"N": 3, "space": web.domain.to_json(), "terms": terms}

    rows = [[[1, 1, 2], [3, 3, 4]], [[1, 2, 3], [5, 5, 6]], [[1, 3, 2], [4, 5, 6]], [[2, 1, 1], [3, 4, 3]]]
    payloads = {
        "ladder": ladder.to_json(), "ladder-vector": vector(ladder, 2),
        "tagged": tagged.to_json(), "tagged-vector": vector(tagged, 1),
        "tableaux": {"N": 3, "l": 2, "terms": [
            {"rows": r, "coeff": [[-n, n + 1], [n + 2, -1]]} for n, r in enumerate(rows)]},
        "closed": compose(column, reflect(column)).to_json(), "u": u.to_json(), "w": w.to_json(),
        "tagged-u": tagged_u.to_json(),
    }
    return {name: _write(tmp_path, f"{name}.json", data) for name, data in payloads.items()}


# sha256 of what each command line prints on those inputs ({name} is the
# path of an input), recorded before vectors held the kernels' int maps; the
# u == w and tagged-u forms before `web_form` co-walked every u
VECTOR_GOLDEN_DIGESTS = {
    "eval --web {ladder} --vector {ladder-vector}":
        "1303cee6d169859a67ab722420440c8d838feb2e8273af9f3d686d59adcb1877",
    "eval --web {tagged} --vector {tagged-vector}":
        "5096aa167f219429fc1a18c44a7226a63b7afeaae21230f7135d56a46de351b0",
    "act --sign - --i 1 --vector {tableaux}":
        "0c50bc590b725f35706ab2be3aba6c81cf20dbfa0e99fe05526486ef11303047",
    "act --sign - --i 3 --r 2 --vector {tableaux}":
        "2c0588c62766ff29d929bb80e9bc2564e31c99d2c45b87f24fbe8d31b8e6a6af",
    "act --sign + --i 2 --vector {tableaux}":
        "1b45929a992946389e33cccc11992cd5fada32cba6d278bfa5823754973b1928",
    "act --sign + --i 4 --r 2 --vector {tableaux}":
        "70d3a4c2694a607d5cb07f8dfc111af71bc35bcba406a75e2d7ee2801f55858c",
    "act --sign - --i 5 --r 0 --vector {tableaux}":
        "a106f180896ad2829821bf590c3cc0465dcc52c0294b418fbe95fac403903c8b",
    "ev --web {closed}":
        "bc3c178421ce95491b7166766fdc1a55a325ae9c47b92eb9ffc35c090e2521d8",
    "form --u {u} --w {w}":
        "298255f1eb2e8d8a79faceb08b87749863b33019f812849d3a2d0865eb48305c",
    "form --u {u} --w {u}":
        "5c1072351d65eac9c0b6dc817d8e72be1d6dffbe4a35c1da54f661da195569af",
    "form --u {tagged-u} --w {tagged-u}":
        "77ae977656da7e95689982f89aa565985bc13c975509ff64b03dec6248d9f926",
    "form --u {tagged-u} --w {u}":
        "b2d5bb50509a0b9ce8d5137d84baaeda44030d5491e590df52c7c639dcf8c42c",
}


@pytest.mark.parametrize("command", list(VECTOR_GOLDEN_DIGESTS), ids=_golden_id)
def test_vector_commands_match_golden_digests(capsys, tmp_path, command):
    paths = _vector_command_inputs(tmp_path)
    code, out = run(capsys, *[tok.format_map(paths) for tok in command.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VECTOR_GOLDEN_DIGESTS[command]


def test_verify_subset(capsys):
    code, out = run(capsys, "verify", "--relations", "--max-N", "2")
    assert code == 0
    assert out.startswith("pass")


def test_output_is_byte_stable(capsys):
    _, first = run(capsys, "dual-canonical", "--N", "2", "--l", "2", "--type", "1,1,1,1")
    _, second = run(capsys, "dual-canonical", "--N", "2", "--l", "2", "--type", "1,1,1,1")
    assert first == second
    _, third = run(capsys, "verify", "--evaluators", "--cases", "5", "--seed", "3", "--format", "json")
    _, fourth = run(capsys, "verify", "--evaluators", "--cases", "5", "--seed", "3", "--format", "json")
    assert third == fourth


def test_verify_with_zero_checks_does_not_pass(capsys):
    code, out = run(capsys, "verify", "--shapovalov", "--cases", "0")
    assert code == 3
    assert out.startswith("FAIL")
    code, out = run(capsys, "verify", "--shapovalov", "--cases", "0", "--format", "json")
    assert code == 3
    assert json.loads(out)[0]["passed"] is False


def test_malformed_json_inputs_exit_2(capsys, tmp_path):
    code, out = run(capsys, "ladder", "--N", "2", "--k", "1,0", "--word=")
    web = tmp_path / "web.json"
    web.write_text(out)
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({
        "N": 2,
        "space": [{"color": 1, "dual": False}, {"color": 0, "dual": False}],
        "terms": [{"subsets": [[7, 2, 1], []], "coeff": [[0, 1]]}],
    }))
    assert run(capsys, "eval", "--web", str(web), "--vector", str(vec))[0] == 2
    # a web whose first slice does not fit is refused, naming the slice
    strand = [{"color": 1, "dual": False}]
    illformed = _write(tmp_path, "ill.json", {"N": 2, "domain": strand,
                                              "slices": [merge(1, 1, 1).to_json()]})
    good = _write(tmp_path, "good.json", {"N": 2, "space": strand,
                                          "terms": [{"subsets": [[1]], "coeff": [[0, 1]]}]})
    assert main(["eval", "--web", illformed, "--vector", good]) == 2
    assert capsys.readouterr().err.startswith("error: slice 0:")
    # a repeated entry is refused, never folded into a smaller subset
    for color, subset in ((2, [1, 1]), (1, [3]), (1, [0]), (1, [-1])):
        space = [{"color": color, "dual": False}]
        idweb = _write(tmp_path, "id.json", {"N": 2, "domain": space, "slices": []})
        bad = _write(tmp_path, "v.json", {"N": 2, "space": space,
                                          "terms": [{"subsets": [subset], "coeff": [[0, 1]]}]})
        assert run(capsys, "eval", "--web", idweb, "--vector", bad)[0] == 2, subset
    tv = tmp_path / "tv.json"
    tv.write_text(json.dumps({"N": 2, "l": 1, "terms": [{"rows": [[1, 1]], "coeff": [[0, 1.5]]}]}))
    assert run(capsys, "act", "--sign", "-", "--i", "1", "--vector", str(tv))[0] == 2
    tagged = tmp_path / "tagged.json"
    tagged.write_text(json.dumps({
        "N": 2,
        "domain": [{"color": 1, "dual": False}],
        "slices": [{"kind": "tag", "pos": 1, "a": 1, "side": "middle"}],
    }))
    assert run(capsys, "ev", "--web", str(tagged))[0] == 2
    assert run(capsys, "form", "--u", str(tagged), "--w", str(tagged))[0] == 2


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_non_integer_json_fields_exit_2(capsys, tmp_path):
    # floats and bools are refused, never truncated to the integer they round to
    good_tv = {"N": 2, "l": 1, "terms": [{"rows": [[1, 2]], "coeff": [[0, 1]]}]}
    for bad in (
        {**good_tv, "terms": [{"rows": [[1.9, 2.2]], "coeff": [[0, 1]]}]},
        {**good_tv, "terms": [{"rows": [[True, 2]], "coeff": [[0, 1]]}]},
        {**good_tv, "N": 2.0},
        {**good_tv, "l": True},
    ):
        tv = _write(tmp_path, "tv.json", bad)
        assert run(capsys, "act", "--sign", "-", "--i", "1", "--vector", tv)[0] == 2
    tv = _write(tmp_path, "tv.json", good_tv)
    assert run(capsys, "act", "--sign", "-", "--i", "1", "--vector", tv)[0] == 0

    code, out = run(capsys, "ladder", "--N", "2", "--k", "2,0", "--word=-1^1")
    web = json.loads(out)
    vec = {
        "N": 2,
        "space": [{"color": 2, "dual": False}, {"color": 0, "dual": False}],
        "terms": [{"subsets": [[2, 1], []], "coeff": [[0, 1]]}],
    }
    assert run(capsys, "eval", "--web", _write(tmp_path, "w.json", web),
               "--vector", _write(tmp_path, "v.json", vec))[0] == 0
    bad_vecs = (
        {**vec, "N": 2.0},
        {**vec, "terms": [{"subsets": [[2.0, 1], []], "coeff": [[0, 1]]}]},
        {**vec, "space": [{"color": 2.5, "dual": False}, {"color": 0, "dual": False}]},
    )
    for bad in bad_vecs:
        assert run(capsys, "eval", "--web", _write(tmp_path, "w.json", web),
                   "--vector", _write(tmp_path, "v.json", bad))[0] == 2
    # a dual flag must be a JSON boolean, not a value read for its truthiness
    on_dual = {"N": 2, "domain": [{"color": 2, "dual": True}], "slices": []}
    for flag, code in ((True, 0), ("no", 2), (1, 2)):
        dual_vec = {"N": 2, "space": [{"color": 2, "dual": flag}],
                    "terms": [{"subsets": [[2, 1]], "coeff": [[0, 1]]}]}
        assert run(capsys, "eval", "--web", _write(tmp_path, "w.json", on_dual),
                   "--vector", _write(tmp_path, "v.json", dual_vec))[0] == code
    bad_webs = (
        {**web, "N": 2.0},
        {**web, "slices": [{**web["slices"][0], "pos": 1.0}] + web["slices"][1:]},
        {**web, "slices": [{**web["slices"][0], "a": True}] + web["slices"][1:]},
        {**web, "slices": [{**web["slices"][0], "b": 1.5}] + web["slices"][1:]},
    )
    for bad in bad_webs:
        assert run(capsys, "eval", "--web", _write(tmp_path, "w.json", bad),
                   "--vector", _write(tmp_path, "v.json", vec))[0] == 2


def test_repeated_vector_terms_exit_2(capsys, tmp_path):
    # a basis key listed twice is refused, not summed into coefficient 2, also
    # when its first term has coefficient zero and is dropped
    idweb = _write(tmp_path, "w.json", {"N": 2, "domain": [{"color": 1, "dual": False}], "slices": []})
    term = {"subsets": [[1]], "coeff": [[0, 1]]}
    for terms, code in (([term], 0), ([term, term], 2), ([{**term, "coeff": []}, term], 2)):
        vec = _write(tmp_path, "v.json", {"N": 2, "space": [{"color": 1, "dual": False}], "terms": terms})
        assert run(capsys, "eval", "--web", idweb, "--vector", vec)[0] == code
    term = {"rows": [[1, 1]], "coeff": [[0, 1]]}
    for terms, code in (([term], 0), ([term, term], 2), ([{**term, "coeff": []}, term], 2)):
        tv = _write(tmp_path, "tv.json", {"N": 2, "l": 1, "terms": terms})
        assert run(capsys, "act", "--sign", "-", "--i", "1", "--vector", tv)[0] == code


def test_slice_without_a_serialized_field_exits_2(capsys, tmp_path):
    # every field the slice kind writes must be read back; only a tag's side may be left out
    zero, one = {"color": 0, "dual": False}, {"color": 1, "dual": False}
    cases = (
        ([zero, zero], {"kind": "merge", "pos": 1, "a": 0, "b": 0}, 0),
        ([zero, zero], {"kind": "merge", "pos": 1, "a": 0}, 2),
        ([one], {"kind": "cup", "pos": 1, "a": 0}, 0),
        ([one], {"kind": "cup", "pos": 1}, 2),
        ([one], {"kind": "tag", "pos": 1, "a": 1}, 0),
        ([one], {"kind": "id", "pos": 1}, 0),
    )
    for space, s, code in cases:
        web = _write(tmp_path, "w.json", {"N": 2, "domain": space, "slices": [s]})
        terms = [{"subsets": [[1] if f["color"] else [] for f in space], "coeff": [[0, 1]]}]
        vec = _write(tmp_path, "v.json", {"N": 2, "space": space, "terms": terms})
        assert run(capsys, "eval", "--web", web, "--vector", vec)[0] == code, s


def test_act_checks_the_generator_index_for_every_r(capsys, tmp_path):
    tv = _write(tmp_path, "tv.json", {"N": 2, "l": 1, "terms": [{"rows": [[1, 2]], "coeff": [[0, 1]]}]})
    for r in ("0", "1", "2"):
        assert run(capsys, "act", "--sign", "-", "--i", "99", "--r", r, "--vector", tv)[0] == 2
        assert run(capsys, "act", "--sign", "+", "--i", "0", "--r", r, "--vector", tv)[0] == 2
    code, out = run(capsys, "act", "--sign", "-", "--i", "1", "--r", "0", "--vector", tv)
    assert code == 0
    assert json.loads(out) == {"N": 2, "l": 1, "terms": [{"rows": [[1, 2]], "coeff": [[0, 1]]}]}
    # no r-subset of the N = 2 columns exists for r > 2, however large r is
    for sign in ("-", "+"):
        for r in ("3", str(10**21)):
            assert run(capsys, "act", "--sign", sign, "--i", "1", "--r", r, "--vector", tv) == (
                0, '{"N": 2, "l": 1, "terms": []}\n')


# The checker each entry of VERIFY_SWEEPS calls, in table order.
SWEEP_CHECKERS = (
    "check_relations",
    "check_evaluators",
    "check_howe",
    "check_dual_blocks",
    "check_form_consistency",
    "check_shapovalov",
    "check_commutator",
    "check_serre",
    "check_cartan",
)


def _stub_checkers(monkeypatch) -> list:
    """Replace every sweep by a one-check pass that records its arguments."""
    calls = []
    for name in SWEEP_CHECKERS:
        def stub(*args, name=name):
            calls.append((name, args))
            return Report(name, cases=1)

        monkeypatch.setattr(verify, name, stub)
    return calls


def test_verify_all_runs_the_sweep_table_in_order(capsys, monkeypatch):
    calls = _stub_checkers(monkeypatch)
    argv = ("verify", "--all", "--max-N", "2", "--max-m", "4", "--cases", "7", "--seed", "5")
    code, out = run(capsys, *argv)
    assert code == 0
    args = [(2,), (7, 5, 2, 4), (), (), (), (7, 5), (7, 5), (), (2, 4)]
    assert calls == list(zip(SWEEP_CHECKERS, args))
    assert out.splitlines() == [f"pass {name}: 1 checks" for name in SWEEP_CHECKERS]


def test_each_verify_flag_runs_only_its_sweep(capsys, monkeypatch):
    calls = _stub_checkers(monkeypatch)
    for flag, name in zip(VERIFY_SWEEPS, SWEEP_CHECKERS):
        calls.clear()
        assert run(capsys, "verify", f"--{flag}")[0] == 0
        assert [c[0] for c in calls] == [name]


def test_oversized_verify_request_exits_2_at_once(capsys, monkeypatch):
    calls = _stub_checkers(monkeypatch)
    for argv in ("--cartan --max-m 16", "--all --max-N 7", "--shapovalov --cases 10001"):
        start = time.perf_counter()
        code = main(["verify", *argv.split()])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "exceeds the limit" in captured.err
        assert time.perf_counter() - start < 1.0
    assert calls == []
    assert run(capsys, "verify", "--all", "--max-N", "6", "--max-m", "8", "--cases", "10000")[0] == 0
    assert len(calls) == len(SWEEP_CHECKERS)


def test_verify_size_below_2_exits_2_at_once(capsys, monkeypatch):
    # the sweeps start at N = 2 and m = 2, so a smaller bound would make no check
    calls = _stub_checkers(monkeypatch)
    for argv in ("--relations --max-N 1", "--cartan --max-N 1", "--cartan --max-m 1",
                 "--evaluators --max-m 1", "--evaluators --max-N 1", "--all --max-m -5"):
        code = main(["verify", *argv.split()])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert f"error: {argv.split()[1]} " in captured.err and "below the least value 2" in captured.err
    assert calls == []
    assert run(capsys, "verify", "--all", "--max-N", "2", "--max-m", "2")[0] == 0
    assert len(calls) == len(SWEEP_CHECKERS)


def test_verify_negative_cases_exits_2_at_once(capsys, monkeypatch):
    # a count of cases is at least 0; a negative one is malformed input, not a failed run
    calls = _stub_checkers(monkeypatch)
    code = main(["verify", "--shapovalov", "--cases", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: --cases -1 is below the least value 0" in captured.err
    assert calls == []


def test_verify_parser_flags_are_the_sweep_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for parser in (sub.choices["verify"], command_parser("verify")):
        flags = [a.dest for a in parser._actions if isinstance(a, argparse._StoreTrueAction)]
        assert flags == ["all", *VERIFY_SWEEPS]


def _parse(capsys, parse, argv):
    """The namespace `parse(argv)` returns, or its exit code, with the captured output."""
    try:
        outcome = parse(argv)
    except SystemExit as exc:
        outcome = exc.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_parses_and_fails_as_the_full_parser(capsys, command):
    # help, a missing required option, a bad choice, a bad int, an unknown
    # option (whose error prints the top-level usage), a bad int and an
    # unknown option on one line, and a valid line
    valid = {"tableaux": "--N 2 --l 1", "ladder": "--N 2 --k 2,0", "eval": "--web w --vector v",
             "ev": "--web w", "form": "--u u --w w", "act": "--sign=- --i 1 --vector v",
             "lt-basis": "--N 2 --l 1", "dual-canonical": "--N 2 --l 1 --type 1,1",
             "gram": "--N 2 --l 2 --type 1,1,1,1", "cartan": "--N 2 --k 1,1,1,1",
             "verify": "--all --seed 3 --max-N 2"}[command].split()
    int_option = {"act": "--r", "verify": "--cases"}.get(command, "--N")  # eval, ev, form: unknown
    both = ["--bogus", *valid, int_option, "x"]
    for rest in (["--help"], [], ["--format", "xml"], ["--N", "x"], [*valid, "--bogus"], both, valid):
        argv = [command, *rest]
        one = _parse(capsys, parse_args, argv)
        assert one == _parse(capsys, build_parser().parse_args, argv), argv
        if rest != valid and (rest or command != "verify"):  # a bare verify parses
            assert one[0] == (0 if rest == ["--help"] else 2), argv


def test_main_without_a_command_prints_every_command(capsys):
    for argv, code in ((["--help"], 0), ([], 2), (["bogus"], 2), (["-h", "cartan"], 0)):
        outcome = _parse(capsys, main, argv)
        assert outcome == (code, _parse(capsys, build_parser().parse_args, argv)[1]), argv
        text = outcome[1].out + outcome[1].err
        assert "{" + ",".join(COMMANDS) + "}" in text, argv
    help_text = _parse(capsys, main, ["--help"])[1].out
    listed = [line.split(None, 1) for line in help_text.splitlines()
              if line.startswith("    ") and not line[4].isspace()]
    assert listed == [[name, text] for name, (text, *_) in COMMANDS.items()]


def test_main_builds_only_the_parser_of_its_command(capsys, monkeypatch):
    # one parser per valid command line; the full parser, one per command
    # and one above them, only for help, an unknown command or leftovers
    made = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: made.append(kw.get("prog")) or init(self, *a, **kw))
    full = 1 + len(COMMANDS)
    assert main(["cartan", "--N", "2", "--k", "1,1,1,1"]) == 0
    assert made == ["qwebs cartan"]
    monkeypatch.setattr(sys, "argv", ["qwebs", "ladder", "--N", "2", "--k", "1,1"])
    assert main() == 0 and made == ["qwebs cartan", "qwebs ladder"]
    for argv, one in ((["--help"], 0), (["bogus"], 0), ([], 0), (["ladder", "--N", "2", "--k", "1,1", "x"], 1)):
        made.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert len(made) == one + full and made[one] == "qwebs", argv
    made.clear()
    with pytest.raises(SystemExit):  # a command's own help needs only its parser
        main(["cartan", "--help"])
    assert made == ["qwebs cartan"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("ev", {}),
        ("ev", [1, 2]),
        ("ev", {"N": 2, "domain": []}),
        ("act", {"N": 2, "l": 1, "terms": [{"rows": [[1, 1]]}]}),
        ("act", {"N": 2, "l": 1, "terms": [{"rows": 5, "coeff": [[0, 1]]}]}),
    ],
    ids=["empty-web", "list-web", "web-without-slices", "term-without-coeff", "rows-not-a-list"],
)
def test_structurally_malformed_json_exits_2(capsys, tmp_path, command, payload):
    path = _write(tmp_path, "in.json", payload)
    if command == "ev":
        argv = ("ev", "--web", path)
    else:
        argv = ("act", "--sign", "-", "--i", "1", "--vector", path)
    assert run(capsys, *argv) == (2, "")


def test_json_nested_past_the_recursion_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    deep = str(path)
    for argv in (("ev", "--web", deep), ("eval", "--web", deep, "--vector", deep),
                 ("form", "--u", deep, "--w", deep), ("act", "--sign", "-", "--i", "1", "--vector", deep)):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.endswith("JSON: nested too deeply\n") and "Traceback" not in captured.err, argv


_STRAND, _TOP = [{"color": 1, "dual": False}], [{"color": 2, "dual": False}]


def _tableau_vector(*rows) -> dict:
    return {"N": 2, "l": len(rows), "terms": [{"rows": list(rows), "coeff": [[0, 1]]}]}


def _web(domain, *slices) -> dict:
    return {"N": 2, "domain": domain, "slices": list(slices)}


# Input checks that no other test reaches: (argv with {name} for the path of
# an input, the inputs, the message on stderr).
INPUT_CHECKS = {
    "tableau-rows-off-the-shape": ("act --sign=- --i 1 --vector {tv}",
                                   {"tv": _tableau_vector([1, 2, 1])}, "grid does not match shape"),
    "tableau-entry-out-of-range": ("act --sign=- --i 1 --vector {tv}",
                                   {"tv": _tableau_vector([1, 3])}, "entry 3 out of range 1..2"),
    "tableau-column-not-increasing": ("act --sign=- --i 1 --vector {tv}",
                                      {"tv": _tableau_vector([1, 2], [1, 3])},
                                      "columns must strictly increase"),
    "act-negative-multiplicity": ("act --sign=- --i 1 --r=-1 --vector {tv}", {"tv": _tableau_vector([1, 2])},
                                  "multiplicity must be nonnegative"),
    "factor-color-over-N": ("ev --web {w}", {"w": _web([{"color": 3, "dual": False}])},
                            "factor color 3 outside 0..2"),
    "merge-colors-over-N": ("ev --web {w}",
                            {"w": _web(_TOP + _STRAND, {"kind": "merge", "pos": 1, "a": 1, "b": 2})},
                            "slice 0: merge color 1+2 exceeds N=2"),
    "split-color-over-N": ("ev --web {w}",
                            {"w": _web(_TOP, {"kind": "split", "pos": 1, "a": 3, "b": -1})},
                            "slice 0: split colors (3,-1) invalid for N=2"),
    "cartan-weight-length": ("cartan --N 3 --k 1,1,1,1", {},
                             "weight length 4 is not a multiple of N=3"),
    "cartan-color-over-N": ("cartan --N 2 --k 3,1,0,0", {}, "factor color 3 outside 0..2"),
    "cartan-weight-sum": ("cartan --N 2 --k 1,1,1,2", {}, "weight (1, 1, 1, 2) does not sum to its length 4"),
    "rung-index-0": ("ladder --N 2 --k 1,1 --word=-0^1", {}, "rung index 0 outside 1..1"),
    "rung-index-over-m-1": ("ladder --N 2 --k 1,1 --word=+2^1", {}, "rung index 2 outside 1..1"),
    "bad-rung-token": ("ladder --N 2 --k 1,1 --word=-1^-1", {},
                       "bad rung token '-1^-1', expected e.g. -1^2"),
    "vector-outside-the-domain": (
        "eval --web {w} --vector {v}",
        {"w": _web(_STRAND), "v": {"N": 2, "space": _TOP,
                                   "terms": [{"subsets": [[2, 1]], "coeff": [[0, 1]]}]}},
        "vector does not live in the web's domain"),
    "form-on-a-dual-codomain": ("form --u {w} --w {w}",
                                {"w": _web(_TOP, {"kind": "tag", "pos": 1, "a": 2})},
                                "the web form is defined on plain boundaries"),
    "bare-verify": ("verify", {}, "nothing to verify; pass --all or a specific sweep"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_checks_exit_2_with_their_message(capsys, tmp_path, case):
    argv, inputs, message = INPUT_CHECKS[case]
    paths = {name: _write(tmp_path, f"{name}.json", data) for name, data in inputs.items()}
    assert main([tok.format_map(paths) for tok in argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


# `--format table` text, recorded before the N cap and the one tableau bound came in
TABLES = {
    "gram --N 2 --l 2 --type 1,1,1,1": [
        "label 13/24", "label 12/34", "v^4 + 2v^2 + 1         v^3 + v", "       v^3 + v  v^4 + 2v^2 + 1"],
    "cartan --N 2 --k 1,1,1,1": [
        "label 13/24", "label 12/34", "v^4 + 2v^2 + 1         v^3 + v", "       v^3 + v  v^4 + 2v^2 + 1",
        "gorenstein 4", "frobenius pass"],
    "form --u {u} --w {w}": ["v^3 + v"],
}


@pytest.mark.parametrize("command", TABLES, ids=_golden_id)
def test_table_format(capsys, tmp_path, command):
    paths = _vector_command_inputs(tmp_path)
    code, out = run(capsys, *[tok.format_map(paths) for tok in command.split()], "--format", "table")
    assert code == 0 and out == "\n".join(TABLES[command]) + "\n"


def test_broken_leading_term_exits_3_with_no_output(capsys, monkeypatch):
    # the walk's kernel loses the leading term of each map it makes
    def drop_leading(*args):
        terms = dict(act_divided(*args))
        terms.pop(max(terms, default=None), None)
        return terms

    monkeypatch.setattr(bases, "act_divided", drop_leading)
    fresh_lt_memo(monkeypatch)
    lt_block.cache_clear()
    assert main(["lt-basis", "--N", "2", "--l", "2", "--type", "1,1,1,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invariant violation: leading coefficient at ")
    assert lt_block.cache_info().currsize == 0
