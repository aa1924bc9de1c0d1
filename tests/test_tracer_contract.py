"""The benchmark's tracer wraps and counts qwebs names: each must exist and be restored.

The tracer's own tests are not part of this suite, so these pin what it
reads of qwebs: the spanned and counted names, a sized `coords` on the
results whose terms it counts, and that the names it spans are the ones the
commands do their work through.
"""

import importlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import tracer  # noqa: E402
from perfbench.run import module_caches  # noqa: E402

import qwebs.cli  # noqa: E402,F401  (the tracer patches qwebs.cli.json)
from qwebs import bases, howe  # noqa: E402
from qwebs.tableaux import Shape  # noqa: E402
from qwebs.tensor import Boundary, Factor, basis_indices  # noqa: E402
from qwebs.webs import ladder_from_word  # noqa: E402

from helpers import basis_vector, highest_vector  # noqa: E402


def _qwebs_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "qwebs" or name.startswith("qwebs."))}


def test_every_traced_name_exists():
    for mod, attr, _ in tracer.SPANNED + tracer.COUNTED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod}.{attr}"
    for mod, cls, attr, _ in tracer.COUNTED_METHODS:
        owner = getattr(importlib.import_module(mod), cls, None)
        assert callable(getattr(owner, attr, None)), f"{mod}.{cls}.{attr}"


def test_install_wraps_and_uninstall_restores_every_attribute():
    for mod, *_ in tracer.SPANNED + tracer.COUNTED_FUNCTIONS + tracer.COUNTED_METHODS:
        importlib.import_module(mod)
    before = {name: dict(vars(mod)) for name, mod in _qwebs_modules().items()}
    classes = {(mod, cls): dict(vars(getattr(sys.modules[mod], cls)))
               for mod, cls, _, _ in tracer.COUNTED_METHODS}
    t = tracer.Tracer()
    t.install()
    try:
        for mod, attr, _ in tracer.SPANNED:
            assert getattr(sys.modules[mod], attr).__wrapped__ is before[mod][attr], f"{mod}.{attr}"
        for mod, cls, attr, _ in tracer.COUNTED_METHODS:
            assert getattr(sys.modules[mod], cls).__dict__[attr].__wrapped__ is classes[mod, cls][attr]
    finally:
        t.uninstall()
    for name, mod in _qwebs_modules().items():
        now = vars(mod)
        assert now.keys() == before[name].keys(), name
        assert all(now[k] is v for k, v in before[name].items()), name
    for (mod, cls), attrs in classes.items():
        now = vars(getattr(sys.modules[mod], cls))
        assert all(now[k] is v for k, v in attrs.items()), cls


def test_counted_results_expose_sized_coords():
    tensor, howe = sys.modules["qwebs.tensor"], sys.modules["qwebs.howe"]
    space = Boundary(3, (Factor(3),))
    x = basis_vector(space, basis_indices(space)[0])
    t = tracer.Tracer()
    t.install()
    try:  # each call looks the wrapped name up in its module, as qwebs callers do
        split = tensor.apply_split(x, 1, 2, 1)
        merged = tensor.apply_merge(split, 1, 2, 1)
        lowered = howe.act_E(-1, 2, highest_vector(Shape(2, 2)))
    finally:
        t.uninstall()
    assert (len(split.coords), len(merged.coords), len(lowered.coords)) == (3, 1, 2)
    assert t.counts["tensor.terms_in"] == len(x.coords) + len(split.coords)
    assert t.counts["tensor.peak_terms"] == len(split.coords)
    assert t.counts["howe.terms_out"] == len(lowered.coords)


def test_kernel_move_table_is_cleared_before_each_op():
    # perfbench clears every functools cache of a qwebs module before each
    # op, so each op starts with an empty cache of the kernel's column masks
    assert module_caches().get("qwebs.howe._column_ones") is howe._column_ones
    labels = [(3, 2, (2, 1, 1, 1, 1, 0)), (2, 3, (1, 1, 1, 1, 1, 1))]
    warm = [{t: e.terms for t, e in bases.lt_block(*key).items()} for key in labels]
    assert all(warm)
    assert howe._column_ones.cache_info().currsize
    for key, maps in zip(labels, warm):
        bases.lt_block.cache_clear()
        bases.lt_memo.cache_clear()
        howe._column_ones.cache_clear()
        assert {t: e.terms for t, e in bases.lt_block(*key).items()} == maps


def test_shape_memo_is_cleared_before_each_op(capsys):
    # the memo of LT maps outlives a block; the bench clears it with every
    # other functools cache, so a `dual` or `cartan` op repeats its work
    assert module_caches().get("qwebs.bases.lt_memo") is bases.lt_memo
    argv = "dual-canonical --N 3 --l 2 --type 0,0,1,2,1,2".split()
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        assert _run_cold(capsys, argv, t)[0] == 0
        counts.append(t.counts["howe.act_divided_calls"])
    assert counts[0] == counts[1] > 0


# One op of each benchmark workload, with the counters that must read its work.
TRACED_OPS = {
    "cartan --N 2 --k 1,1,1,1,1,1": ("bases.lt_vector_calls", "howe.act_divided_calls"),
    "dual-canonical --N 3 --l 2 --type 0,0,1,2,1,2": (
        "bases.lt_vector_calls", "howe.act_divided_calls", "bases.corrections"),
    "verify --evaluators --cases 3": ("webs.evaluate_dense_calls", "webs.slices_evaluated"),
}


def _run_cold(capsys, argv: list[str], t=None) -> tuple[int, str]:
    """`qwebs.cli.main(argv)` from cleared caches, as the benchmark runs an op."""
    for cache in module_caches().values():
        cache.cache_clear()
    if t is not None:
        t.install()
    try:
        code = sys.modules["qwebs.cli"].main(argv)
    finally:
        if t is not None:
            t.uninstall()
    return code, capsys.readouterr().out


@pytest.mark.parametrize("op", TRACED_OPS)
def test_traced_names_see_the_work_and_leave_the_output_as_it_was(capsys, op):
    untraced = _run_cold(capsys, op.split())
    assert untraced[0] == 0
    t = tracer.Tracer()
    assert _run_cold(capsys, op.split(), t) == untraced
    for key in TRACED_OPS[op]:
        assert t.counts[key] > 0, key
    if op.startswith("cartan"):  # one pairing per unordered pair of labels
        n = len(json.loads(untraced[1])["cartan"]["labels"])
        assert t.counts["bases.pairing_calls"] == n * (n + 1) // 2 == 15


def test_the_web_form_span_sees_the_form_command_work(capsys, tmp_path):
    # `web_form` is the one entry point of the form: a u != w op is one span
    # of it around one walk of w, u being co-walked with no `evaluate_dense`
    paths = []
    for name, word in (("u", [(-1, 2, 1), (-1, 3, 1), (-1, 1, 1), (-1, 2, 1)]),
                       ("w", [(-1, 2, 2), (-1, 1, 1), (-1, 3, 1)])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(ladder_from_word(2, (2, 2, 0, 0), word).to_json()))
        paths.append(str(path))
    argv = ["form", "--u", paths[0], "--w", paths[1]]
    untraced = _run_cold(capsys, argv)
    assert untraced == (0, "[[1, 1], [3, 1]]\n")
    t = tracer.Tracer()
    assert _run_cold(capsys, argv, t) == untraced
    assert t.counts["webs.web_form_calls"] == 1
    assert t.counts["webs.evaluate_dense_calls"] == 1


@pytest.mark.parametrize("argv", ["dual-canonical --N 3 --l 2 --type 0,0,1,2,1,2",
                                  "gram --N 3 --l 2 --type 0,0,1,2,1,2 --basis dual"])
def test_a_dual_op_fetches_its_lt_block_once(capsys, argv):
    # the dual block is made from the LT block the command holds, so the
    # block's cache sees one miss, no hit, and one walk of its labels
    t = tracer.Tracer()
    code, out = _run_cold(capsys, argv.split(), t)
    assert code == 0
    payload = json.loads(out)
    labels = len(payload["labels"] if argv.startswith("gram") else payload)
    info = bases.lt_block.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    assert t.counts["bases.lt_vector_calls"] == 1
    assert t.counts["bases.dual_canonical_calls"] == labels > 1
