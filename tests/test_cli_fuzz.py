"""Malformed JSON files against ``witt class``, ``stab colim`` and ``stab exact``.

Each seeded input starts from a valid document of its subcommand and
takes a few mutations: a value replaced by one of the wrong type (a float,
a bool, a string, null, a list or an object), a key dropped, a row made
ragged, or a rank made huge.  Whatever the input, a call prints exactly
one JSON document and exits 0 (an answer) or 2 (a typed refusal): no
traceback, no exit 1, and no input that runs without bound.
"""

from __future__ import annotations

import copy
import json
import random
import resource
import time

import pytest

from wittkit import cli

# The documents each subcommand starts from.
TEMPLATES = {
    ("witt", "class"): [
        {"ring": "q", "diag": [1, -2, 3]},
        {"ring": "dyadic", "gram": [[0, 1, 0], [1, 0, 1], [0, 1, 2]]},
        {"ring": {"ring": "fp", "p": 7}, "epsilon": 1, "gram": [[1, 2], [2, 3]]},
        {"ring": "fp:5", "epsilon": -1, "gram": [[0, 1], [-1, 0]]},
    ],
    ("stab", "colim"): [
        {"period": {"group": {"rank": 1, "torsion": [2, 4]}, "map": [[8, 0, 0], [0, 1, 0], [0, 1, 3]]}},
        {"prefix": [{"group": {"rank": 2}, "map": [[1, 1], [0, 2]]}],
         "period": {"group": {"rank": 2, "torsion": []}, "map": [[2, 1], [0, 3]]}},
        {"prefix": [{"group": {"rank": 1, "torsion": [2]}, "map": []}], "period": {"group": {"rank": 0}, "map": []}},
    ],
    ("stab", "exact"): [
        {"nodes": [{"rank": 1}, {"rank": 1}, {"rank": 0, "torsion": [2]}], "maps": [[[2]], [[1]]]},
        {"nodes": [{"rank": 0, "torsion": [3]}, {"rank": 0, "torsion": [9]}, {"rank": 0, "torsion": [3]}],
         "maps": [[[3]], [[1]]]},
        {"nodes": [{"rank": 2, "torsion": [2]}, {"rank": 0}, {"rank": 1}], "maps": [[], [[]]]},
    ],
}

# witt class --file inputs that once ended in a traceback (ValueError,
# KeyError and TypeError) instead of a refusal; test_cli.py pins their
# messages.
FORMER_TRACEBACKS = [
    {"ring": {"ring": "fp", "p": "x"}},
    {"ring": {"ring": "fp"}},
    {"ring": "q", "diag": 7},
]

HUGE = (10**12, 10**30, -(10**12))
JUNK = (None, True, False, 0, -1, 2, 0.5, -3.0, 1e300, "x", "", "q", [], {}, [[]], [1, [2]], {"rank": 1})


def _slots(doc):
    """(container, key) for every value inside the document."""
    out, todo = [], [doc]
    while todo:
        node = todo.pop()
        pairs = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in pairs:
            out.append((node, key))
            todo.append(value)
    return out


def _mutate(rng: random.Random, doc):
    slots = _slots(doc)
    kind = rng.randrange(5)
    if kind == 0 and slots:
        node, key = rng.choice(slots)
        node[key] = copy.deepcopy(rng.choice(JUNK))
    elif kind == 1:
        keyed = [(node, key) for node, key in slots if isinstance(node, dict)]
        if keyed:
            node, key = rng.choice(keyed)
            node.pop(key, None)
    elif kind == 2:
        rows = [node[key] for node, key in slots if isinstance(node[key], list)]
        if rows:
            row = rng.choice(rows)
            if row and rng.random() < 0.5:
                row.pop()
            else:
                row.append(rng.choice((1, 0, [1], 2.5, None)))
    elif kind == 3:
        ranks = [(node, key) for node, key in slots if key == "rank"]
        if ranks:
            node, key = rng.choice(ranks)
            node[key] = rng.choice(HUGE)
    elif slots:
        node, key = rng.choice(slots)
        if isinstance(node[key], int) and not isinstance(node[key], bool):
            node[key] = rng.choice((float(node[key]), bool(node[key] % 2), str(node[key])))
    return doc


def _inputs(seed: int, count: int):
    rng = random.Random(seed)
    commands = sorted(TEMPLATES)
    for doc in FORMER_TRACEBACKS:
        yield ("witt", "class"), doc
    for _ in range(count):
        command = rng.choice(commands)
        doc = copy.deepcopy(rng.choice(TEMPLATES[command]))
        for _ in range(rng.randrange(1, 4)):
            doc = _mutate(rng, doc)
        yield command, doc


def _run(capsys, path, command, doc):
    path.write_text(json.dumps(doc))
    code = cli.main([*command, "--file", str(path)])
    out = capsys.readouterr().out
    return code, json.loads(out)  # one document, or json raises on the rest


@pytest.fixture
def memory_cap():
    """At most 1 GiB more address space while the test runs, so an input
    that allocates without bound fails with MemoryError instead of taking
    the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    cap = size + (1 << 30)
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("seed", [1, 2])
def test_malformed_files_get_one_document_and_exit_0_or_2(capsys, tmp_path, memory_cap, seed):
    start, codes = time.perf_counter(), set()
    for command, doc in _inputs(seed, 150):
        code, out = _run(capsys, tmp_path / "input.json", command, doc)
        assert code in (0, 2), (command, doc, out)
        assert (code == 2) == ("error" in out), (command, doc, out)
        codes.add(code)
    assert codes == {0, 2}
    assert time.perf_counter() - start < 10

