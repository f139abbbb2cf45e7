"""Malformed JSON files and flag values against every subcommand.

Each seeded file starts from a valid document of ``witt class``, ``stab
colim`` or ``stab exact`` and takes a few mutations: a value replaced by
one of the wrong type (a float, a bool, a string, null, a list or an
object), a key dropped, a row made ragged, or a rank made huge.  Each
seeded command line gives ``witt class``, ``witt equiv``, ``witt ring``
and ``lift demo`` a valid or a junk value for each of their flags, or
leaves one out, and gives ``bott verify`` and ``bott export`` stray
arguments.  Whatever the input, a call prints exactly one JSON document
and exits 0 (an answer) or 2 (a typed refusal): no traceback, no exit 1,
and no input that runs without bound.  ``-h`` and ``--help`` print usage
by design and are left out.
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


# Valid values of each flag, kept small so that a valid ``lift demo`` is
# quick, and junk that any flag may get.
FLAG_VALUES = {
    "--ring": ("q", "dyadic", "fp:5", "fp:7", "fp:3", "fp:2"),
    "--base": ("q", "fp:5", "fp:7", "dyadic"),
    "--diag": ("1,-2,3", "1/2,3", "2", "-1,-1,-1,-1", "1,1,1,-7", "0", "3/4,-6"),
    "--diag2": ("1", "2,2", "-3,5", "1,-1,2"),
    "--gen": ("1", "-1", "2", "3,5", "1,1"),
    "--epsilon": ("1", "-1", "1", "-1", "0", "2"),
    "--k": ("1", "2", "3", "1", "2", "3", "0", "7", "-1"),
    "--n": ("1", "2", "3", "1", "2", "3", "0", "9", "-1"),
    "--trials": ("1", "2", "1", "2", "0", "1001", "-5", "10" + "0" * 30),
    "--seed": ("0", "1", "-7", "10" + "0" * 30),
}
JUNK_VALUES = (
    "fp:4", "fp:1e3", "fp:", "fp:-7", "fp:" + "9" * 40, "truncnil:q:3", "laurent2", "Q",
    "1/0", "nan", "inf", "-inf", "1e999999", "1e-999999", "\uff11", "\uff11/\uff12", "", " ", ",", "1,,2",
    "x", "0x10", "1_000", "9" * 5000, "1" + "0" * 4300, "-", "--", "-x", ".", "/nonexistent.json",
)
FLAGS = {
    ("witt", "class"): ("--ring", "--diag", "--epsilon", "--file"),
    ("witt", "equiv"): ("--ring", "--diag", "--diag2", "--epsilon", "--file2"),
    ("witt", "ring"): ("--ring", "--gen", "--gen"),
    ("lift", "demo"): ("--base", "--k", "--n", "--trials", "--seed"),
    ("bott", "verify"): (),
    ("bott", "export"): (),
}
STRAYS = ("x", "--ring", "q", "--diag", "1", "--file", "--k", "3", "-v", "--", "verify", "\uff11")


def _command_lines(seed: int, count: int):
    rng = random.Random(seed)
    commands = sorted(FLAGS)
    for _ in range(count):
        command = rng.choice(commands)
        argv = list(command)
        for flag in FLAGS[command]:
            # a --file beside a --diag is refused, so it comes seldom
            if rng.random() < (0.1 if flag.startswith("--file") else 0.9):
                valid = FLAG_VALUES.get(flag, ())
                value = rng.choice(valid if valid and rng.random() < 0.85 else JUNK_VALUES)
                # "--diag -1,2" and "--diag=-1,2" both read -1,2 as the value
                argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
        if not FLAGS[command] or rng.random() < 0.05:
            argv += rng.sample(STRAYS, rng.randrange(3))
        yield argv


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


@pytest.mark.parametrize("seed", [1, 2])
def test_flag_values_get_one_document_and_exit_0_or_2(capsys, memory_cap, seed):
    start, codes = time.perf_counter(), {}
    for argv in _command_lines(seed, 400):
        assert not {"-h", "--help"} & set(argv)
        code = cli.main(argv)
        out = json.loads(capsys.readouterr().out)  # one document, or json raises on the rest
        assert code in (0, 2), (argv, out)
        assert (code == 2) == ("error" in out), (argv, out)
        codes.setdefault(tuple(argv[:2]), set()).add(code)
    assert codes == {command: {0, 2} for command in FLAGS}
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("argv", [
    ("witt", "class", "--ring", "q", "--diag", "-1,2"),
    ("witt", "class", "--ring", "dyadic", "--diag", "-1/2,2"),
    ("witt", "equiv", "--ring", "q", "--diag", "-1,-1", "--diag2", "-3,5"),
    ("witt", "ring", "--ring", "fp:7", "--gen", "-1", "--gen", "-3,5"),
    ("lift", "demo", "--base", "q", "--k", "2", "--n", "1", "--trials", "1", "--seed", "-7"),
])
def test_a_value_that_starts_with_a_minus_and_a_digit_is_read_as_a_value(capsys, argv):
    # no flag starts with "-" and a digit, so "--diag -1,2" needs no "="
    code = cli.main(list(argv))
    out = json.loads(capsys.readouterr().out)  # one document
    assert code == 0, out
    joined = [a for a in argv if not a.startswith("-")][:2]
    for flag, value in zip(argv[2::2], argv[3::2]):
        joined.append(f"{flag}={value}")
    assert cli.main(joined) == 0
    assert json.loads(capsys.readouterr().out) == out


def test_a_value_that_starts_with_a_minus_and_a_letter_is_still_a_flag(capsys):
    code = cli.main(["witt", "class", "--ring", "q", "--diag", "-x"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error"]["type"] == "IllFormed"
    assert "expected one argument" in out["error"]["message"]
