"""Command-line entry point.

Every subcommand prints exactly one JSON document to standard output.
Exit codes: 0 for success, 2 when the input is rejected (the document is
then an error object with ``type`` and ``message``), 1 when an internal
exact identity fails, which is a bug rather than bad input.

Subcommands::

    wittkit witt class  --ring dyadic --diag 1,2
    wittkit witt equiv  --ring q --diag 1,1 --diag2 2,2
    wittkit witt ring   --ring dyadic
    wittkit bott verify
    wittkit bott export
    wittkit stab colim  --file period_z_times8.json
    wittkit stab exact  --file chain.json
    wittkit lift demo   --base q --k 2 --n 2 --trials 100

File formats: a form descriptor is {"ring": ..., "epsilon": 1|-1,
"gram": [[...]]} or the diagonal shorthand {"ring": ..., "diag": [...]};
a sequence file is {"prefix": [{"group": ..., "map": ...}, ...],
"period": {"group": {"rank": r, "torsion": [...]}, "map": [[...]]}};
a chain file is {"nodes": [group, ...], "maps": [matrix, ...]} with
maps[i] going from nodes[i] to nodes[i+1].  Ring tags are ``q``,
``dyadic``, ``fp:<p>``.  Randomized subcommands take --seed
(default 0).

Flags come from one table, by exact name, as ``--flag value`` or
``--flag=value``, once each but the repeatable ``--gen``.  A small writer
prints the answer, so a call that reads no file loads no ``json``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from types import SimpleNamespace as _Args

from .bott import build_bott, verify_bott_suite
from .errors import BudgetExceeded, IllFormed, WittkitError
from .forms import GramForm
from .invariants import witt_class, witt_equiv, witt_ring_table
from .lifting import roundtrip_isomorphism_demo
from .rings import RingSpec
from .stabilization import FgAbGroup, GroupHom, GroupSeq, colimit, exactness_check

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, NoReturn, Sequence

__all__ = ["main"]

DEFAULT_SEED = 0

# The most digits, and the largest |exponent|, of a numeral in a flag or a
# JSON file: Python's own limit for reading an int from a string.  Work on
# a longer number can run for minutes, so it is refused before any.
NUMERAL_LIMIT = 4300


class _Escapes(dict):
    """``str.translate`` table of the escapes ``json.dumps`` writes: printable
    ASCII as itself, else ``\\uXXXX``, past U+FFFF as a surrogate pair."""

    def __missing__(self, code: int) -> str:
        if code > 0xFFFF:
            return self[0xD800 + (code - 0x10000 >> 10)] + self[0xDC00 + (code & 0x3FF)]
        return self.setdefault(code, chr(code) if 0x20 <= code < 0x7F else f"\\u{code:04x}")


_ESCAPES = _Escapes({34: '\\"', 92: "\\\\", 8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r"})


def _dumps(obj: Any, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for the types an answer holds."""
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, str):
        return '"' + obj.translate(_ESCAPES) + '"'
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        items, ends = [_dumps(x, inner) for x in obj], "[]"
    elif isinstance(obj, dict):
        items, ends = [_dumps(str(k)) + ": " + _dumps(v, inner) for k, v in obj.items()], "{}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _emit(obj: Any) -> None:
    sys.stdout.write(_dumps(obj) + "\n")


def _numeral(text: str) -> str:
    """``text``, after refusing a numeral beyond NUMERAL_LIMIT."""
    exponent = text.lower().partition("e")[2].lstrip("+-")
    if sum(map(str.isdigit, text)) > NUMERAL_LIMIT or (exponent.isdigit() and int(exponent) > NUMERAL_LIMIT):
        raise BudgetExceeded(f"numeral {text[:20]!r}... has over {NUMERAL_LIMIT} digits or an exponent beyond it")
    return text


def _json_float(text: str) -> Any:
    """Refuses a JSON float: every number in the file formats is an integer."""
    raise IllFormed(f"number {_numeral(text)[:20]!r} is not an integer")


def _load_json(path: str) -> Any:
    import json  # only a file is read as JSON; _dumps writes the answer

    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, parse_int=lambda t: int(_numeral(t)), parse_float=_json_float)
    except OSError as exc:
        raise IllFormed(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise IllFormed(f"{path} is not valid JSON: {exc}") from None


def _scalars(text: str) -> list[Fraction]:
    out = []
    for token in text.split(","):
        token = _numeral(token.strip())
        try:
            out.append(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise IllFormed(f"cannot parse scalar {token!r}") from None
    if not out:
        raise IllFormed("empty diagonal")
    return out


def _forms(args: _Args, *sources: tuple[str, str]) -> list[GramForm]:
    """The form of each (diag, file) pair of flags.  --ring and --epsilon
    serve a --diag: beside files alone they are refused, not ignored."""
    forms = []
    for diag_attr, file_attr in sources:
        diag, path = getattr(args, diag_attr), getattr(args, file_attr)
        if (diag is None) == (path is None):
            raise IllFormed(f"give exactly one of --{diag_attr} or --{file_attr}")
        if path is None and args.ring is None:
            raise IllFormed(f"--{diag_attr} needs --ring")
        forms.append(GramForm.from_json(_load_json(path)) if path is not None else
                     GramForm.diagonal(RingSpec.from_tag(args.ring), _scalars(diag), epsilon=args.epsilon or 1))
    if all(getattr(args, diag) is None for diag, _ in sources) and (args.ring, args.epsilon) != (None, None):
        raise IllFormed("--ring and --epsilon apply to a --diag; a form file names its own ring and sign")
    return forms


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_witt_class(args: _Args) -> Any:
    return witt_class(_forms(args, ("diag", "file"))[0]).to_json()


def _cmd_witt_equiv(args: _Args) -> Any:
    left, right = _forms(args, ("diag", "file"), ("diag2", "file2"))
    return {"equivalent": witt_equiv(left, right)}


def _cmd_witt_ring(args: _Args) -> Any:
    spec = RingSpec.from_tag(args.ring)
    generators = None
    if args.gen:
        generators = [GramForm.diagonal(spec, _scalars(g)) for g in args.gen]
    return witt_ring_table(spec, generators).to_json()


def _cmd_bott_verify(args: _Args) -> Any:
    return verify_bott_suite(build_bott())


def _cmd_bott_export(args: _Args) -> Any:
    data = build_bott()
    return {"m": data.m.to_json()}


def _cmd_stab_colim(args: _Args) -> Any:
    seq = GroupSeq.from_json(_load_json(args.file))
    return colimit(seq).to_json()


def _chain_from_json(obj: Any) -> list[GroupHom]:
    if not isinstance(obj, dict) or set(obj) - {"nodes", "maps"} or "nodes" not in obj:
        raise IllFormed("a chain file is {'nodes': [group, ...], 'maps': [matrix, ...]}")
    nodes = obj["nodes"]
    maps = obj.get("maps", [])
    if not isinstance(nodes, list) or not isinstance(maps, list):
        raise IllFormed("'nodes' and 'maps' must be lists")
    if len(nodes) != len(maps) + 1:
        raise IllFormed(f"{len(nodes)} node(s) need {max(len(nodes) - 1, 0)} map(s), got {len(maps)}")
    groups = [FgAbGroup.from_json(g) for g in nodes]
    homs = []
    for i, mat in enumerate(maps):
        if not isinstance(mat, list) or any(not isinstance(r, list) for r in mat):
            raise IllFormed(f"map {i} must be a list of integer rows")
        homs.append(GroupHom(groups[i], groups[i + 1], tuple(tuple(r) for r in mat)))
    if not homs:
        raise IllFormed("a chain needs at least one map")
    return homs


def _cmd_stab_exact(args: _Args) -> Any:
    failures = exactness_check(_chain_from_json(_load_json(args.file)))
    return {"exact": not failures, "failures": failures}


def _cmd_lift_demo(args: _Args) -> Any:
    return roundtrip_isomorphism_demo(RingSpec.from_tag(args.base), args.k, args.n, args.trials,
                                      seed=DEFAULT_SEED if args.seed is None else args.seed)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Each group: its help and commands.  Each command: its help, its handler,
# and its flags as flag -> (help, kind).  Kinds: "str"; "int"; "sign", an int
# that is 1 or -1; "list", a str that may repeat.  A kind ending in "!" is
# required.  An absent flag reads None.
_FORM_FLAGS = {
    "--ring": ("ring tag: q, dyadic, fp:<p>", "str"),
    "--epsilon": ("form symmetry sign for --diag inputs (default 1)", "sign"),
    "--diag": ("comma-separated diagonal entries, fractions allowed", "str"),
    "--file": ("JSON form descriptor file", "str"),
}
_COMMANDS = {
    "witt": ("Witt classes, equivalence, group tables", {
        "class": ("complete invariant tuple of a form", _cmd_witt_class, _FORM_FLAGS),
        "equiv": ("decide Witt equivalence of two forms", _cmd_witt_equiv, {
            **_FORM_FLAGS, "--diag2": ("diagonal of the second form", "str"),
            "--file2": ("descriptor file of the second form", "str")}),
        "ring": ("group structure generated by unit classes", _cmd_witt_ring, {
            "--ring": ("ring tag: q restricted to dyadic or fp:<p>", "str!"),
            "--gen": ("a generator's diagonal; repeatable; default set per ring", "list")})}),
    "bott": ("the degree-(-2) periodicity matrix", {
        "verify": ("run all identity checks, report JSON", _cmd_bott_verify, {}),
        "export": ("emit the matrix entrywise as JSON", _cmd_bott_export, {})}),
    "stab": ("colimits and exactness of group systems", {
        "colim": ("colimit of an eventually-periodic system", _cmd_stab_colim, {"--file": ("sequence file", "str!")}),
        "exact": ("locate failures of exactness in a chain", _cmd_stab_exact, {"--file": ("chain file", "str!")})}),
    "lift": ("nilpotent-extension lifting demos", {
        "demo": ("randomized surjectivity/injectivity round trip", _cmd_lift_demo, {
            "--base": ("base ring tag: q or fp:<p>", "str!"), "--k": ("truncation order, 1..6", "int!"),
            "--n": ("matrix size, 1..8", "int!"), "--trials": ("number of trials, 1..1000", "int!"),
            "--seed": (f"RNG seed (default {DEFAULT_SEED})", "int")})}),
}


def _help(usage: str, about: str, table: dict) -> NoReturn:
    width = max(map(len, table), default=0)
    rows = "".join(f"\n  {key:<{width}}  {entry[0]}" for key, entry in table.items())
    sys.stdout.write(f"usage: wittkit {usage}\n\n{about}\n{rows}".rstrip() + "\n")
    raise SystemExit(0)


def _choose(table: dict, word: str | None, name: str, usage: str, about: str) -> Any:
    """``table[word]``; for ``-h`` or ``--help``, the table's help."""
    if word in ("-h", "--help"):
        _help(f"{usage}{{{','.join(table)}}} ...", about, table)
    if word not in table:
        raise IllFormed(f"the following arguments are required: {name}" if word is None else
                        f"argument {name}: invalid choice: {word!r} (choose from {', '.join(map(repr, table))})")
    return table[word]


def _parse(argv: list[str]) -> tuple[Any, _Args]:
    """The handler and flags of a command line.  Only exact flag names count:
    ``--flag value`` or ``--flag=value``, each flag once unless a "list"."""

    def is_value(word: str) -> bool:  # no flag starts with "-" and a digit: "-1,2" and "-.5" are values
        return word[:1] != "-" or word == "-" or word[1:2].isdigit() or word[1:2] == "."

    about = "Exact form invariants, the periodicity matrix, and colimit bookkeeping."
    about, commands = _choose(_COMMANDS, argv[0] if argv else None, "{" + ",".join(_COMMANDS) + "}", "", about)
    about, handler, flags = _choose(commands, argv[1] if len(argv) > 1 else None, "command", argv[0] + " ", about)
    values: dict[str, Any] = {flag[2:]: None for flag in flags}
    words, extras, i = argv[2:], [], 0
    while i < len(words):
        word, i = words[i], i + 1
        if word in ("-h", "--help"):
            shown = [(f"{flag} {'{1,-1}' if kind == 'sign' else flag[2:].upper()}", kind[-1:] == "!")
                     for flag, (_, kind) in flags.items()]
            _help(" ".join([*argv[:2], *(n if required else f"[{n}]" for n, required in shown)]), about, flags)
        if word == "--":  # the rest are positionals, which no command takes
            extras += words[i - 1:]
            break
        flag, eq, text = word.partition("=")
        if is_value(word) or flag not in flags:
            extras.append(word)
            continue
        if not eq:  # the next word; a flag or the end there reads as "--", refused
            text, i = (words[i] if i < len(words) and is_value(words[i]) else "--"), i + 1
        if text == "--":
            raise IllFormed(f"argument {flag}: expected one argument")
        kind, name = flags[flag][1].rstrip("!"), flag[2:]
        if values[name] is not None and kind != "list":
            raise IllFormed(f"argument {flag}: given more than once")
        try:
            value = int(text) if kind in ("sign", "int") else text
        except ValueError:
            raise IllFormed(f"argument {flag}: invalid int value: {text!r}") from None
        if kind == "sign" and value not in (1, -1):
            raise IllFormed(f"argument {flag}: invalid choice: {value} (choose from 1, -1)")
        values[name] = [*(values[name] or ()), value] if kind == "list" else value
    missing = [flag for flag, (_, kind) in flags.items() if kind[-1:] == "!" and values[flag[2:]] is None]
    if missing:
        raise IllFormed(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise IllFormed(f"unrecognized arguments: {' '.join(extras)}")
    return handler, _Args(**values)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        handler, args = _parse(list(sys.argv[1:] if argv is None else argv))
        # the module global by name, so that a handler patched in place runs
        result = globals()[handler.__name__](args)
    except WittkitError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2
    except AssertionError as exc:
        _emit({"error": {"type": "AssertionError",
                         "message": str(exc) or "internal identity failed"}})
        return 1
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
