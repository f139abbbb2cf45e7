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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bott import build_bott, verify_bott_suite
from .errors import BudgetExceeded, IllFormed, WittkitError
from .forms import GramForm
from .invariants import witt_class, witt_equiv, witt_ring_table
from .lifting import roundtrip_isomorphism_demo
from .rings import RingSpec
from .stabilization import FgAbGroup, GroupHom, GroupSeq, colimit, exactness_check

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Sequence

__all__ = ["main"]

DEFAULT_SEED = 0

# The most digits, and the largest |exponent|, of a numeral in a flag or a
# JSON file: Python's own limit for reading an int from a string.  Work on
# a longer number can run for minutes, so it is refused before any.
NUMERAL_LIMIT = 4300


class _Parser(argparse.ArgumentParser):
    """Raises instead of printing usage, so every failure path emits JSON."""

    def error(self, message: str) -> Any:
        raise IllFormed(message)

    def _get_values(self, action: argparse.Action, arg_strings: list[str]) -> Any:
        # argparse drops the value of "--ring=--" as an end-of-options
        # marker and hands the handler an empty list
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return super()._get_values(action, arg_strings)

    def _parse_optional(self, arg_string: str) -> Any:
        # no flag starts with "-" and a digit, so "-1,2" and "-3/4" are values
        return None if arg_string[:1] == "-" and arg_string[1:2].isdigit() else super()._parse_optional(arg_string)

    def _get_formatter(self) -> argparse.HelpFormatter:
        # shutil's terminal width, which argparse imports shutil (zlib, bz2, lzma) for
        try:
            columns = int(os.environ.get("COLUMNS") or os.get_terminal_size(sys.__stdout__.fileno()).columns)
        except (AttributeError, ValueError, OSError):
            columns = 80
        return self.formatter_class(prog=self.prog, width=(columns if columns > 0 else 80) - 2)


def _emit(obj: Any) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


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


def _form_from(args: argparse.Namespace, diag_attr: str, file_attr: str) -> GramForm:
    diag = getattr(args, diag_attr)
    path = getattr(args, file_attr)
    if (diag is None) == (path is None):
        raise IllFormed(f"give exactly one of --{diag_attr} or --{file_attr}")
    if path is not None:
        return GramForm.from_json(_load_json(path))
    if args.ring is None:
        raise IllFormed(f"--{diag_attr} needs --ring")
    spec = RingSpec.from_tag(args.ring)
    return GramForm.diagonal(spec, _scalars(diag), epsilon=args.epsilon)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_witt_class(args: argparse.Namespace) -> Any:
    return witt_class(_form_from(args, "diag", "file")).to_json()


def _cmd_witt_equiv(args: argparse.Namespace) -> Any:
    left = _form_from(args, "diag", "file")
    right = _form_from(args, "diag2", "file2")
    return {"equivalent": witt_equiv(left, right)}


def _cmd_witt_ring(args: argparse.Namespace) -> Any:
    spec = RingSpec.from_tag(args.ring)
    generators = None
    if args.gen:
        generators = [GramForm.diagonal(spec, _scalars(g)) for g in args.gen]
    return witt_ring_table(spec, generators).to_json()


def _cmd_bott_verify(args: argparse.Namespace) -> Any:
    return verify_bott_suite(build_bott())


def _cmd_bott_export(args: argparse.Namespace) -> Any:
    data = build_bott()
    return {"m": data.m.to_json()}


def _cmd_stab_colim(args: argparse.Namespace) -> Any:
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


def _cmd_stab_exact(args: argparse.Namespace) -> Any:
    failures = exactness_check(_chain_from_json(_load_json(args.file)))
    return {"exact": not failures, "failures": failures}


def _cmd_lift_demo(args: argparse.Namespace) -> Any:
    base = RingSpec.from_tag(args.base)
    return roundtrip_isomorphism_demo(base, args.k, args.n, args.trials, seed=args.seed)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_form_options(p: argparse.ArgumentParser, second: bool = False) -> None:
    p.add_argument("--ring", help="ring tag: q, dyadic, fp:<p>")
    p.add_argument("--epsilon", type=int, choices=(1, -1), default=1,
                   help="form symmetry sign for --diag inputs (default 1)")
    p.add_argument("--diag", help="comma-separated diagonal entries, fractions allowed")
    p.add_argument("--file", help="JSON form descriptor file")
    if second:
        p.add_argument("--diag2", help="diagonal of the second form")
        p.add_argument("--file2", help="descriptor file of the second form")


def _build_parser() -> _Parser:
    top = _Parser(prog="wittkit", description="Exact form invariants, the periodicity matrix, and colimit bookkeeping.")
    groups = top.add_subparsers(dest="group", required=True, metavar="{witt,bott,stab,lift}")

    witt = groups.add_parser("witt", help="Witt classes, equivalence, group tables")
    wsub = witt.add_subparsers(dest="command", required=True)
    wclass = wsub.add_parser("class", help="complete invariant tuple of a form")
    _add_form_options(wclass)
    wclass.set_defaults(handler=_cmd_witt_class)
    wequiv = wsub.add_parser("equiv", help="decide Witt equivalence of two forms")
    _add_form_options(wequiv, second=True)
    wequiv.set_defaults(handler=_cmd_witt_equiv)
    wring = wsub.add_parser("ring", help="group structure generated by unit classes")
    wring.add_argument("--ring", required=True, help="ring tag: q restricted to dyadic or fp:<p>")
    wring.add_argument("--gen", action="append",
                       help="diagonal of a generator form; repeatable; default set per ring")
    wring.set_defaults(handler=_cmd_witt_ring)

    bott = groups.add_parser("bott", help="the degree-(-2) periodicity matrix")
    bsub = bott.add_subparsers(dest="command", required=True)
    bverify = bsub.add_parser("verify", help="run all identity checks, report JSON")
    bverify.set_defaults(handler=_cmd_bott_verify)
    bexport = bsub.add_parser("export", help="emit the matrix entrywise as JSON")
    bexport.set_defaults(handler=_cmd_bott_export)

    stab = groups.add_parser("stab", help="colimits and exactness of group systems")
    ssub = stab.add_subparsers(dest="command", required=True)
    scolim = ssub.add_parser("colim", help="direct limit of an eventually-periodic system")
    scolim.add_argument("--file", required=True, help="sequence JSON file")
    scolim.set_defaults(handler=_cmd_stab_colim)
    sexact = ssub.add_parser("exact", help="locate failures of exactness in a chain")
    sexact.add_argument("--file", required=True, help="chain JSON file")
    sexact.set_defaults(handler=_cmd_stab_exact)

    lift = groups.add_parser("lift", help="nilpotent-extension lifting demos")
    lsub = lift.add_subparsers(dest="command", required=True)
    ldemo = lsub.add_parser("demo", help="randomized surjectivity/injectivity round trip")
    ldemo.add_argument("--base", required=True, help="base ring tag: q or fp:<p>")
    ldemo.add_argument("--k", type=int, required=True, help="truncation order, 1..6")
    ldemo.add_argument("--n", type=int, required=True, help="matrix size, 1..8")
    ldemo.add_argument("--trials", type=int, required=True, help="number of trials, 1..1000")
    ldemo.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"RNG seed (default {DEFAULT_SEED})")
    ldemo.set_defaults(handler=_cmd_lift_demo)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        result = args.handler(args)
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
