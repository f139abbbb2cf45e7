"""Command-line entry point: output shapes, exit codes, file inputs."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from wittkit import cli

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_witt_class_dyadic(capsys):
    code, out = run(capsys, "witt", "class", "--ring", "dyadic", "--diag", "1,2")
    assert code == 0
    assert out == {"signature": 2, "parity": 1}


def test_witt_class_exact_stdout_bytes(capsys):
    assert cli.main(["witt", "class", "--ring", "dyadic", "--diag", "1,2"]) == 0
    got = capsys.readouterr().out
    assert got == '{\n  "signature": 2,\n  "parity": 1\n}\n'


def test_witt_class_fraction_entries(capsys):
    code, out = run(capsys, "witt", "class", "--ring", "q", "--diag", "1/2,-3")
    assert code == 0
    assert out["signature"] == 0


def test_witt_class_from_file(capsys):
    code, out = run(capsys, "witt", "class", "--file", str(SAMPLES / "form_rational.json"))
    assert code == 0
    assert set(out) == {"dim_mod2", "signature", "disc", "hasse"}


def test_witt_equiv(capsys):
    code, out = run(
        capsys,
        "witt", "equiv", "--ring", "q", "--diag", "1,1", "--diag2", "2,2",
    )
    assert code == 0 and out == {"equivalent": True}
    code, out = run(
        capsys,
        "witt", "equiv", "--ring", "q", "--diag", "1,1", "--diag2", "1,2",
    )
    assert code == 0 and out == {"equivalent": False}


def test_witt_equiv_mixed_sources(capsys):
    code, out = run(
        capsys,
        "witt", "equiv",
        "--file", str(SAMPLES / "form_dyadic_torsion.json"),
        "--ring", "dyadic", "--diag2", "1,1,-2,-2",
    )
    assert code == 0 and out == {"equivalent": True}


def test_witt_ring_default_and_generated(capsys):
    code, out = run(capsys, "witt", "ring", "--ring", "dyadic")
    assert code == 0
    assert out["group"] == "Z+Z/2"
    assert out["free_generator"] == "<1>"
    assert out["torsion_generator"] == "<1> - <2>"
    code, out = run(capsys, "witt", "ring", "--ring", "fp:5")
    assert code == 0 and out["group"] == "Z/2+Z/2"
    code, out = run(capsys, "witt", "ring", "--ring", "dyadic", "--gen", "1")
    assert code == 0 and out["group"] == "Z"


def test_witt_ring_not_closed_is_a_validation_error(capsys):
    code, out = run(capsys, "witt", "ring", "--ring", "dyadic", "--gen", "2")
    assert code == 2
    assert out["error"]["type"] == "NotClosed"


def test_bott_verify(capsys):
    code, out = run(capsys, "bott", "verify")
    assert code == 0
    assert out["all_pass"] is True
    assert all(out["checks"].values())
    assert out["involution"]["m_conj_transpose_is_minus_m"] is True


def test_bott_export(capsys):
    code, out = run(capsys, "bott", "export")
    assert code == 0
    m = out["m"]
    assert m["ring"] == {"ring": "laurent2"}
    assert len(m["entries"]) == 2 and len(m["entries"][0]) == 2


def test_stab_colim_samples(capsys):
    code, out = run(capsys, "stab", "colim", "--file", str(SAMPLES / "period_z_times8.json"))
    assert code == 0
    assert out == {"rank": 1, "inverted_primes": [2], "torsion": []}
    code, out = run(
        capsys, "stab", "colim", "--file", str(SAMPLES / "period_mixed_torsion.json")
    )
    assert code == 0
    assert out == {"rank": 1, "inverted_primes": [2], "torsion": [2]}


def test_stab_exact_samples(capsys):
    code, out = run(capsys, "stab", "exact", "--file", str(SAMPLES / "chain_exact.json"))
    assert code == 0 and out == {"exact": True, "failures": []}
    code, out = run(capsys, "stab", "exact", "--file", str(SAMPLES / "chain_broken.json"))
    assert code == 0 and out == {"exact": False, "failures": [3]}


def test_lift_demo_and_determinism(capsys):
    code, out = run(
        capsys, "lift", "demo", "--base", "q", "--k", "2", "--n", "2", "--trials", "4"
    )
    assert code == 0
    assert out["all_passed"] is True
    assert out["seed"] == cli.DEFAULT_SEED
    cli.main(["lift", "demo", "--base", "fp:5", "--k", "3", "--n", "3",
              "--trials", "3", "--seed", "4"])
    first = capsys.readouterr().out
    cli.main(["lift", "demo", "--base", "fp:5", "--k", "3", "--n", "3",
              "--trials", "3", "--seed", "4"])
    assert capsys.readouterr().out == first


# -- validation failures (exit 2, JSON error object) ---------------------------


def test_unknown_ring_tag(capsys):
    code, out = run(capsys, "witt", "class", "--ring", "zz", "--diag", "1")
    assert code == 2
    assert out["error"]["type"] == "IllFormed"
    assert "ring tag" in out["error"]["message"]


def test_diag_without_ring(capsys):
    code, out = run(capsys, "witt", "class", "--diag", "1,2")
    assert code == 2 and out["error"]["type"] == "IllFormed"


def test_both_sources_rejected(capsys):
    code, out = run(
        capsys,
        "witt", "class", "--ring", "q", "--diag", "1",
        "--file", str(SAMPLES / "form_rational.json"),
    )
    assert code == 2 and out["error"]["type"] == "IllFormed"


def test_missing_file(capsys):
    code, out = run(capsys, "stab", "colim", "--file", "/nonexistent/x.json")
    assert code == 2 and out["error"]["type"] == "IllFormed"


def test_malformed_chain_file(tmp_path, capsys):
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({"nodes": [{"rank": 1, "torsion": []}], "maps": []}))
    code, out = run(capsys, "stab", "exact", "--file", str(p))
    assert code == 2 and out["error"]["type"] == "IllFormed"
    p.write_text(json.dumps({"nodes": [], "maps": [], "extra": 1}))
    code, out = run(capsys, "stab", "exact", "--file", str(p))
    assert code == 2 and out["error"]["type"] == "IllFormed"


@pytest.mark.parametrize("doc", [
    {"ring": {"ring": "fp", "p": "x"}},
    {"ring": {"ring": "fp"}},
    {"ring": "q", "diag": 7},
    {"ring": "q", "gram": [1, 2]},
])
def test_malformed_form_file_is_a_validation_error(tmp_path, capsys, doc):
    p = tmp_path / "form.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "witt", "class", "--file", str(p))
    assert code == 2 and out["error"]["type"] == "IllFormed"


@pytest.mark.parametrize("argv", [
    ["witt", "class", "--ring", "q", "--diag", "1,1e19999"],
    ["witt", "class", "--ring", "q", "--diag", "1," + "7" * 5000],
    ["witt", "ring", "--ring", "fp:7", "--gen", "1,2e-4301"],
    ["witt", "class", "--file", "{big_int}"],
    ["witt", "class", "--file", "{big_exponent}"],
    ["stab", "colim", "--file", "{big_torsion}"],
])
def test_oversize_numerals_are_refused_before_arithmetic(tmp_path, capsys, argv):
    docs = {
        "big_int": '{"ring": "q", "diag": [1, %s]}' % ("7" * 5000),
        "big_exponent": '{"ring": "q", "diag": [1, 1e99999]}',
        "big_torsion": '{"prefix": [], "period": {"group": {"rank": 0, "torsion": [1%s]}, "map": []}}' % ("0" * 4400),
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(doc)
    argv = [str(tmp_path / (a[1:-1] + ".json")) if a.startswith("{") else a for a in argv]
    t0 = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    out = json.loads(capsys.readouterr().out)  # exactly one JSON document
    assert code == 2
    assert out["error"]["type"] == "BudgetExceeded"
    assert str(cli.NUMERAL_LIMIT) in out["error"]["message"]
    assert elapsed < 1.0


@pytest.mark.parametrize("doc", [
    '{"ring": {"ring": "fp", "p": 5}, "diag": [1.5, 2.7]}',
    '{"ring": "q", "gram": [[[1.5, 1]]]}',
    '{"ring": {"ring": "fp", "p": 5}, "diag": [1e400]}',
    '{"ring": "q", "diag": [1, 2], "epsilon": 1.0}',
])
def test_json_floats_are_refused(tmp_path, capsys, doc):
    # the file formats take integers only; a float was read by truncation,
    # or ended in a traceback when it overflowed
    path = tmp_path / "form.json"
    path.write_text(doc)
    code, out = run(capsys, "witt", "class", "--file", str(path))
    assert code == 2 and out["error"]["type"] == "IllFormed"


def test_numerals_within_the_limit_are_read(tmp_path, capsys):
    code, out = run(capsys, "witt", "class", "--ring", "q", "--diag", "1,1e300")
    assert code == 0 and out["signature"] == 2
    path = tmp_path / "form.json"
    path.write_text('{"ring": "q", "diag": [1, %s]}' % ("1" + "0" * (cli.NUMERAL_LIMIT - 1)))
    code, out = run(capsys, "witt", "class", "--file", str(path))
    assert code == 0 and out["signature"] == 2


def test_degenerate_form_reported(capsys):
    code, out = run(capsys, "witt", "class", "--ring", "dyadic", "--diag", "3")
    assert code == 2 and out["error"]["type"] == "DegenerateForm"


def test_lift_demo_bounds(capsys):
    code, out = run(
        capsys, "lift", "demo", "--base", "q", "--k", "9", "--n", "2", "--trials", "1"
    )
    assert code == 2 and out["error"]["type"] == "IllFormed"
    code, out = run(
        capsys, "lift", "demo", "--base", "dyadic", "--k", "2", "--n", "2", "--trials", "1"
    )
    assert code == 2 and out["error"]["type"] == "SpecMismatch"


@pytest.mark.parametrize("trials", ["0", "1001"])
def test_lift_demo_refuses_a_trial_count_out_of_bounds(capsys, trials):
    # refused before the first trial runs; one trial at k = 6, n = 8 takes
    # about 0.1 s, so an unbounded count could run for hours
    code, out = run(capsys, "lift", "demo", "--base", "q", "--k", "6", "--n", "8", "--trials", trials)
    assert code == 2 and out["error"]["type"] == "IllFormed"
    assert "1 and 1000" in out["error"]["message"]


@pytest.mark.parametrize("argv, quoted", [
    (("lift", "demo", "--base", "q", "--k", "2", "--n", "1", "--trials", "9" * 5000), "'" + "9" * 20 + "'"),
    (("lift", "demo", "--base", "q", "--k", "2", "--n", "1", "--trials", "1" * 4000 + "x"), "'" + "1" * 20 + "'"),
    (("witt", "class", "--ring", "q", "--diag", "1", "--epsilon", "9" * 4000), " " + "9" * 20 + " "),
])
def test_a_refused_flag_value_is_quoted_in_at_most_20_characters(capsys, argv, quoted):
    code, out = run(capsys, *argv)
    assert code == 2 and out["error"]["type"] == "IllFormed"
    assert quoted in out["error"]["message"] and len(out["error"]["message"]) < 100


@pytest.mark.parametrize("argv", [
    ("witt", "class", "--ring", "q", "--diag="),
    ("witt", "class", "--ring", "q", "--diag", ","),
    ("witt", "class", "--ring", "q", "--diag", " , "),
    ("witt", "ring", "--ring", "q", "--gen="),
])
def test_an_empty_diagonal_is_refused_as_such(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2 and out["error"] == {"type": "IllFormed", "message": "empty diagonal"}


@pytest.mark.parametrize("argv", [
    ("witt", "class", "--ring=--", "--diag", "1"),
    ("witt", "ring", "--ring", "q", "--gen=--"),
    ("stab", "colim", "--file=--"),
    ("lift", "demo", "--base", "q", "--k=--", "--n", "1", "--trials", "1"),
])
def test_a_flag_whose_value_is_the_end_marker_is_refused(capsys, argv):
    # argparse drops "--" as the end of options and hands on an empty list
    code, out = run(capsys, *argv)
    assert code == 2 and out["error"]["type"] == "IllFormed"
    assert "expected one argument" in out["error"]["message"]


def test_unknown_subcommand(capsys):
    code, out = run(capsys, "witt", "frobnicate")
    assert code == 2
    assert out["error"]["type"] == "IllFormed"


def test_internal_assertion_maps_to_exit_one(capsys, monkeypatch):
    # main() looks the handler up by name among the module's globals, so
    # it runs the patched one
    def boom(args):
        assert False, "postcondition violated"

    monkeypatch.setattr(cli, "_cmd_bott_verify", boom)
    code, out = run(capsys, "bott", "verify")
    assert code == 1
    assert out["error"]["type"] == "AssertionError"
    assert out["error"]["message"].startswith("postcondition violated")


def test_identity_check_survives_python_O():
    # a corrupted product must still trip the diagonalization certificate,
    # the idempotent check of the Bott data, the square-root identity of
    # the lifting series, over Q and over F_p, and the involution check of a
    # lift, when asserts are compiled away
    script = textwrap.dedent("""
        import sys
        from wittkit import cli, matrices

        assert False, "asserts must be stripped under -O"
        # "matrices._slice_products:k" corrupts only the products with k slices
        where, _, only_k = sys.argv[1].partition(":")
        _, target = where.split(".")
        real = getattr(matrices, target)

        def corrupt_matmul(spec, x, y):
            out = real(spec, x, y)
            out[0][0] = spec.ops.add(out[0][0], spec.one)
            return out

        def corrupt_slices(xs, ys, k, *modulus):
            # one wrong integer in the top degree: over a truncated ring the
            # constant terms, and with them nilpotency, stay intact
            prods = real(xs, ys, k, *modulus)
            if k == int(only_k):
                prods[-1][0][0] += 1
            return prods

        setattr(matrices, target, corrupt_matmul if target == "_matmul" else corrupt_slices)
        sys.exit(cli.main(sys.argv[2:]))
    """)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cases = [
        # P^T G of the diagonalization certificate, taken by the congruence kernel:
        # a diagonal Gram takes no other product of one slice
        ("matrices._slice_products:1", ["witt", "class", "--ring", "q", "--diag", "1,2"], "certificate"),
        ("matrices._matmul", ["bott", "verify"], "idempotent"),
        # at k = 4 the series makes h^2 and the check a^2 and b*h, 2 slices each
        ("matrices._slice_products:2", ["lift", "demo", "--base", "q", "--k", "4", "--n", "2", "--trials", "1"],
         "square-root identity"),
        # over F_p each product is reduced mod p inside the kernel
        ("matrices._slice_products:2", ["lift", "demo", "--base", "fp:5", "--k", "4", "--n", "2", "--trials", "1"],
         "square-root identity"),
        # the series and its check make no 3-slice product at k = 3, but S*U does:
        # the corrected involution fails J^2 = I, the package's fault, not the input's
        ("matrices._slice_products:3", ["lift", "demo", "--base", "q", "--k", "3", "--n", "2", "--trials", "1"],
         "computed involution"),
    ]
    for target, argv, expected in cases:
        proc = subprocess.run([sys.executable, "-O", "-c", script, target, *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        out = json.loads(proc.stdout)
        assert out["error"]["type"] == "AssertionError"
        assert expected in out["error"]["message"]


def test_import_leaves_the_heavy_stdlib_modules_unloaded():
    # the catalog's importlib.resources (pathlib, tempfile, shutil, urllib)
    # and the lift demo's random load on first use, not with the package;
    # the records need no dataclasses (inspect, ast, dis, copy) and the
    # annotations no typing; the CLI reads its flags without argparse
    # (gettext, locale, shutil) and writes its answer without json, which
    # loads only to read a file
    script = textwrap.dedent("""
        import os, sys
        sys.path.insert(0, sys.argv[1])
        import wittkit, wittkit.cli
        heavy = ("importlib.resources", "pathlib", "tempfile", "shutil", "urllib", "random",
                 "dataclasses", "inspect", "typing", "ast", "dis", "copy")
        cli_only = ("argparse", "json", "gettext", "locale", "shutil")
        print([name for name in heavy + cli_only if name in sys.modules])
        out, sys.stdout = sys.stdout, open(os.devnull, "w")
        codes = [wittkit.cli.main(["witt", "class", "--ring", "q", "--diag", "1,2"])]
        after_class = [name for name in cli_only if name in sys.modules]
        codes.append(wittkit.cli.main(["stab", "colim", "--file", sys.argv[2]]))
        sys.stdout = out
        print(codes, after_class, "json" in sys.modules)
        from wittkit.stabilization import catalog_lookup
        print(catalog_lookup("W", 0, "dyadic", 1).group.to_json())
    """)
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", script, src, str(SAMPLES / "period_z_times8.json")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, after_calls, group = proc.stdout.splitlines()
    assert loaded == "[]"
    assert after_calls == "[0, 0] [] True"
    assert group == "{'rank': 1, 'torsion': [2]}"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


FLAGS = {
    ("witt", "class"): ["--ring", "--epsilon", "--diag", "--file"],
    ("witt", "equiv"): ["--ring", "--epsilon", "--diag", "--file", "--diag2", "--file2"],
    ("witt", "ring"): ["--ring", "--gen"],
    ("bott", "verify"): [],
    ("bott", "export"): [],
    ("stab", "colim"): ["--file"],
    ("stab", "exact"): ["--file"],
    ("lift", "demo"): ["--base", "--k", "--n", "--trials", "--seed"],
}


def test_help_at_every_level_exits_zero_and_names_what_it_may_take(capsys):
    table = {(group, command): list(entry[2]) for group, (_, commands) in cli._COMMANDS.items()
             for command, entry in commands.items()}
    assert table == FLAGS
    levels = {(): ["witt", "bott", "stab", "lift"]}
    for group, command in FLAGS:
        levels.setdefault((group,), []).append(command)
        levels[group, command] = FLAGS[group, command]
    for prefix, names in levels.items():
        for word in ("-h", "--help"):
            with pytest.raises(SystemExit) as exc:
                cli.main([*prefix, word])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: wittkit " + " ".join(prefix))
            assert [name for name in names if f"\n  {name} " not in out] == []
    # help comes first, whatever else the command line holds
    with pytest.raises(SystemExit) as exc:
        cli.main(["lift", "demo", "--bogus", "x", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv,message", [
    # abbreviations: argparse took these for --diag and --base
    (["witt", "class", "--ring", "q", "--diag", "1,2", "--dia", "3"], "unrecognized arguments: --dia 3"),
    (["witt", "class", "--ring", "q", "--di", "1,2"], "unrecognized arguments: --di 1,2"),
    (["witt", "class", "--ring", "q", "--diag", "1", "--dia=3"], "unrecognized arguments: --dia=3"),
    (["lift", "demo", "--bas", "q", "--k", "2", "--n", "1", "--trials", "1"], "required: --base"),
    (["witt", "equiv", "--ring", "q", "--diag", "1", "--fil", "x"], "unrecognized arguments: --fil x"),
    # a single-valued flag given twice: argparse kept the last value
    (["witt", "class", "--ring", "q", "--diag", "1", "--diag", "2"], "--diag: given more than once"),
    (["witt", "class", "--ring", "q", "--ring=dyadic", "--diag", "1"], "--ring: given more than once"),
    (["witt", "class", "--ring", "q", "--diag", "1", "--epsilon", "1", "--epsilon", "1"],
     "--epsilon: given more than once"),
    (["witt", "equiv", "--ring", "q", "--diag", "1", "--diag2", "1", "--diag2", "2"], "--diag2: given more than once"),
    (["stab", "colim", "--file", str(SAMPLES / "period_z_times8.json"), "--file", "x"], "--file: given more than once"),
    (["lift", "demo", "--base", "q", "--k", "2", "--n", "1", "--trials", "1", "--seed", "1", "--seed", "2"],
     "--seed: given more than once"),
])
def test_a_flag_is_taken_by_its_exact_name_and_at_most_once(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 2 and out["error"]["type"] == "IllFormed"
    assert message in out["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["witt", "class", "--file", str(SAMPLES / "form_rational.json"), "--ring", "dyadic"],
    ["witt", "class", "--file", str(SAMPLES / "form_rational.json"), "--ring", "q"],
    ["witt", "class", "--file", str(SAMPLES / "form_rational.json"), "--epsilon", "1"],
    ["witt", "class", "--epsilon=-1", "--file", str(SAMPLES / "form_dyadic_torsion.json")],
    ["witt", "equiv", "--file", str(SAMPLES / "form_rational.json"),
     "--file2", str(SAMPLES / "form_rational.json"), "--ring", "q"],
])
def test_ring_and_epsilon_beside_files_alone_are_refused(capsys, argv):
    # a form file names its own ring and sign; the flags were ignored
    code, out = run(capsys, *argv)
    assert code == 2 and out["error"]["type"] == "IllFormed"
    assert "--ring and --epsilon" in out["error"]["message"]
    # without the stray flag the same call answers
    stray = next(i for i, a in enumerate(argv) if a.startswith(("--ring", "--epsilon")))
    rest = argv[:stray] + argv[stray + (1 if "=" in argv[stray] else 2):]
    code, out = run(capsys, *rest)
    assert code == 0 and "error" not in out


def test_the_writer_prints_what_json_dumps_prints():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # quotes, backslashes, control characters, DEL, non-ASCII, the line
    # separators, lone surrogates and characters past U+FFFF
    special = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\ud800\udfff\ue000\uffff\U00010000\U0001f600\U0010ffff')
    text = st.text(st.one_of(special, st.characters()), max_size=12)
    ints = st.integers() | st.integers(min_value=-(10**400), max_value=10**400)
    leaves = st.none() | st.booleans() | ints | text
    docs = st.recursive(leaves, lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                        | st.dictionaries(text | ints, kids, max_size=4), max_leaves=25)

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(docs)
    def check(obj):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli._emit(obj)
        assert buffer.getvalue() == json.dumps(obj, indent=2) + "\n"

    check()
    for obj in (1.5, {1, 2}, [object()], {"x": b"y"}):
        with pytest.raises(TypeError):
            cli._emit(obj)


@pytest.mark.parametrize("command,doc,want", [
    # the period's one torsion order used to be placed in Z^(10^30 + 1)
    (["stab", "colim"], {"period": {"group": {"rank": 10**30, "torsion": [2]}, "map": []}}, 2),
    # a huge first node maps to a trivial one, so its map has no rows
    (["stab", "exact"], {"nodes": [{"rank": 10**12, "torsion": [2]}, {"rank": 0}, {"rank": 1}], "maps": [[], [[]]]}, 0),
])
def test_a_huge_rank_costs_nothing_in_its_size(tmp_path, command, doc, want):
    # in a child capped at 1 GiB of address space, so work in the size of
    # the rank ends in a MemoryError there, not in the machine's memory
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    script = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from wittkit import cli
        sys.exit(cli.main(sys.argv[1:]))
    """)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *command, "--file", str(path)],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == want, proc.stderr[-500:]
    out = json.loads(proc.stdout)
    if want:
        assert out["error"]["type"] == "IllFormed"
    else:
        assert out == {"exact": True, "failures": []}
