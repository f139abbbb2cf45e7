"""Workload ``cli``: one ``python -m wittkit.cli`` invocation at a time.

Every job is a fresh interpreter started with the pinned flags, so the
time is dominated by interpreter start and import; it is the only
workload that reaches ``bott`` and ``witt ring``.  Each round runs the same
seeded mix of all eight subcommands plus malformed inputs that must end
in a typed refusal (exit 2).  Input files are written before timing.

Left out on purpose: ``--diag 1e999999`` and primes near 10^17, which
today run without bound (over two minutes, or over 100 s for
``witt class --ring q --diag 1,100000000000000003``), so a single job would
swallow the whole run.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
from fractions import Fraction
from math import gcd

import exactmath as em
import wl_stab
import wl_witt

PROJECTION_CONVENTION = "P = (I - J)/2"

# Inputs that today end in a traceback instead of a JSON refusal.
TRACEBACK_FORMS = (
    {"ring": {"ring": "fp", "p": "x"}},
    {"ring": {"ring": "fp"}},
    {"ring": "q", "diag": 7},
)


# Families that meet known defects (ROADMAP items 5, 3 and 2); they run
# outside the timed loop.
KNOWN_DEFECT_FAMILIES = {"malformed-traceback", "stab-colim-nonuniform", "witt-class-file-dyadic"}

# How a typed refusal from the _dyadic_block_pivot fallback reads in a verdict.
DYADIC_REFUSAL = "exit 2 with {'error': {'type': 'OracleInconclusive'"


class Job:
    __slots__ = ("idx", "family", "argv", "expect")

    def __init__(self, idx, family, argv, expect):
        self.idx, self.family, self.argv, self.expect = idx, family, argv, expect


# -- expected documents, from the benchmark's own arithmetic --------------------


def _class_json(ring: str, diag: list[int]) -> dict:
    return wl_witt.witt_class_json(ring, 1, diag)


def _fp_label(cls: dict, p: int) -> str:
    if cls["dim_mod2"] == 0:
        return "0" if cls["disc"] == 1 else f"<1,{(-cls['disc']) % p}>"
    return f"<{cls['disc']}>"


def _fp_rep(cls: dict, p: int) -> list[int]:
    if cls["dim_mod2"] == 0:
        return [] if cls["disc"] == 1 else [1, (-cls["disc"]) % p]
    return [cls["disc"]]


def fp_ring_table(p: int) -> dict:
    """W(F_p) from <1> and <least non-residue>: all four classes."""
    ns = em.least_nonresidue(p)
    classes = sorted(
        ({"dim_mod2": r, "disc": d} for r in (0, 1) for d in (1, ns)),
        key=lambda c: (c["dim_mod2"], c["disc"]),
    )
    labels = [_fp_label(c, p) for c in classes]

    def cls_of(diag):
        return em.witt_invariants_fp([a % p for a in diag], p)

    add = [[_fp_label(cls_of(_fp_rep(x, p) + _fp_rep(y, p)), p) for y in classes] for x in classes]
    mul = [[_fp_label(cls_of([a * b for a in _fp_rep(x, p) for b in _fp_rep(y, p)]), p) for y in classes]
           for x in classes]
    two = cls_of([1, 1])
    return {
        "ring": f"fp:{p}",
        "group": "Z/2+Z/2" if two == cls_of([]) else "Z/4",
        "generators": ["<1>", f"<{ns}>"],
        "classes": labels,
        "add": add,
        "mul": mul,
    }


def _dyadic_label(sig: int, parity: int) -> str:
    if sig == 0:
        return "0" if parity == 0 else "<1,-2>"
    unit = 1 if sig > 0 else -1
    entries = [unit] * (abs(sig) - parity) + [2 * unit] * parity
    return "<" + ",".join(map(str, entries)) + ">"


def dyadic_ring_table(gens: list[int]) -> dict:
    """Table of one-dimensional generators <g> over Z[1/2]."""
    inv = [em.witt_invariants_dyadic([g]) for g in gens]
    labels = [_dyadic_label(c["signature"], c["parity"]) for c in inv]
    add = [[_dyadic_label(a["signature"] + b["signature"], a["parity"] ^ b["parity"]) for b in inv] for a in inv]
    mul = []
    for g in gens:
        row = []
        for h in gens:
            c = em.witt_invariants_dyadic([g * h])
            row.append(_dyadic_label(c["signature"], c["parity"]))
        mul.append(row)
    step = 0
    for c in inv:
        step = gcd(step, c["signature"])
    # sig_b <a> - sig_a <b> has signature 0 and parity par_a + par_b, so the
    # torsion class is reached iff two generators differ in parity
    torsion = len({c["parity"] for c in inv}) > 1
    out = {
        "ring": "dyadic",
        "group": ("Z+Z/2" if torsion else "Z") if step else ("Z/2" if torsion else "0"),
        "generators": labels,
        "classes": [_dyadic_label(s, b) for s, b in sorted({(c["signature"], c["parity"]) for c in inv})],
        "add": add,
        "mul": mul,
    }
    if step == 1:
        out["free_generator"] = "<1>"
    if torsion and step == 1:
        out["torsion_generator"] = "<1> - <2>"
    return out


def bott_documents() -> tuple[dict, dict]:
    """The expected ``bott verify`` and ``bott export`` documents.

    u = [[(z+1)/2, (z-1)/4], [z-1, (z+1)/2]] has det z, and p = u p0 u^-1
    is column 1 of u times row 1 of adj(u), divided by z.
    """
    z, zi, one = em.lp({(0, 1): 1}), em.lp({(0, -1): 1}), em.lp({(0, 0): 1})
    t, ti = em.lp({(1, 0): 1}), em.lp({(-1, 0): 1})
    zp1, zm1 = em.lp_add(z, one), em.lp_add(z, em.lp_scale(one, -1))
    a = em.lp_mul(em.lp_scale(em.lp_mul(zp1, zp1), Fraction(1, 4)), zi)
    b = em.lp_mul(em.lp_scale(em.lp_mul(zp1, zm1), Fraction(-1, 8)), zi)
    c = em.lp_mul(em.lp_scale(em.lp_mul(zm1, zp1), Fraction(1, 2)), zi)
    d = em.lp_add(one, em.lp_scale(a, -1))
    neg = lambda x: em.lp_scale(x, -1)  # noqa: E731
    m = [
        [em.lp_mul(b, em.lp_add(em.lp_add(t, ti), em.lp({(0, 0): -2}))),
         em.lp_add(a, em.lp_mul(em.lp_add(one, neg(a)), t))],
        [neg(em.lp_add(em.lp_add(one, neg(d)), em.lp_mul(d, ti))), neg(c)],
    ]

    def bar(x):
        return {(-i, -j): v for (i, j), v in x.items()}

    def relation(x):
        return "fixed" if bar(x) == x else "negated" if bar(x) == neg(x) else "neither"

    minus_m = all(bar(m[j][i]) == neg(m[i][j]) for i in range(2) for j in range(2))
    checks = ["u_invertible", "det_u_is_z", "p_idempotent", "trace_is_one", "p_conjugates_p0",
              "entries_match_p", "det_m_unit", "identity_substitution", "z1_collapses_m",
              "z1_collapses_p", "t1_shape", "t1_det_one", "zt1_is_symplectic"]
    verify = {
        "checks": {name: True for name in checks},
        "involution": {"a": relation(a), "b": relation(b), "c": relation(c), "d": relation(d),
                       "m_conj_transpose_is_minus_m": minus_m},
        "all_pass": True,
    }
    export = {"m": {"ring": {"ring": "laurent2"}, "entries": [[em.lp_json(x) for x in row] for row in m]}}
    return verify, export


# -- job list -----------------------------------------------------------------


def _unit_diag(ring: str, n: int, rng: random.Random) -> list[int]:
    if ring == "dyadic":
        return [rng.choice((1, -1, 2, -2)) for _ in range(n)]
    p = wl_witt._prime(ring)
    pool = [a for a in range(-6, 7) if a and (p is None or a % p)]
    return [rng.choice(pool) for _ in range(n)]


def _form_file(ring: str, gram: list[list]) -> dict:
    enc = (lambda x: x) if ring.startswith("fp:") else (lambda x: [int(x), 1])
    spec = {"ring": "fp", "p": wl_witt._prime(ring)} if ring.startswith("fp:") else {"ring": ring}
    return {"ring": spec, "epsilon": 1, "gram": [[enc(x) for x in row] for row in gram]}


def make_jobs(rng: random.Random, workdir: str) -> list[Job]:
    """Job list; input files go to ``workdir`` (absolute paths in argv)."""
    os.makedirs(workdir, exist_ok=True)
    files = {}

    def put(name, obj):
        path = os.path.join(workdir, name)
        files[path] = obj
        return path

    jobs: list[Job] = []

    def add(family, argv, expect):
        jobs.append(Job(len(jobs), family, argv, expect))

    for rnd in range(2):
        for ring in ("fp:5", "fp:7", "q", "dyadic"):
            diag = _unit_diag(ring, rng.randint(1, 5), rng)
            add("witt-class", ["witt", "class", "--ring", ring, "--diag=" + ",".join(map(str, diag))],
                ("doc", _class_json(ring, diag)))
        for ring in ("fp:11", "q", "dyadic"):
            d1, d2 = _unit_diag(ring, rng.randint(1, 4), rng), _unit_diag(ring, rng.randint(1, 4), rng)
            if rng.random() < 0.5:
                d2 = d1 + [1, -1]
            add("witt-equiv", ["witt", "equiv", "--ring", ring, "--diag=" + ",".join(map(str, d1)),
                               "--diag2=" + ",".join(map(str, d2))],
                ("doc", {"equivalent": _class_json(ring, d1) == _class_json(ring, d2)}))
        for ring in ("q", "dyadic"):
            n = rng.randint(3, 5)
            block = rng.choice([b for b in wl_witt._blocks(ring, n) if len(b) <= n])
            gram = wl_witt._dense(ring, 1, (n - len(block)) // 2, block, rng)
            path = put(f"form-{rnd}-{ring}.json", _form_file(ring, gram))
            add(f"witt-class-file-{ring}", ["witt", "class", "--file", path], ("doc", _class_json(ring, block)))
        p = rng.choice((3, 5, 7, 11, 13))
        add("witt-ring", ["witt", "ring", "--ring", f"fp:{p}"], ("doc", fp_ring_table(p)))
        add("witt-ring", ["witt", "ring", "--ring", "dyadic"], ("doc", dyadic_ring_table([1, 2, -1, -2])))
        add("witt-ring", ["witt", "ring", "--ring", "dyadic", "--gen", "1"], ("doc", dyadic_ring_table([1])))
        verify, export = bott_documents()
        add("bott-verify", ["bott", "verify"], ("doc", verify))
        add("bott-export", ["bott", "export"], ("doc", export))
        stab_jobs: list = []
        for r in (1, 2, 3):
            wl_stab._colimit_job(stab_jobs, rng, r, mixed=False)
        for r in (2, 3):
            wl_stab._colimit_job(stab_jobs, rng, r, mixed=True)
        for m in (3, 4):
            wl_stab._chain_job(stab_jobs, rng, m, planted=m == 4)
        for sj in stab_jobs:
            if sj.kind == "colimit":
                x = sj.inputs
                seq = {"prefix": [], "period": {"group": {"rank": x["rank"], "torsion": x["torsion"]},
                                                 "map": x["period"]}}
                groups = [{"rank": a, "torsion": []} for a, _ in x["prefix"]]
                seq["prefix"] = [{"group": g, "map": mat} for g, (_, mat) in zip(groups, x["prefix"])]
                path = put(f"seq-{rnd}-{sj.idx}.json", seq)
                add("stab-colim" if sj.uniform else "stab-colim-nonuniform",
                    ["stab", "colim", "--file", path], ("colimit", sj.expected))
            else:
                chain = {"nodes": [{"rank": d, "torsion": []} for d in sj.inputs["dims"]],
                         "maps": sj.inputs["maps"]}
                path = put(f"chain-{rnd}-{sj.idx}.json", chain)
                add("stab-exact", ["stab", "exact", "--file", path],
                    ("doc", {"exact": not sj.expected, "failures": sj.expected}))
        for base in ("q", "fp:5"):
            k, n, trials, seed = rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 4), rng.randint(0, 999)
            add("lift-demo", ["lift", "demo", "--base", base, "--k", str(k), "--n", str(n),
                              "--trials", str(trials), "--seed", str(seed)],
                ("doc", {"base": base, "k": k, "n": n, "trials": trials, "seed": seed,
                         "surjectivity_successes": trials, "injectivity_successes": trials,
                         "all_passed": True, "projection_convention": PROJECTION_CONVENTION}))
    for i, obj in enumerate(TRACEBACK_FORMS):
        add("malformed-traceback", ["witt", "class", "--file", put(f"bad-{i}.json", obj)], ("error", None))
    add("malformed", ["witt", "class", "--ring", "fp:4", "--diag", "1"], ("error", "IllFormed"))
    add("malformed", ["witt", "class", "--ring", "q", "--diag", "1,0"], ("error", "DegenerateForm"))
    add("malformed", ["stab", "colim", "--file", os.path.join(workdir, "absent.json")], ("error", "IllFormed"))
    add("malformed", ["lift", "demo", "--base", "q", "--k", "9", "--n", "2", "--trials", "1"],
        ("error", "IllFormed"))
    add("malformed", ["witt", "ring", "--ring", "q"], ("error", "SpecMismatch"))
    add("malformed", ["bott", "frob"], ("error", "IllFormed"))
    for path, obj in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return jobs


class Runner:
    """Starts one interpreter per job with the pinned flags.

    With ``trace_dir`` set, the child is ``cli_child.py`` instead of
    ``-m wittkit.cli``: it wraps the entry points, runs the same ``main``
    and leaves its spans in ``trace_dir``.
    """

    def __init__(self, jobs: list[Job], interpreter: list[str], env: dict, src: str):
        self.interpreter, self.env, self.src = interpreter, env, src
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        self.trace_dir: str | None = None
        self.calls = 0

    def run(self, job: Job):
        if self.trace_dir is None:
            cmd = self.interpreter + ["-m", "wittkit.cli"] + job.argv
        else:
            self.calls += 1
            spans = os.path.join(self.trace_dir, f"{self.calls}-{job.idx}.json")
            cmd = self.interpreter + [self.child, spans] + job.argv
        done = subprocess.run(cmd, cwd=self.src, env=self.env, capture_output=True, text=True, timeout=120)
        return (done.returncode, done.stdout)


def check(job: Job, result) -> str | None:
    code, out = result
    try:
        doc = json.loads(out)
    except ValueError:
        return f"exit {code}, stdout is not one JSON document: {out[:80]!r}"
    kind, want = job.expect
    if kind == "error":
        error = doc.get("error") if isinstance(doc, dict) else None
        if code != 2 or set(doc) != {"error"} or not isinstance(error, dict) \
                or set(error) != {"type", "message"} or not isinstance(error["message"], str):
            return f"exit {code} with {doc!r}, expected a typed refusal (exit 2)"
        if want is not None and error["type"] != want:
            return f"refused with {error['type']}, expected {want}"
        return None
    if code != 0:
        return f"exit {code} with {doc!r}"
    if kind == "colimit":
        return wl_stab.colimit_mismatch(want, doc)
    if doc != want:
        return f"document {doc!r} != expected {want!r}"
    return None


def explain(job: Job, failure: str) -> str | None:
    if job.family == "witt-class-file-dyadic" and failure.startswith(DYADIC_REFUSAL):
        return "witt-dyadic-refusal"
    if job.family == "malformed-traceback":
        return "cli-traceback"
    if job.family == "stab-colim-nonuniform" and failure.startswith(wl_stab.UNIFORM_COLIMIT):
        return "stab-nonuniform-colimit"
    return None
