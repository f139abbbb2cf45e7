"""Shows that every oracle of the benchmark rejects a corrupted answer.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

For each workload it takes real answers from wittkit, checks that the
oracle accepts them, then corrupts one field at a time and checks that the
oracle names the fault.  Exits 1 if any oracle lets a corrupted answer
through.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]
sys.dont_write_bytecode = True

import wl_cli  # noqa: E402
import wl_lift  # noqa: E402
import wl_stab  # noqa: E402
import wl_witt  # noqa: E402


def _bump(x):
    """A different scalar, or a series with a different constant term."""
    return x + 1 if not isinstance(x, tuple) else (x[0] + 1,) + x[1:]


def _set(grid, i, j, value):
    rows = [list(r) for r in grid]
    rows[i][j] = value
    return tuple(tuple(r) for r in rows)


def lift_cases():
    jobs = wl_lift.make_jobs(random.Random(0))
    job = next(j for j in jobs if j.base == "q" and j.k == 3 and j.n == 3)
    good = wl_lift.Runner([job]).run(job)
    yield "lift: true answer", wl_lift.check(job, good), False
    j1, gamma, j2, conj = good
    yield "lift: lifted J changed in degree 1", wl_lift.check(
        job, (_set(j1, 0, 1, (j1[0][1][0], j1[0][1][1] + 1) + j1[0][1][2:]), gamma, j2, conj)), True
    yield "lift: gamma changed", wl_lift.check(job, (j1, _set(gamma, 1, 1, _bump(gamma[1][1])), j2, conj)), True
    yield "lift: conjugator replaced by identity", wl_lift.check(
        job, (j1, gamma, j2, tuple(tuple(r) for r in wl_lift.em.tp_identity(3, 3, None)))), True
    yield "lift: conjugator changed in degree 2", wl_lift.check(
        job, (j1, gamma, j2, _set(conj, 2, 0, conj[2][0][:2] + (conj[2][0][2] + 1,)))), True


def witt_cases():
    jobs = wl_witt.make_jobs(random.Random(0))
    picks = [next(j for j in jobs if j.family == f) for f in ("sym-fp", "sym-q", "sym-dyadic", "skew-q")]
    picks.append(next(j for j in jobs if j.family == "sym-q" and j.n == 6))
    runner = wl_witt.Runner(picks)
    for job in picks:
        good = runner.run(job)
        cls, equiv, rank, certified, basis, aniso, audit = good
        tag = f"witt {job.family} n={job.n}"
        yield f"{tag}: true answer", wl_witt.check(job, good), False
        wrong_cls = dict(cls)
        key = "disc" if "disc" in cls else "parity"
        wrong_cls[key] = cls[key] * -1 if key == "disc" else 1 - cls[key]
        yield f"{tag}: class changed", wl_witt.check(job, (wrong_cls, *good[1:])), True
        yield f"{tag}: equivalence flipped", wl_witt.check(job, (cls, not equiv, *good[2:])), True
        if rank:
            yield f"{tag}: one plane fewer", wl_witt.check(job, (cls, equiv, rank - 1, *good[3:])), True
        yield f"{tag}: basis entry changed", wl_witt.check(
            job, (cls, equiv, rank, certified, _set(basis, 0, 0, _bump(basis[0][0])), aniso, audit)), True
        yield f"{tag}: audit changed", wl_witt.check(
            job, (*good[:6], _set(audit, 0, 0, _bump(audit[0][0])))), True
    # <1,-2> is indefinite and anisotropic over Q: a certified remainder of
    # Witt index 0 is right, while the same certificate on H + <1,-2> hides a plane
    one, zero, minus_two = Fraction(1), Fraction(0), Fraction(-2)
    block = [1, -2]
    aniso = ((one, zero), (zero, minus_two))
    job = wl_witt.Job(idx=0, family="sym-q", ring="q", eps=1, n=2, h=0, block=block,
                      gram=[list(r) for r in aniso], partner=None, equiv=True, certify=False,
                      expected_class=wl_witt.witt_class_json("q", 1, block))
    true = (job.expected_class, True, 0, True, ((one, zero), (zero, one)), aniso, aniso)
    yield "witt: certified indefinite anisotropic remainder", wl_witt.check(job, true), False
    gram = wl_witt.em.block_diag([wl_witt.em.hyperbolic_gram(1, 1), [list(r) for r in aniso]])
    gram = tuple(tuple(Fraction(x) for x in r) for r in gram)
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))
    job = wl_witt.Job(idx=0, family="sym-q", ring="q", eps=1, n=4, h=1, block=block,
                      gram=[list(r) for r in gram], partner=None, equiv=True, certify=False,
                      expected_class=wl_witt.witt_class_json("q", 1, block))
    fake = (job.expected_class, True, 0, True, ident, gram, gram)
    yield "witt: remainder with a hidden plane claimed certified", wl_witt.check(job, fake), True


def stab_cases():
    jobs = wl_stab.make_jobs(random.Random(0))
    runner = wl_stab.Runner(jobs)
    colim = next(j for j in jobs if j.kind == "colimit" and j.uniform and j.expected["per_prime_rank"]
                 and j.expected["torsion"])
    good = runner.run(colim)
    yield "stab colimit: true answer", wl_stab.check(colim, good), False
    yield "stab colimit: rank changed", wl_stab.check(colim, {**good, "rank": good["rank"] + 1}), True
    yield "stab colimit: prime dropped", wl_stab.check(colim, {**good, "inverted_primes": good["inverted_primes"][1:]}), True
    yield "stab colimit: torsion changed", wl_stab.check(colim, {**good, "torsion": good["torsion"] + [2]}), True
    mixed = next(j for j in jobs if j.kind == "colimit" and not j.uniform)
    got = runner.run(mixed)
    yield "stab colimit: uniform answer to a two-prime-set system", wl_stab.check(mixed, got), True
    wrong = wl_stab.check(mixed, {**got, "rank": got["rank"] + 1})
    yield "stab colimit: wrong rank on a two-prime-set system not blamed on the known defect", \
        wrong if wl_stab.explain(mixed, wrong) is None else None, True
    exact = next(j for j in jobs if j.kind == "exact" and j.expected)
    yield "stab exact: true answer", wl_stab.check(exact, runner.run(exact)), False
    yield "stab exact: break missed", wl_stab.check(exact, []), True
    yield "stab exact: break moved", wl_stab.check(exact, [x + 1 for x in exact.expected]), True


def cli_cases():
    cache = os.path.join(os.getcwd(), ".perfbench_cache")
    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        jobs = wl_cli.make_jobs(random.Random(0), tmp)
        for job in jobs:
            kind, want = job.expect
            if kind == "doc":
                doc = json.dumps(want, indent=2) + "\n"
                yield f"cli {job.family}: expected document", wl_cli.check(job, (0, doc)), False
                yield f"cli {job.family}: exit 1", wl_cli.check(job, (1, doc)), True
                corrupt = dict(want)
                key = sorted(corrupt)[0]
                corrupt[key] = [corrupt[key]]
                yield f"cli {job.family}: field {key} changed", wl_cli.check(job, (0, json.dumps(corrupt))), True
                yield f"cli {job.family}: two documents", wl_cli.check(job, (0, doc + doc)), True
            elif kind == "error":
                doc = json.dumps({"error": {"type": want or "IllFormed", "message": "bad input"}})
                yield f"cli {job.family}: typed refusal", wl_cli.check(job, (2, doc)), False
                yield f"cli {job.family}: traceback", wl_cli.check(job, (1, "")), True
                yield f"cli {job.family}: refusal with exit 0", wl_cli.check(job, (0, doc)), True
        dyadic = next(j for j in jobs if j.family == "witt-class-file-dyadic")
        for kind, known in (("OracleInconclusive", True), ("DegenerateForm", False)):
            refusal = json.dumps({"error": {"type": kind, "message": "refused"}})
            verdict = wl_cli.check(dyadic, (2, refusal))
            blamed = wl_cli.explain(dyadic, verdict) == "witt-dyadic-refusal"
            yield f"cli witt-class-file-dyadic: {kind} refusal {'is' if known else 'is not'} the known one", \
                None if blamed == known else f"{verdict} explained as {wl_cli.explain(dyadic, verdict)}", False


def main() -> int:
    bad = 0
    for cases in (lift_cases, witt_cases, stab_cases, cli_cases):
        for name, verdict, should_fail in cases():
            ok = (verdict is not None) == should_fail
            bad += not ok
            if not ok or "cli" not in name:
                print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict or 'accepted'}"[:160])
    print("every oracle rejects its corrupted answers" if not bad else f"{bad} oracle check(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
