"""Workload ``stab``: colimits of eventually-periodic systems and exactness.

A period map is diag(d_1..d_rho) + N (N nilpotent) on the free part,
conjugated by a random unimodular matrix, plus a diagonal map on the
torsion factors.  Its limit is known: Z[1/d_1] + ... + Z[1/d_rho] plus the
part of each torsion factor prime to its multiplier.  A chain is split
exact by construction (each map carries a complement isomorphically onto
the next kernel), moved by random unimodular changes of basis, with a
planted break in half of the chains.

Sizes are kept where one job cannot set the run length, because
``smith_normal_form`` coefficients explode (ROADMAP item 3): ranks stop at
6 (at rank 7 a single job took 0.8-15 s), multipliers are squarefree and
changes of basis are n shears by +-1 (with squared primes or 2n shears by
+-1, +-2, single rank-6 jobs took 1.6-97 s), there are at most three
torsion factors (see MAX_TORSION_FACTORS) and they grow by 2 at most,
and period maps with two prime sets stop at rank 4 (at rank 6 one in
seven took 0.1-0.9 s against about 2 ms for the rest).  Each round holds
COLIMITS_PER_RANK systems per rank and CHAINS_PER_LENGTH chains per
length, so that the mix, not a few rare slow jobs, sets the throughput.
"""

from __future__ import annotations

import math
import random

import exactmath as em

PRIME_SETS = ((), (2,), (3,), (5,))
COLIMITS_PER_RANK = 96
MIXED_MAX_RANK = 4
# With four torsion factors, 4 jobs in 26880 (seeds 1-40) took 0.09-1.5 s
# against at most 25 ms for the rest, each enough to halve a run's jobs/s.
MAX_TORSION_FACTORS = 3
CHAINS_PER_LENGTH = 48
UNIFORM_COLIMIT = "colimit Z[1/S]^rho"
# Period maps whose multipliers have different prime sets meet the known
# defect of ROADMAP item 3, so they run outside the timed loop.
KNOWN_DEFECT_FAMILIES = {f"colimit-nonuniform-r{r}" for r in range(1, 7)}


class Job:
    __slots__ = ("idx", "family", "kind", "inputs", "expected", "uniform")

    def __init__(self, **kw):
        for key, value in kw.items():
            setattr(self, key, value)


def _multiplier(primes: tuple, rng: random.Random) -> int:
    return rng.choice((1, -1)) * math.prod(primes)


def _unimodular(n: int, rng: random.Random):
    return em.random_unimodular(n, rng, shears=n, steps=(-1, 1))


def _conjugate(m: list[list[int]], rng: random.Random) -> list[list[int]]:
    u, ui = _unimodular(len(m), rng)
    return em.matmul(em.matmul(u, m), ui)


def _colimit_job(jobs, rng, r, mixed, multipliers=None, ntors=None):
    if multipliers is None:
        rho = r if mixed else rng.randint(max(1, r - 2), r)
        if mixed:  # two prime sets, both used
            pair = rng.sample(PRIME_SETS, 2)
            sets = pair + [rng.choice(pair) for _ in range(rho - 2)]
            rng.shuffle(sets)
        else:
            sets = [rng.choice(PRIME_SETS)] * rho
        multipliers = [_multiplier(s, rng) for s in sets]
    rho = len(multipliers)
    free = [[0] * r for _ in range(r)]
    for i, d in enumerate(multipliers):
        free[i][i] = d
    for i in range(rho, r):  # strictly upper triangular, hence nilpotent
        for j in range(i + 1, r):
            free[i][j] = rng.randint(-2, 2)
    free = _conjugate(free, rng)
    if ntors is None:
        ntors = rng.randint(0, MAX_TORSION_FACTORS)
    torsion, mults = [], []
    e = rng.choice((2, 3, 4, 6))
    for _ in range(ntors):
        torsion.append(e)
        mults.append(rng.choice((1, -1, 2, 3, 0, 5)))
        e *= rng.choice((1, 2))
    n = r + ntors
    period = [[0] * n for _ in range(n)]
    for i in range(r):
        period[i][:r] = free[i]
    for j, c in enumerate(mults):
        period[r + j][r + j] = c % torsion[j]
    prefix = []
    groups = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
    for i, a in enumerate(groups):
        rows = groups[i + 1] if i + 1 < len(groups) else n
        prefix.append((a, [[rng.randint(-3, 3) for _ in range(a)] for _ in range(rows)]))
    survivors = []
    for order, c in zip(torsion, mults):
        kept = order
        for p in em.factorize(order):
            if c % p == 0:
                while kept % p == 0:
                    kept //= p
        survivors.append(kept)
    per_prime: dict[int, int] = {}
    for d in multipliers:
        for p in em.factorize(d):
            per_prime[p] = per_prime.get(p, 0) + 1
    expected = {"rank": rho, "per_prime_rank": per_prime, "torsion": em.invariant_factors(survivors)}
    uniform = all(count == rho for count in per_prime.values())
    family = f"colimit-r{r}" if uniform else f"colimit-nonuniform-r{r}"
    jobs.append(Job(idx=len(jobs), family=family, kind="colimit",
                    inputs={"rank": r, "torsion": torsion, "period": period, "prefix": prefix},
                    expected=expected, uniform=uniform))


def _chain_job(jobs, rng, nmaps, planted):
    k = [rng.randint(0, 1)] + [rng.randint(1, 2) for _ in range(nmaps)]
    tail = rng.randint(0, 1)
    dims = [k[i] + k[i + 1] for i in range(nmaps)] + [k[nmaps] + tail]
    maps = []
    for i in range(nmaps):
        w, _ = _unimodular(k[i + 1], rng)
        m = [[0] * dims[i] for _ in range(dims[i + 1])]
        for a in range(k[i + 1]):  # complement C_i onto kernel K_{i+1}
            m[a][k[i]:] = w[a]
        maps.append(m)
    failures = []
    if planted:
        t = rng.randint(1, nmaps - 1)
        col = k[t - 1] + rng.randrange(k[t])
        if rng.random() < 0.5:
            scale = rng.choice((2, 3))  # image becomes a proper sublattice of the kernel at t
            failures = [t]
        else:
            scale = 0  # also enlarges the kernel at t - 1
            failures = [t - 1, t] if t > 1 else [t]
        for row in maps[t - 1]:
            row[col] *= scale
    bases = [_unimodular(d, rng) for d in dims]
    moved = [em.matmul(em.matmul(bases[i + 1][0], m), bases[i][1]) if dims[i] and dims[i + 1] else m
             for i, m in enumerate(maps)]
    jobs.append(Job(idx=len(jobs), family=f"exact-m{nmaps}", kind="exact",
                    inputs={"dims": dims, "maps": moved}, expected=failures, uniform=True))


def make_jobs(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    for r in range(1, 7):
        for i in range(COLIMITS_PER_RANK):
            _colimit_job(jobs, rng, r, mixed=2 <= r <= MIXED_MAX_RANK and i % 3 == 0)
    _colimit_job(jobs, rng, 2, mixed=True, multipliers=[2, 1], ntors=0)
    _colimit_job(jobs, rng, 2, mixed=True, multipliers=[2, 3], ntors=0)
    for m in range(3, 7):
        for i in range(CHAINS_PER_LENGTH):
            _chain_job(jobs, rng, m, planted=i % 2 == 1)
    return jobs


def build_seq(inputs: dict, stabilization):
    """The GroupSeq of a colimit job (also used to write CLI input files)."""
    FgAbGroup, GroupHom = stabilization.FgAbGroup, stabilization.GroupHom
    pg = FgAbGroup.of(inputs["rank"], inputs["torsion"])
    homs = []
    groups = [FgAbGroup(a) for a, _ in inputs["prefix"]] + [pg]
    for i, (_, mat) in enumerate(inputs["prefix"]):
        homs.append(GroupHom(groups[i], groups[i + 1], tuple(map(tuple, mat))))
    return stabilization.GroupSeq(tuple(homs), GroupHom(pg, pg, tuple(map(tuple, inputs["period"]))))


class Runner:
    def __init__(self, jobs: list[Job]):
        import wittkit.stabilization as stabilization

        self.stabilization = stabilization
        self.prepared = {}
        for job in jobs:
            if job.kind == "colimit":
                self.prepared[job.idx] = build_seq(job.inputs, stabilization)
            else:
                groups = [stabilization.FgAbGroup(d) for d in job.inputs["dims"]]
                self.prepared[job.idx] = [
                    stabilization.GroupHom(groups[i], groups[i + 1], tuple(map(tuple, m)))
                    for i, m in enumerate(job.inputs["maps"])
                ]

    def run(self, job: Job):
        x = self.prepared[job.idx]
        if job.kind == "colimit":
            return self.stabilization.colimit(x).to_json()
        return self.stabilization.exactness_check(x)


def colimit_mismatch(expected: dict, got: dict) -> str | None:
    claimed = {p: got["rank"] for p in got["inverted_primes"]}
    if got["rank"] == expected["rank"] and claimed == expected["per_prime_rank"] \
            and list(got["torsion"]) == expected["torsion"]:
        return None
    limit = f"the limit has rank {expected['rank']}, per-prime ranks {expected['per_prime_rank']}, " \
            f"torsion {expected['torsion']}"
    if got["rank"] == expected["rank"] and list(got["torsion"]) == expected["torsion"] \
            and got["inverted_primes"] == sorted(expected["per_prime_rank"]):
        # the shape of the known defect: every prime of any multiplier inverted on the whole rank
        return f"{UNIFORM_COLIMIT} {got} but {limit}"
    return f"colimit {got} but {limit}"


def check(job: Job, result) -> str | None:
    if job.kind == "colimit":
        return colimit_mismatch(job.expected, result)
    if result != job.expected:
        return f"exactness failures {result}, planted {job.expected}"
    return None


def explain(job: Job, failure: str) -> str | None:
    if job.kind == "colimit" and not job.uniform and failure.startswith(UNIFORM_COLIMIT):
        return "stab-nonuniform-colimit"
    return None
