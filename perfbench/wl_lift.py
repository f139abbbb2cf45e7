"""Workload ``lift``: nilpotent lifting round trips over B[x]/(x^k).

One job runs ``lift_involution``, ``lift_unitary``, the conjugated lift and
``conjugating_unitary`` on matrices made before timing.  Every round covers
the full grid B in {q, fp:5, fp:7}, k in 2..5, n in 2..5, INSTANCES times,
so the mix is the same for every seed and only the random matrices change.
"""

from __future__ import annotations

import random
from fractions import Fraction

import exactmath as em

BASES = ("q", "fp:5", "fp:7")
KS = (2, 3, 4, 5)
NS = (2, 3, 4, 5)
KNOWN_DEFECT_FAMILIES: set[str] = set()
INSTANCES = 3  # random inputs per (B, k, n), so each percentile falls among similar jobs


class Job:
    __slots__ = ("idx", "family", "base", "k", "n", "inputs")

    def __init__(self, idx, base, k, n, inputs):
        self.idx, self.base, self.k, self.n, self.inputs = idx, base, k, n, inputs
        self.family = f"{base}/k{k}/n{n}"


def _prime(base: str) -> int | None:
    return None if base == "q" else int(base.split(":")[1])


def _random_orthogonal(n: int, p: int | None, rng: random.Random) -> list[list]:
    """A signed permutation times n - 1 rotations by the angle with cosine
    5/13 in random coordinate planes: a random orthogonal matrix whose
    denominators are 13^(n-1) for every seed, so the size of the rationals,
    and with it the cost of a job, depends on (B, k, n) and not on the seed.
    13 is a unit mod 5 and mod 7, so the same matrices serve F_p."""
    one = Fraction(1) if p is None else 1
    c, s = (Fraction(5, 13), Fraction(12, 13)) if p is None else (5 * pow(13, -1, p) % p, 12 * pow(13, -1, p) % p)
    perm = rng.sample(range(n), n)
    q = [[(one * rng.choice((1, -1)) if perm[i] == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(n - 1):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        rot = [[one * (i2 == j2) for j2 in range(n)] for i2 in range(n)]
        rot[i][i], rot[j][j], rot[i][j], rot[j][i] = c, c, -sign * s, sign * s
        q = em.matmul(q, rot, p)
    return q


def _involution(n: int, p: int | None, rng: random.Random) -> list[list]:
    """Q^T diag(+-1) Q for a random orthogonal Q: symmetric, squares to I."""
    q = _random_orthogonal(n, p, rng)
    d = [[rng.choice((1, -1)) if i == j else 0 for j in range(n)] for i in range(n)]
    return em.matmul(em.matmul(em.transpose(q), d, p), q, p)


def _perturb(m: list[list], k: int, rng: random.Random) -> list[list]:
    """Series entries: m in degree 0, random small integers in degrees 1..k-1."""
    return [[[c] + [rng.randrange(-2, 3) for _ in range(k - 1)] for c in row] for row in m]


def make_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for base in BASES:
        p = _prime(base)
        for k in KS:
            for n in [n for n in NS for _ in range(INSTANCES)]:
                jbar = _involution(n, p, rng)
                alpha = _random_orthogonal(n, p, rng)
                inputs = {
                    "jbar": jbar,
                    "r": _perturb(jbar, k, rng),
                    "alpha": alpha,
                    "beta": _perturb(alpha, k, rng),
                }
                jobs.append(Job(len(jobs), base, k, n, inputs))
    return jobs


class Runner:
    """Turns plain inputs into wittkit objects before timing; runs one job."""

    def __init__(self, jobs: list[Job]):
        from wittkit import InvMatrix, RingSpec, SelfAdjInvolution

        self.prepared = {}
        for job in jobs:
            base = RingSpec.from_tag(job.base)
            spec = RingSpec.trunc_nil(base, job.k)
            x = job.inputs
            alpha = InvMatrix.from_rows(base, x["alpha"])
            # alpha is orthogonal, so alpha^T lifted as constants undoes it mod x
            alpha_up_t = InvMatrix.from_rows(spec, [[[c] for c in row] for row in em.transpose(x["alpha"])])
            self.prepared[job.idx] = (
                SelfAdjInvolution(InvMatrix.from_rows(base, x["jbar"])),
                InvMatrix.from_rows(spec, x["r"]),
                alpha,
                InvMatrix.from_rows(spec, x["beta"]),
                alpha_up_t,
            )
        self.SelfAdjInvolution = SelfAdjInvolution
        import wittkit.lifting

        self.lifting = wittkit.lifting  # looked up per call, so traced wrappers apply

    def run(self, job: Job):
        lifting = self.lifting
        jbar, r, alpha, beta, alpha_up_t = self.prepared[job.idx]
        lifted = lifting.lift_involution(jbar, r)
        gamma = lifting.lift_unitary(alpha, beta)
        nu = gamma * alpha_up_t
        other = self.SelfAdjInvolution(nu * lifted.j * nu.conj_transpose())
        conj = lifting.conjugating_unitary(lifted, other)
        return (lifted.j.cells, gamma.cells, other.j.cells, conj.cells)


def _same_over_base(p: int | None, a: list[list], b: list[list]) -> bool:
    norm = (lambda x: x % p) if p else Fraction
    return [[norm(x) for x in r] for r in a] == [[norm(x) for x in r] for r in b]


def check(job: Job, result) -> str | None:
    """Re-check every identity on the benchmark's own coefficient lists."""
    p = _prime(job.base)
    k, n = job.k, job.n
    j1, gamma, j2, conj = (list(map(list, m)) for m in result)
    ident = em.tp_identity(n, k, p)
    mul = lambda a, b: em.tp_mul(a, b, k, p)  # noqa: E731
    for name, j in (("lifted J", j1), ("conjugated J", j2)):
        if not em.tp_equal(mul(j, j), ident):
            return f"{name}: J^2 != I"
        if not em.tp_equal(em.transpose(j), j):
            return f"{name}: J* != J"
    if not _same_over_base(p, em.constant_terms(j1), job.inputs["jbar"]):
        return "lifted J does not reduce to the given involution"
    if not _same_over_base(p, em.constant_terms(j2), job.inputs["jbar"]):
        return "conjugated J does not reduce to the given involution"
    if not em.tp_equal(mul(gamma, em.transpose(gamma)), ident):
        return "lift_unitary: gamma gamma* != I"
    if not _same_over_base(p, em.constant_terms(gamma), job.inputs["alpha"]):
        return "lift_unitary: gamma does not reduce to alpha"
    if not em.tp_equal(mul(conj, em.transpose(conj)), ident):
        return "conjugating_unitary: not unitary"
    if not _same_over_base(p, em.constant_terms(conj), em.identity(n)):
        return "conjugating_unitary: not congruent to I"
    if not em.tp_equal(mul(conj, j1), mul(j2, conj)):
        return "conjugating_unitary: delta J1 != J2 delta"
    return None


def explain(job: Job, failure: str) -> str | None:
    return None
