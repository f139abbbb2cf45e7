"""In-memory spans around wittkit's public entry points.

The traced run wraps one entry point per layer from the outside, so the
program itself is untouched.  Class methods are replaced on the class, and
a module-level function is re-bound in every wittkit module that holds the
same function object, which catches ``from .x import f`` copies such as
``lifting.inv_sqrt_one_plus`` or ``cli.witt_class``.

A span is ``(name, start, end, parent_index, job_id)``; spans stay in a
list until the run ends.  A layer's self time is its span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import sys
import time

# metric prefix -> (module, class or None, attribute)
ENTRY_POINTS = {
    "matrices.mul": ("wittkit.matrices", "InvMatrix", "__mul__"),
    "matrices.inv_sqrt_one_plus": ("wittkit.matrices", None, "inv_sqrt_one_plus"),
    "matrices.det": ("wittkit.matrices", "InvMatrix", "det"),
    "matrices.det_and_inverse": ("wittkit.matrices", "InvMatrix", "det_and_inverse"),
    "matrices.conj_transpose": ("wittkit.matrices", "InvMatrix", "conj_transpose"),
    "forms.gram_form": ("wittkit.forms", "GramForm", "__init__"),
    "forms.diagonalize": ("wittkit.forms", None, "diagonalize"),
    "forms.witt_decompose": ("wittkit.forms", None, "witt_decompose"),
    "invariants.witt_class": ("wittkit.invariants", None, "witt_class"),
    "invariants.hilbert_symbol": ("wittkit.invariants", None, "hilbert_symbol"),
    "invariants.witt_ring_table": ("wittkit.invariants", None, "witt_ring_table"),
    "intlinalg.smith_normal_form": ("wittkit.intlinalg", None, "smith_normal_form"),
    "intlinalg.solve_int": ("wittkit.intlinalg", None, "solve_int"),
    "intlinalg.int_inverse_unimodular": ("wittkit.intlinalg", None, "int_inverse_unimodular"),
    "intlinalg.prime_factors": ("wittkit.intlinalg", None, "prime_factors"),
    "stabilization.colimit": ("wittkit.stabilization", None, "colimit"),
    "stabilization.exactness_check": ("wittkit.stabilization", None, "exactness_check"),
    "lifting.lift_involution": ("wittkit.lifting", None, "lift_involution"),
    "lifting.lift_unitary": ("wittkit.lifting", None, "lift_unitary"),
    "lifting.conjugating_unitary": ("wittkit.lifting", None, "conjugating_unitary"),
    "bott.build_bott": ("wittkit.bott", None, "build_bott"),
    "bott.verify_bott_suite": ("wittkit.bott", None, "verify_bott_suite"),
    "cli.main": ("wittkit.cli", None, "main"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.snf_max_bits = 0
        self.decompose_certified = 0
        self._restore: list = []

    def _wrap(self, name: str, fn, post=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if post is not None:
                post(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _post_snf(self, out) -> None:
        u, _, v = out
        bits = max((abs(x).bit_length() for m in (u, v) for row in m for x in row), default=0)
        self.snf_max_bits = max(self.snf_max_bits, bits)

    def _post_decompose(self, out) -> None:
        # raised calls leave a span but no result: they count as uncertified
        self.decompose_certified += bool(out.certified)

    def install(self) -> None:
        """Wrap every entry point that is importable; cli only once imported."""
        posts = {
            "intlinalg.smith_normal_form": self._post_snf,
            "forms.witt_decompose": self._post_decompose,
        }
        for name, (modname, clsname, attr) in ENTRY_POINTS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if clsname is not None:
                owner = getattr(mod, clsname)
                orig = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, orig, posts.get(name)))
                self._restore.append((owner, attr, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, posts.get(name))
            for other in list(sys.modules.values()):
                modname2 = getattr(other, "__name__", "")
                if modname2 != "wittkit" and not modname2.startswith("wittkit."):
                    continue
                if other.__dict__.get(attr) is orig:
                    setattr(other, attr, wrapped)
                    self._restore.append((other, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "snf_max_bits": self.snf_max_bits,
            "decompose_certified": self.decompose_certified,
        }


def layer_totals(spans: list) -> dict[str, list]:
    """name -> [calls, self seconds] for one process's span list."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - child_time[i]
    return out
