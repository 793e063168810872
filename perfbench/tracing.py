"""Spans around the public calls into each layer, recorded from outside `src/`.

`Tracer.install()` replaces each instrumented function by a wrapper in every
loaded `schubert_fusion` module that holds it (modules import these names
directly, so patching one module would miss the others) and wraps the
`SpanBasis` methods on the class.  Spans are kept in memory as tuples
(id, parent, op, name, start, end) and written out by `write_spans`.
While `enabled` is false (during a benchmark's own checks) the wrappers
call straight through and record nothing.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) of every instrumented call; the span name is
# "<layer>.<attribute>", the layer being the module's last dotted part.
FUNCTIONS = (
    ("fock", "apply_current"),
    ("fusion", "build_module"),
    ("fusion", "build_submodule"),
    ("fusion", "exact_sequence_check"),
    ("fusion", "character"),
    ("fusion", "character_recursive"),
    ("schubert", "canonical_flag"),
    ("schubert", "flag_membership"),
    ("schubert", "group_act"),
    ("schubert", "random_group_element"),
    ("verlinde", "character_stabilization"),
    ("verlinde", "product_chain"),
)
SPANBASIS_METHODS = ("insert_reduced", "insert", "contains")
LAYERS = ("fock", "linalg", "fusion", "schubert", "verlinde", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1  # id of the benchmark operation being run
        self.enabled = True
        self.counters = defaultdict(int)

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self.op, name, start, end)
            if after is not None:
                after(result)
            return result

        return traced

    def begin_op(self, op):
        self.op = op
        self._tables = table_sizes()

    def end_op(self):
        """The operation's call returned: add the memo tables' growth during
        the call to the counters and record nothing until `enabled` is set
        again, so that checks which reuse the program's memos count nowhere."""
        for key, value in table_sizes().items():
            self.counters[key] += value - self._tables[key]
        self.enabled = False

    def _after_apply(self, state):
        self.counters["fock.apply_current.terms_out"] += len(state.coeffs)

    def _after_insert_reduced(self, row):
        if row is not None:
            c = self.counters
            c["linalg.insert_reduced.accepted"] += 1
            c["linalg.row_terms.sum"] += len(row)
            c["linalg.row_terms.max"] = max(c["linalg.row_terms.max"], len(row))

    def install(self):
        from schubert_fusion import linalg

        after = {"fock.apply_current": self._after_apply,
                 "linalg.insert_reduced": self._after_insert_reduced}
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("schubert_fusion") and m is not None]
        for layer, attr in FUNCTIONS:
            home = sys.modules[f"schubert_fusion.{layer}"]
            original = getattr(home, attr)
            name = f"{layer}.{attr}"
            wrapper = self.wrap(name, original, after.get(name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
        for attr in SPANBASIS_METHODS:
            name = f"linalg.{attr}"
            setattr(linalg.SpanBasis, attr,
                    self.wrap(name, getattr(linalg.SpanBasis, attr), after.get(name)))

    def summary(self) -> dict:
        """Per span name: [calls, busy seconds, self seconds]; plus counters."""
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names = {}
        for sid, _, _, name, start, end in self.spans:
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[sid]
        roots = sum(end - start for _, parent, _, _, start, end in self.spans
                    if parent < 0)
        return {"names": names, "counters": dict(self.counters),
                "spans": len(self.spans), "root_s": roots}

    def write_spans(self, path, **extra):
        with open(path, "a") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end,
                                     **extra}) + "\n")


def merge(summaries) -> dict:
    """Sum the summaries of several processes (the requests of one cli pass)."""
    out = {"names": {}, "counters": defaultdict(int), "spans": 0, "root_s": 0.0}
    for s in summaries:
        for name, (calls, busy, self_s) in s["names"].items():
            entry = out["names"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += self_s
        for key, value in s["counters"].items():
            if key.endswith(".max"):
                out["counters"][key] = max(out["counters"][key], value)
            else:
                out["counters"][key] += value
        out["spans"] += s["spans"]
        out["root_s"] += s["root_s"]
    out["counters"] = dict(out["counters"])
    return out


def table_sizes() -> dict:
    """Sizes of the module-level memo tables.

    A table that a later version of the program no longer has reads 0.
    """
    from schubert_fusion import fock, fusion

    peel = getattr(fusion, "_character_peeled", None)
    info = peel.cache_info() if hasattr(peel, "cache_info") else None
    return {"fock.blocks": len(getattr(fock, "_BLOCKS", ())),
            "fock.moves": len(getattr(fock, "_MOVES", ())),
            "fusion.peel.strata": info.currsize if info else 0,
            "fusion.peel.hits": info.hits if info else 0}
