"""In-process tracing of library layers, from outside the library.

`Tracer.patch()` replaces selected public functions of `phda` with
wrappers.  Because the library's modules import each other's functions by
name (`from .words import star`), a wrapper is bound into every `phda`
module that holds the original object, not only the defining module.

Spans (name, start, end, parent) are kept in flat arrays while a pass
runs; self time is derived from them afterwards.  Work counts are taken
at the same call boundaries.  Very hot constructors (`FaceWord`) and
union-find operations are counted without a span.  `is_tree` enumerates
executions in the private `unfolding._bounded_paths`, so that helper gets
a span of its own; a function missing from the library is skipped.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (module, attribute, count hook).  A hook gets (counts, args, result).
SPANS = [
    ("phda.words", "star", None),
    ("phda.homotopy", "partition_paths", lambda c, a, r: c.update(
        {"homotopy.partition_paths.paths_in": len(a[0]), "homotopy.partition_paths.classes_out": len(r)})),
    ("phda.homotopy", "elementary_neighbors", None),
    ("phda.homotopy", "classes_to", None),
    ("phda.homotopy", "find_shortcuts", None),
    ("phda.paths", "enumerate_paths", lambda c, a, r: c.update({"paths.enumerate_paths.paths": len(r)})),
    ("phda.paths", "step_moves", None),
    ("phda.unfolding", "unfold", lambda c, a, r: c.update({"unfolding.unfold.states": len(r.tree.cells)})),
    ("phda.unfolding", "is_tree", None),
    ("phda.unfolding", "_bounded_paths", lambda c, a, r: c.update({"unfolding._bounded_paths.paths": len(r[0])})),
    ("phda.lifting", "is_covering", None),
    ("phda.lifting", "is_open", None),
    ("phda.lifting", "construct_lift", None),
    ("phda.completion", "completion_of", lambda c, a, r: c.update(
        {"completion.completion_of.abstract_faces": len(r.reps), "completion.completion_of.cells_out": len(r.model.cells)})),
    ("phda.model", "saturate", lambda c, a, r: c.update({"model.saturate.entries": len(r)})),
    ("phda.model", "validate_phda", None),
    ("phda.colimits", "colimit", lambda c, a, r: c.update({"colimits.colimit.cells_out": len(r.model.cells)})),
    ("phda.jsonio", "load_model", None),
    ("phda.jsonio", "model_to_dict", None),
    ("phda.cli", "main", None),
]


def _layer_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('phda.')}.{attr}"


class Tracer:
    """Collects spans and counts for one traced pass at a time."""

    def __init__(self) -> None:
        self.names: list[str] = [_layer_name(m, a) for m, a, _ in SPANS]
        self.counts: Counter = Counter()
        self._reset_spans()

    def _reset_spans(self) -> None:
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = [-1]

    def _wrap(self, nid: int, fn, hook):
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            k = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patch(self):
        """Install the wrappers for the duration of the block, then restore."""
        self.counts = counts = Counter()
        self._reset_spans()
        undo: list[tuple[object, str, object]] = []

        def rebind(owner, attr: str, new) -> None:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        modules = [m for name, m in sorted(sys.modules.items()) if name == "phda" or name.startswith("phda.")]
        for nid, (module, attr, hook) in enumerate(SPANS):
            orig = getattr(sys.modules.get(module), attr, None)
            if orig is None:  # removed from the library: its metrics stay 0
                continue
            wrapper = self._wrap(nid, orig, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        rebind(m, name, wrapper)

        face_word = getattr(sys.modules.get("phda.words"), "FaceWord", None)
        union_find = getattr(sys.modules.get("phda.uf"), "UnionFind", None)
        if face_word is not None:
            init = face_word.__init__

            def counted_init(word, *args, **kwargs):
                counts["words.FaceWord.made"] += 1
                return init(word, *args, **kwargs)

            rebind(face_word, "__init__", counted_init)
        if union_find is not None:
            union, groups = union_find.union, union_find.groups

            def counted_union(uf, a, b):
                merged = union(uf, a, b)
                counts["uf.UnionFind.union.calls"] += 1
                counts["uf.UnionFind.union.merges"] += merged
                return merged

            def counted_groups(uf):
                counts["uf.UnionFind.groups.calls"] += 1
                return groups(uf)

            rebind(union_find, "union", counted_union)
            rebind(union_find, "groups", counted_groups)
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def collect(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per layer and call counts from the spans, then clear the spans."""
        n = len(self.ids)
        child = [0.0] * n
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        for k in range(n):
            p = parents[k]
            if p >= 0:
                child[p] += ends[k] - starts[k]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for k in range(n):
            nid = ids[k]
            self_s[nid] += ends[k] - starts[k] - child[k]
            calls[nid] += 1
        self._reset_spans()
        return dict(zip(self.names, self_s)), dict(zip(self.names, calls))
