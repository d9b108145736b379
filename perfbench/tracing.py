"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public module-level function of the seven
madic layers with a wrapper, in every madic module namespace that holds it
(so `spaces.incidence` and `dense_types.canonical_form` are wrapped where
they are called from, not only where they are defined).  A call that crosses
from one layer into another opens a span: function, start, end, parent span
and operation id, kept in flat arrays and written out at the end.  Calls
inside a layer are counted but open no span, so a layer's span covers its
own helpers.  Self time is a span's duration minus its child spans.

A leaf span -- one that opened no span of its own, such as each
`words.incidence` a reduction search makes -- is folded into a count and a
total duration per (parent span, function) when it ends, which keeps memory
bounded on searches that cross into words hundreds of thousands of times.
Self times stay exact: a leaf's self time is its duration.

Methods of value classes (Word.prefix, PartitionTable.piece, ...) are not
wrapped; their time counts toward the layer that called them.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("words", "patterns", "spaces", "reductions", "dense_types", "codec", "cli")
BENCH = 0  # layer id of the benchmark's own code, which opens operation spans


class Tracer:
    def __init__(self) -> None:
        self.layer_names = ("bench",) + LAYERS
        self.fn_names: list[str] = ["op"]
        self.fn_layer = array("i", [BENCH])
        self.calls = [0]
        self.cross: Counter = Counter()  # (caller layer, fn id) -> calls
        self.s_fn = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.folded: dict[tuple[int, int], list] = {}  # (parent, fn) -> [count, s]
        self.on = False
        self.layer = BENCH
        self.span = -1
        self.op_id = -1
        self.opened = 0  # spans opened so far, folded ones included
        self.sums: Counter = Counter()
        self.horizon_max = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping --

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "madic" or name.startswith("madic."))
        }
        wrappers: dict[int, object] = {}
        for lid, layer in enumerate(LAYERS, start=1):
            mod = modules[f"madic.{layer}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                fid = len(self.fn_names)
                self.fn_names.append(f"{layer}.{name}")
                self.fn_layer.append(lid)
                self.calls.append(0)
                wrappers[id(fn)] = self._wrap(fn, fid, lid, self._hook(layer, name))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._installed.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._installed):
            setattr(mod, name, obj)
        self._installed.clear()

    def _hook(self, layer: str, name: str):
        sums = self.sums
        if (layer, name) == ("words", "branch_meet_horizon"):
            def hook(r, dt):
                sums["branch_scan_letters"] += r
        elif (layer, name) == ("patterns", "comb_nodes"):
            def hook(r, dt):
                sums["teeth_built"] += len(r)
        elif (layer, name) == ("spaces", "verify_convergence"):
            def hook(r, dt):
                for rep in r:
                    sums["teeth_examined"] += rep.horizon + 1
                    sums["teeth_useful"] += (rep.k0 if rep.stable else rep.horizon) + 1
                    self.horizon_max = max(self.horizon_max, rep.horizon)
        elif (layer, name) == ("dense_types", "enumerate_types"):
            def hook(r, dt):
                sums["types_found"] += len(r)
        elif (layer, name) == ("reductions", "search_reduction"):
            def hook(r, dt):
                if r is None:
                    sums["exhausted_s"] += dt
                else:
                    sums["found"] += 1
        elif (layer, name) == ("codec", "dumps"):
            def hook(r, dt):
                sums["bytes_out"] += len(r.encode())
        else:
            return None
        return hook

    def _wrap(self, fn, fid: int, lid: int, hook):
        st = self
        calls = self.calls
        cross = self.cross
        s_fn, s_start, s_end = self.s_fn, self.s_start, self.s_end
        s_parent, s_op = self.s_parent, self.s_op
        folded = self.folded

        def wrapper(*args, **kwargs):
            if not st.on:
                return fn(*args, **kwargs)
            calls[fid] += 1
            caller = st.layer
            if caller == lid:
                if hook is None:
                    return fn(*args, **kwargs)
                t0 = perf_counter()
                r = fn(*args, **kwargs)
                hook(r, perf_counter() - t0)
                return r
            parent = st.span
            idx = len(s_fn)
            s_fn.append(fid)
            s_parent.append(parent)
            s_op.append(st.op_id)
            s_start.append(0.0)
            s_end.append(0.0)
            st.span, st.layer = idx, lid
            st.opened += 1
            opened = st.opened
            t0 = perf_counter()
            try:
                r = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.span, st.layer = parent, caller
                if st.opened == opened:  # a leaf: it is the last row
                    for col in (s_fn, s_parent, s_op, s_start, s_end):
                        col.pop()
                    agg = folded.get((parent, fid))
                    if agg is None:
                        folded[(parent, fid)] = [1, t1 - t0]
                    else:
                        agg[0] += 1
                        agg[1] += t1 - t0
                else:
                    s_start[idx] = t0
                    s_end[idx] = t1
            cross[(caller, fid)] += 1
            if hook is not None:
                hook(r, t1 - t0)
            return r

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- operations --

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.span = len(self.s_fn)
        self.s_fn.append(0)
        self.s_parent.append(-1)
        self.s_op.append(op_id)
        self.s_start.append(perf_counter())
        self.s_end.append(0.0)
        self.on = True

    def end_op(self) -> None:
        self.on = False
        self.s_end[self.span] = perf_counter()
        self.span = -1
        self.layer = BENCH

    # -- results --

    def layer_self_times(self) -> tuple[list[float], list[int]]:
        n = len(self.s_fn)
        child = [0.0] * n
        self_s = [0.0] * len(self.layer_names)
        spans = [0] * len(self.layer_names)
        for k in range(n):
            p = self.s_parent[k]
            if p >= 0:
                child[p] += self.s_end[k] - self.s_start[k]
        for (p, fid), (count, total) in self.folded.items():
            child[p] += total
            lid = self.fn_layer[fid]
            self_s[lid] += total
            spans[lid] += count
        for k in range(n):
            lid = self.fn_layer[self.s_fn[k]]
            self_s[lid] += self.s_end[k] - self.s_start[k] - child[k]
            spans[lid] += 1
        return self_s, spans

    def calls_of(self, qualified: str) -> int:
        return self.calls[self.fn_names.index(qualified)]

    def cross_calls(self, caller_layer: str, qualified: str) -> int:
        lid = self.layer_names.index(caller_layer)
        return self.cross[(lid, self.fn_names.index(qualified))]

    def write(self, path, ops: list[dict]) -> None:
        """Spans as columns, folded leaves as [parent, fn, count, seconds],
        and the tagged operations, as one JSON document."""
        doc = {
            "functions": self.fn_names,
            "function_layer": [self.layer_names[l] for l in self.fn_layer],
            "spans": {
                "fn": list(self.s_fn),
                "start": list(self.s_start),
                "end": list(self.s_end),
                "parent": list(self.s_parent),
                "op": list(self.s_op),
            },
            "folded_leaves": [
                [p, fid, count, total] for (p, fid), (count, total) in self.folded.items()
            ],
            "ops": ops,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
