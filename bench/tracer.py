"""Spans around calls into gisalg's layers, recorded from outside the package.

``Tracer.install`` replaces each public function named in ``WRAPPED`` by a
wrapper in every ``gisalg`` module that holds it (a function imported by
name is held by its importer too), counts constructions of ``Path`` and
``Element``, and ``uninstall`` puts the originals back.  A span is
``(id, name, start, end, parent id)``; spans are kept in memory, up to
``SPAN_CAP`` of them, and written out at the end.  Totals per function are
kept for every call, capped or not: calls, inclusive time, self time (the
span's time minus its children's) and, per caller, calls and time.
"""

import sys
import time
from collections import Counter

SPAN_CAP = 100_000

# (module, attribute, span name); the kernels module is whichever backend
# gisalg._backend selected
WRAPPED = [
    ("kernels", "mul", "kernels.mul"),
    ("kernels", "leq", "kernels.leq"),
    ("kernels", "rays", "kernels.rays"),
    ("kernels", "top", "kernels.top"),
    ("kernels", "suffix_of", "kernels.suffix_of"),
    ("kernels", "saturate", "kernels.saturate"),
    ("gisalg.elements", "multiply", "elements.multiply"),
    ("gisalg.elements", "natural_leq", "elements.natural_leq"),
    ("gisalg.elements", "up_set", "elements.up_set"),
    ("gisalg.elements", "top", "elements.top"),
    ("gisalg.elements", "enumerate_elements", "elements.enumerate_elements"),
    ("gisalg.subsemigroups", "membership", "subsemigroups.membership"),
    ("gisalg.subsemigroups", "generated", "subsemigroups.generated"),
    ("gisalg.subsemigroups", "bounded_elements", "subsemigroups.bounded_elements"),
    ("gisalg.cosets", "index_verdict", "cosets.index_verdict"),
    ("gisalg.cosets", "coset_representatives", "cosets.coset_representatives"),
    ("gisalg.cosets", "same_coset", "cosets.same_coset"),
    ("gisalg.cosets", "coset_of", "cosets.coset_of"),
    ("gisalg.conjugacy", "conjugator", "conjugacy.conjugator"),
    ("gisalg.graphs", "find_escape_circuit", "graphs.find_escape_circuit"),
    ("gisalg.graphs", "count_paths_from", "graphs.count_paths_from"),
    ("gisalg.graphs", "count_N", "graphs.count_N"),
    ("gisalg.graphs", "iter_paths", "graphs.iter_paths"),
    ("gisalg.oracle", "closure_saturate", "oracle.closure_saturate"),
    ("gisalg.oracle", "index_profile", "oracle.index_profile"),
    ("gisalg.cli", "main", "cli.main"),
    ("gisalg.cli", "load_graph", "cli.load_graph"),
]
GENERATORS = {"graphs.iter_paths"}
# classes whose constructions are counted, and one whose constructor is a span
COUNTED = [("gisalg.graphs", "Path", "graphs.Path.built"), ("gisalg.elements", "Element", "elements.Element.built")]
SPANNED_INIT = [("gisalg.oracle", "BoundedUniverse", "oracle.BoundedUniverse")]
NAMES = [name for _, _, name in WRAPPED + SPANNED_INIT]
# span name -> (count name, size of the call's result), added up per call
RESULT_SIZES = {"oracle.closure_saturate": ("oracle.closure.members", lambda r: len(r[0]))}


def _module(name):
    if name == "kernels":
        return sys.modules["gisalg._backend"].kernels
    return sys.modules[name]


def _counting(init, counts, label):
    def counted(obj, *args, **kwargs):
        counts[label] += 1
        init(obj, *args, **kwargs)

    return counted


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = [[None, 0.0, -1]]  # [name, child time, span id]; root frame
        self.next_id = 0
        self.spans = []
        self.calls = Counter()
        self.incl = Counter()
        self.self_time = Counter()
        self.edge_calls = Counter()  # (caller, callee) -> calls
        self.edge_time = Counter()  # (caller, callee) -> inclusive time
        self.counts = Counter()  # constructions, yields, sizes
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _new_frame(self, name):
        frame = [name, 0.0, self.next_id]
        self.next_id += 1
        return frame

    def _record(self, frame, parent, t0, t1, busy):
        name = frame[0]
        self.calls[name] += 1
        self.incl[name] += busy
        self.self_time[name] += busy - frame[1]
        edge = (parent[0], name)
        self.edge_calls[edge] += 1
        self.edge_time[edge] += busy
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[2], name, t0, t1, parent[2]))

    def wrap(self, name, fn):
        clock, stack, counts = self.clock, self.stack, self.counts
        size = RESULT_SIZES.get(name)

        def traced(*args, **kwargs):
            frame = self._new_frame(name)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent = stack[-1]
                parent[1] += t1 - t0
                self._record(frame, parent, t0, t1, t1 - t0)
            if size is not None:
                counts[size[0]] += size[1](result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """A span whose time is the time spent inside the generator's steps,
        not the consumer's time between them; each step counts as child
        time of the frame that asked for it."""
        clock, stack, counts = self.clock, self.stack, self.counts

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            frame = self._new_frame(name)
            parent = stack[-1]
            busy = 0.0
            start = end = None
            try:
                while True:
                    stack.append(frame)
                    t0 = clock()
                    if start is None:
                        start = t0
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        busy += end - t0
                        stack[-1][1] += end - t0
                    counts[name + ".yielded"] += 1
                    yield item
            finally:
                if start is not None:
                    self._record(frame, parent, start, end, busy)

        return traced

    # -- installation ------------------------------------------------------

    def _replace(self, orig, new):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gisalg" or mod_name.startswith("gisalg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._restore.append((mod, attr, orig))

    def install(self):
        for mod_name, attr, name in WRAPPED:
            orig = getattr(_module(mod_name), attr)
            wrap = self.wrap_generator if name in GENERATORS else self.wrap
            self._replace(orig, wrap(name, orig))
        for mod_name, cls_name, label in COUNTED:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = _counting(cls.__init__, self.counts, label)
        for mod_name, cls_name, name in SPANNED_INIT:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self.wrap(name, cls.__init__)

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per function: calls, inclusive and self milliseconds; per
        caller/callee pair: calls and milliseconds."""
        return {
            "functions": {
                n: {
                    "calls": self.calls[n],
                    "ms": self.incl[n] * 1e3,
                    "self_ms": self.self_time[n] * 1e3,
                }
                for n in sorted(self.calls)
            },
            "edges": [
                {"caller": a, "callee": b, "calls": self.edge_calls[(a, b)], "ms": self.edge_time[(a, b)] * 1e3}
                for a, b in sorted(self.edge_calls, key=lambda e: (str(e[0]), e[1]))
            ],
            "counts": dict(self.counts),
            "spans_kept": len(self.spans),
            "spans_total": self.next_id,
        }
