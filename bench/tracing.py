"""Spans around calls into the library's layers, recorded from outside
the library.

``Recorder.install`` rebinds each target function to a wrapper in every
``formalconn`` module that holds it (the defining module and every
``from``-import), and replaces methods on their classes.  Each span
keeps its id, the id of the span that caused it, the item id, the
layer name, start and end (ns), its self time (duration minus the
durations of its direct child spans) and whether it raised.  Spans stay
in memory until ``uninstall``; ``totals`` folds them into per-layer
calls, self time and raised counts.
"""

import itertools
import sys
import time

# (module, attribute, layer).  "Class.method" names a method.
TARGETS = [
    ("formalconn.series", "LaurentScalar.__mul__", "series.mul"),
    ("formalconn.series", "LaurentScalar.__rmul__", "series.mul"),
    ("formalconn.series", "LaurentScalar.inverse", "series.inverse"),
    ("formalconn.matrices", "LaurentMatrix.__mul__", "matrices.mul"),
    ("formalconn.matrices", "LaurentMatrix.__rmul__", "matrices.mul"),
    ("formalconn.matrices", "LaurentMatrix.inverse", "matrices.inverse"),
    ("formalconn.linalg", "rref", "linalg"),
    ("formalconn.linalg", "ksolve", "linalg"),
    ("formalconn.linalg", "knullspace", "linalg"),
    ("formalconn.linalg", "charpoly", "linalg"),
    ("formalconn.polys", "kpoly_factor", "polys.kpoly_factor"),
    ("formalconn.polys", "charpoly_series", "polys.charpoly_series"),
    ("formalconn.polys", "hensel_lift", "polys.hensel_lift"),
    ("formalconn.parahoric", "filtration_degree", "parahoric.filtration_degree"),
    ("formalconn.omodule", "column_echelon", "omodule.column_echelon"),
    ("formalconn.strata", "split_stratum", "strata.split_stratum"),
    ("formalconn.strata", "is_regular", "strata.is_regular"),
    ("formalconn.torus", "tame_corestriction", "torus.tame_corestriction"),
    ("formalconn.torus", "graded_ad_image_solve", "torus.graded_ad_image_solve"),
    ("formalconn.connections", "gauge_transform", "connections.gauge_transform"),
    ("formalconn.connections", "fundamental_stratum", "connections.fundamental_stratum"),
    ("formalconn.connections", "split_connection", "connections.split_connection"),
    ("formalconn.connections", "_pure_block_reduce", "connections.pure_block_reduce"),
    ("formalconn.connections", "diagonalize", "connections.diagonalize"),
    ("formalconn.formal_types", "orbit_equivalent", "formal_types.orbit_equivalent"),
    ("formalconn.formal_types", "validate_formal_type", "formal_types.validate_formal_type"),
    ("formalconn.moduli", "assemble_global", "moduli.assemble_global"),
    ("formalconn.moduli", "moment_map", "moduli.moment_map"),
    ("formalconn.moduli", "orbit_dimensions", "moduli.orbit_dimensions"),
    ("formalconn.moduli", "check_framing", "moduli.check_framing"),
]

# Rebound only in the named module: the fundamental test as the slope
# scan calls it, one call per scan candidate.
LOCAL_TARGETS = [
    ("formalconn.strata", "is_fundamental", "strata.is_fundamental", "formalconn.connections"),
]


class Recorder:
    def __init__(self):
        self.item = None
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    def _wrap(self, fn, layer):
        spans, stack, ids, clock, rec = self.spans, self._stack, self._ids, \
            time.perf_counter_ns, self

        def traced(*args, **kwargs):
            frame = [next(ids), 0]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                spans.append((frame[0], parent, rec.item, layer, start, end,
                              duration - frame[1], raised))

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = fn.__doc__
        return traced

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "formalconn" or name.startswith("formalconn."))]
        wrappers = {}
        for mod_name, attr, layer in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, layer)
                self._rebind(cls, meth, wrappers[id(fn)])
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(fn, layer)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._rebind(m, name, wrapper)
        for mod_name, attr, layer, where in LOCAL_TARGETS:
            fn = getattr(sys.modules[mod_name], attr)
            target = sys.modules[where]
            for name, value in list(vars(target).items()):
                if value is fn:
                    self._rebind(target, name, self._wrap(fn, layer))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def totals(spans):
    """{layer: [calls, self_ns, raised]} over the given spans."""
    out = {}
    for span in spans:
        layer, self_ns, raised = span[3], span[6], span[7]
        acc = out.setdefault(layer, [0, 0, 0])
        acc[0] += 1
        acc[1] += self_ns
        acc[2] += raised
    return out


def write_spans(path, spans):
    with open(path, "w") as fh:
        fh.write("id,parent,item,layer,start_ns,end_ns,self_ns,raised\n")
        for span in spans:
            fh.write("%d,%d,%s,%s,%d,%d,%d,%d\n" % span)
