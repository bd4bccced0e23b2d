"""Layer timers installed from outside mttokit.

The tracer replaces public functions of an imported mttokit with wrappers,
in every mttokit module that bound them, so that calls made inside the
package are seen as well.  A timed layer records a span (name, start, end,
parent span, request) and adds its self time, the span's duration minus
the time its timed children took.  A counted layer only counts calls.
A layer entered again from inside itself (a recursive helper, or one
serializer calling another) is not split into a new span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute) wrapped with a span and self time.
TIMED = [
    ("model_operator.s_theta", "mttokit.model_operator", "s_theta"),
    ("model_operator.defect_spaces", "mttokit.model_operator", "defect_spaces"),
    ("model_operator.j_operators", "mttokit.model_operator", "j_operators"),
    ("mtto.build", "mttokit.mtto", "build"),
    ("mtto.is_mtto", "mttokit.mtto", "is_mtto"),
    ("mtto.recover_symbol", "mttokit.mtto", "recover_symbol"),
    ("mtto.zero_symbol_decompose", "mttokit.mtto", "zero_symbol_decompose"),
    ("mtto.mtto_dimension", "mttokit.mtto", "mtto_dimension"),
    ("laurent.multiply", "mttokit.laurent", "multiply"),
    ("model_space.det_degree", "mttokit.model_space", "det_degree"),
    ("numerics.rank", "mttokit.numerics", "rank"),
    ("numerics.nullspace", "mttokit.numerics", "nullspace"),
    ("numerics.solve_min_norm", "mttokit.numerics", "solve_min_norm"),
    ("cli.main", "mttokit.cli", "main"),
    ("suite.run_suite", "mttokit.suite", "run_suite"),
]
TIMED_INIT = [
    ("model_space.InnerFunction", "mttokit.model_space", "InnerFunction"),
    ("model_space.ModelSpaceBasis", "mttokit.model_space", "ModelSpaceBasis"),
]
SERIALIZE = ("serialize", "mttokit.serialize")
# (layer, module, attribute) whose calls are counted.
COUNTED = [
    ("model_space.kernel", "mttokit.model_space", "kernel"),
    ("model_space.kernel", "mttokit.model_space", "tilde_kernel"),
]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.spans = []
        self.request = None
        self._stack = []  # [layer, span id, time taken by timed children]
        self._next_id = 0
        self._bases = {}  # id -> basis, held so that ids are not reused

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.spans.clear()
        self._bases.clear()

    def snapshot(self):
        return dict(self.calls), dict(self.self_s)

    @property
    def distinct_bases(self) -> int:
        return len(self._bases)

    def timed(self, layer, fn, first_arg_is_basis=False):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            if first_arg_is_basis:
                self._bases.setdefault(id(args[0]), args[0])
            parent = stack[-1][1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.self_s[layer] += (t1 - t0) - frame[2]
                if stack:
                    stack[-1][2] += t1 - t0
                self.spans.append((span_id, parent, self.request, layer, t0, t1))

        return wrapper

    def counted(self, layer, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the layers of the mttokit already imported in this process."""
        mods = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "mttokit"}

        def rebind(original, wrapper):
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        for layer, modname, attr in TIMED:
            fn = getattr(mods[modname], attr)
            rebind(fn, self.timed(layer, fn, first_arg_is_basis=layer == "model_operator.s_theta"))
        for layer, modname, attr in COUNTED:
            fn = getattr(mods[modname], attr)
            rebind(fn, self.counted(layer, fn))
        layer, modname = SERIALIZE
        ser = mods[modname]
        for attr, fn in list(vars(ser).items()):
            if callable(fn) and getattr(fn, "__module__", None) == modname and not isinstance(fn, type):
                rebind(fn, self.timed(layer, fn))
        for layer, modname, attr in TIMED_INIT:
            cls = getattr(mods[modname], attr)
            cls.__init__ = self.timed(layer, cls.__init__)
        basis_cls = mods["mttokit.model_space"].ModelSpaceBasis
        basis_cls.coords = self.counted("model_space.coords", basis_cls.coords)
        laurent = mods["mttokit.laurent"]
        # MatLaurent.__init__ calls the shared base __init__, which VecLaurent
        # inherits; wrapping the two class attributes counts each object once.
        laurent.MatLaurent.__init__ = self.counted("laurent.objects", laurent.MatLaurent.__init__)
        laurent.VecLaurent.__init__ = self.counted("laurent.objects", laurent.VecLaurent.__init__)
        return self

    def write_spans(self, path, t_origin):
        """One JSON line per span, times in ms from t_origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, layer, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request, "layer": layer,
                    "start_ms": round((t0 - t_origin) * 1e3, 6), "end_ms": round((t1 - t_origin) * 1e3, 6),
                }) + "\n")
