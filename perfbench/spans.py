"""In-memory span tracer for the dressedspin layers.

Each traced public function is replaced by a wrapper at every module
attribute it is bound under (``bessel_j`` lives in ``special`` and is
imported into ``effective``, ``analysis`` and the package namespace), so a
call is recorded whichever name the caller used.  A span is (name, start,
end, parent span); all spans of one traced pass share the tracer's run id.
Spans are kept in flat arrays while the pass runs and written out once at
the end.  ``restore`` puts every original binding back.
"""

from array import array
import functools
import importlib
import sys
import time

import numpy as np

# (module, function) pairs wrapped by the tracer; the span name is "module.function".
TRACED = (
    ("special", "bessel_j"),
    ("special", "f_aux"),
    ("special", "g_func"),
    ("effective", "rectified_field"),
    ("effective", "floquet_first_order"),
    ("propagate", "propagate_spin_half"),
    ("propagate", "propagate_bloch_spin1"),
    ("propagate", "monodromy_quasienergy"),
    ("propagate", "analytic_coherences"),
    ("analysis", "run_scan"),
    ("analysis", "extract_frequency"),
    ("analysis", "calibrate"),
    ("fitting", "least_squares"),
    ("config", "validate"),
    ("config", "dimensionless"),
    ("configfile", "load_config"),
    ("cli", "main"),
)


PACKAGE = "dressedspin"


class Tracer:
    """Records one span per call of every function in TRACED.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original bindings.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name_idx = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.fit_iterations = 0  # summed FitResult.iterations of least_squares
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end
        clock = time.perf_counter
        count_iterations = name.endswith(".least_squares")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_idx.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count_iterations:
                self.fit_iterations += result.iterations
            return result

        return wrapper

    @staticmethod
    def _modules():
        return [m for k, m in list(sys.modules.items()) if m is not None and k.split(".")[0] == PACKAGE]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = [(importlib.import_module(f"{PACKAGE}.{mod}"), mod, attr) for mod, attr in TRACED]
        modules = self._modules()
        for module, mod, attr in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(f"{mod}.{attr}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def restore(self):
        while self._patched:
            m, key, original = self._patched.pop()
            setattr(m, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def arrays(self):
        return (
            np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path):
        name_idx, parent, start, end = self.arrays()
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name_idx=name_idx,
            parent=parent,
            start=start,
            end=end,
        )

    def summary(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        name_idx, parent, start, end = self.arrays()
        own = self_times(parent, start, end)
        calls = np.bincount(name_idx, minlength=len(self.names))
        self_s = np.bincount(name_idx, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}


def self_times(parent, start, end):
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans (the union of their intervals, clipped to the
    parent's)."""
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    own = end - start
    children = np.flatnonzero(parent >= 0)
    if children.size == 0:
        return own
    children = children[np.lexsort((start[children], parent[children]))]
    p_of = parent[children]
    lo = np.maximum(start[children], start[p_of]).tolist()
    hi = np.minimum(end[children], end[p_of]).tolist()
    covered = np.zeros_like(own)
    cur_parent, reach, total = -1, 0.0, 0.0
    for p, a, b in zip(p_of.tolist(), lo, hi):
        if p != cur_parent:
            if cur_parent >= 0:
                covered[cur_parent] = total
            cur_parent, reach, total = p, a, 0.0
        if b > reach:
            total += b - max(a, reach)
            reach = b
    covered[cur_parent] = total
    return own - covered
