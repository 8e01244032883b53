"""In-memory span tracer wrapped around the public functions of qdleak.

`Tracer.install` replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent). Because
`from .linalg import kron` copies the function object into `model` and
`eavesdropper`, the wrapper is installed under every name, in every qdleak
module, that is bound to the original object. Nothing is aggregated while
the workload runs; `summary` derives calls and self time (duration minus
the direct child spans) afterwards.
"""

import functools
import inspect
import os
import sys
import time

TRACED_MODULES = ("cli", "experiments", "model", "linalg", "eavesdropper")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = []
        self.parent = []
        self.start = []
        self.end = []
        self._stack = [-1]
        self.work = {"linalg.apply_unitary.amplitudes": 0,
                     "experiments.write_csv.bytes": 0}

    def _count_amplitudes(self, args):
        self.work["linalg.apply_unitary.amplitudes"] += len(args[0])

    def _count_bytes(self, args):
        self.work["experiments.write_csv.bytes"] += os.path.getsize(args[1])

    def _wrap(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args)
            return result
        return traced

    def install(self):
        """Wrap the public functions of the traced qdleak modules."""
        hooks = {"linalg.apply_unitary": self._count_amplitudes,
                 "experiments.write_csv": self._count_bytes}
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"qdleak.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, hooks.get(name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "qdleak" and not module_name.startswith("qdleak."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def summary(self):
        """{name: (calls, self_seconds)} over every recorded span."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_time = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_time[p] -= dur[i]
        out = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            entry[0] += 1
            entry[1] += self_time[i]
        return {name: tuple(v) for name, v in out.items()}

    def write_spans(self, path):
        """Write every span as `name,start,end,parent` CSV lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")
