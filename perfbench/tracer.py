"""Span tracing around the public functions of ``tcm``, from outside the package.

``Tracer.install()`` replaces every traced function in every ``tcm``
namespace that holds it (``tcm.cli`` and ``tcm.product`` import names
directly, and ``verify_closed_form`` looks up ``swap_by_formula`` in
``tcm.swap`` at call time), and the ``SwapMatrix`` methods on the class.
``uninstall()`` puts the originals back.  A wrapper records a span only
while ``active`` is set, so checks and untraced passes run at full speed
with the wrappers in place.  Spans are kept in memory and written out
with ``dump()`` at the end of the run.
"""

import json
import resource
import time

# Traced functions by tcm module; "Class.method" names are patched on the class.
TRACED = {
    "matops": ("as_matrix", "hs_inner", "max_abs_diff", "identity"),
    "gellmann": ("basis", "expand_in_basis", "reconstruct"),
    "swap": (
        "swap_by_formula",
        "swap_by_rule",
        "SwapMatrix.apply",
        "SwapMatrix.dense",
        "SwapMatrix.one_positions",
    ),
    "product": (
        "decompose_product",
        "reconstruct_product",
        "verify_closed_form",
        "offdiag_family_sum",
        "offdiag_family_reference",
        "diagonal_family_sum",
        "diagonal_family_reference",
        "closed_form_swap_coefficients",
    ),
    "cli": ("main",),
}

STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("minflt", "count"))


def span_names():
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """In-memory spans: (name, start, end, parent index, op id, minor faults)."""

    def __init__(self, tcm_modules):
        self._modules = tcm_modules  # {"matops": module, ...} plus "tcm": package
        self._patches = []  # (owner, attribute, original)
        self.spans = []
        self._stack = []
        self.active = False
        self.op_id = None

    # -- spans ------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, _minflt()])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        span[5] = _minflt() - span[5]

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ---------------------------------------------------------

    def install(self):
        namespaces = list(self._modules.values())
        for module, names in TRACED.items():
            for name in names:
                label = f"{module}.{name}"
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(self._modules[module], cls_name)
                    original = cls.__dict__[method]
                    self._patch(cls, method, original, self._wrap(label, original))
                    continue
                original = getattr(self._modules[module], name)
                wrapper = self._wrap(label, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_stats(self, names):
        """Per-name calls, busy time, self time and minor faults over all spans."""
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "minflt": 0} for name in names}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for k, (name, start, end, _parent, _op, minflt) in enumerate(self.spans):
            if name not in stats:
                continue
            s = stats[name]
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - child_time[k]
            s["minflt"] += minflt
        return stats

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op, minflt."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
