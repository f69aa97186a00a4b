"""Spans around the calls the benchmark makes into each layer.

The workloads never call the library directly: they call the functions of
an `Api` namespace.  Untraced, the namespace holds the library functions
themselves, so an untraced run pays nothing.  Traced, each function is
wrapped so that every call records a span (name `layer.function`, start,
end, parent span, op id, exception type); start and end are readings of
the CPU-time clock of the thread that runs the op, the clock the ops are
timed by.  Spans stay in memory until the run ends.  Spans inside the
library are not recorded.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import thread_time
from types import SimpleNamespace

# The seven modules and the public functions the workloads call in each.
LAYERS = {
    "qkernel": ("qpoch_infinite", "theta", "elliptic_gamma"),
    "exponents": ("rtilde_valuation", "norm_valuation", "valuation_deficit"),
    "polytope": ("reduce_to_P", "face_of", "is_z_dependent", "is_system", "face_name"),
    "biortho": ("continuous_inner_product", "discrete_inner_product", "rtilde",
                "norm_formula"),
    "limits": ("pastro_inner_product", "pastro_p", "pastro_q", "pastro_P", "aw_phi43",
               "numeric_limit", "nr_measure", "sb_measure", "sigma_measure",
               "sigma2_measure", "sigma2_series", "finite_measure"),
    "scheme": ("build_scheme", "check_appendix", "check_askey", "emit_json",
               "emit_dot", "emit_tsv"),
    "cli": ("main",),
}


class Tracer:
    """Collects spans as tuples (id, parent, op, name, start, end, error)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op: int | None = None

    def _open(self, name: str) -> tuple[int, int | None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, error) -> None:
        end = thread_time()
        self._stack.pop()
        self.spans[sid] = (sid, parent, self._op, name, start, end, error)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid, parent = self._open(name)
            error = None
            start = thread_time()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                self._close(sid, parent, name, start, error)

        return traced

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one op; layer calls made inside become its children."""
        self._op = op_id
        sid, parent = self._open(f"op.{kind}")
        start = thread_time()
        try:
            yield
        finally:
            self._close(sid, parent, f"op.{kind}", start, None)
            self._op = None


def make_api(tracer: Tracer | None = None, package: str = "ebiortho") -> SimpleNamespace:
    """Namespace of the layer functions of `package`, wrapped in spans when
    tracing."""
    api = SimpleNamespace()

    def bind(attr, name, fn):
        setattr(api, attr, tracer.wrap(name, fn) if tracer else fn)

    for layer, names in LAYERS.items():
        mod = importlib.import_module(f"{package}.{layer}")
        for name in names:
            bind(name, f"{layer}.{name}", getattr(mod, name))
    # LimitMeasure.apply is timed apart for circle integrals and series.
    apply = importlib.import_module(f"{package}.limits").LimitMeasure.apply
    bind("apply_integral", "limits.apply_integral", apply)
    bind("apply_series", "limits.apply_series", apply)
    return api
