"""Span tracer for the traced benchmark run.

The tracer replaces public functions of the fsolink modules with timing
wrappers at run time (every module-level binding of the function, including
the copies bound by `from ... import` in other modules and the values of
`fsolink.cli.EXPRESSIONS`) and restores the originals on `uninstall`. No file
of the library is modified.

Each wrapped call records a span: id, parent id, name, thread, start, end
and self time. Self time is the span's duration minus the time covered by
its child spans. Two kinds of call are not recorded as spans, so that a run
keeps a bounded number of spans in memory:

- `specfun.erfc` is a leaf called millions of times; its calls are counted
  and timed in aggregate and the time is charged as child time to the
  enclosing span.
- The integrand that a caller passes to `quadrature.integrate` is wrapped
  to count evaluations. Its time is taken out of the integrate span and
  credited to the span that called `integrate` (the average or the
  normalisation whose integrand it is), so `quadrature.integrate.self_s`
  is the quadrature engine's own cost.

The span stack is per thread. A span opened by a Monte Carlo worker thread
with an empty stack takes the open `montecarlo.simulate` span as parent;
its time is not subtracted from that parent because it runs concurrently.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter

# frame layout on the per-thread stack
_NAME, _ID, _START, _CHILD, _EXTRA = range(5)

AVERAGE_SPANS = ("errorrates.exact", "errorrates.approx", "errorrates.dense",
                 "errorrates.dense_highpower", "errorrates.ook_simple")
ERRORRATES_SPANS = AVERAGE_SPANS + ("errorrates.nested",)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches = []
        self.thread_parent = None
        self.leaves = {}
        self.reset()

    def reset(self):
        """Drop everything recorded so far (called before each traced repetition)."""
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.counts = defaultdict(int)
        for totals in self.leaves.values():
            totals[:] = [0, 0.0]

    # -- recording -----------------------------------------------------------

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        parent_id = parent[_ID] if parent else self.thread_parent
        frame = [name, self._new_id(), perf_counter(), 0.0, 0.0]
        stack.append(frame)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame[_START]
            own = duration - frame[_CHILD] + frame[_EXTRA]
            if parent is not None:
                parent[_CHILD] += duration
            with self._lock:
                self.spans.append((frame[_ID], parent_id, name,
                                   threading.get_ident(), frame[_START], end, own))
                self.calls[name] += 1
                self.self_s[name] += own
                if not ok:
                    self.failed[name] += 1

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def leaf(self, name, fn):
        """Count and time a hot function without recording spans. The totals
        are not locked: traced leaves are only called from one thread."""
        totals = self.leaves.setdefault(name, [0, 0.0])
        local = self._local

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            totals[0] += 1
            totals[1] += dt
            stack = getattr(local, "stack", None)
            if stack:
                stack[-1][_CHILD] += dt
            return result
        return wrapper

    # -- wrappers with extra counting ---------------------------------------

    def _integrate(self, fn):
        def wrapper(f, lo, hi, spec=None):
            stack = self._stack()
            owner = stack[-1] if stack else None
            evals = 0

            def integrand(x):
                nonlocal evals
                evals += 1
                t0 = perf_counter()
                # a pseudo-frame, so leaves called by the integrand are charged to it
                frame = ["integrand", owner[_ID] if owner else None, t0, 0.0, 0.0]
                stack.append(frame)
                try:
                    return f(x)
                finally:
                    stack.pop()
                    dt = perf_counter() - t0
                    stack[-1][_CHILD] += dt  # the integrate frame
                    if owner is not None:
                        owner[_EXTRA] += dt - frame[_CHILD]

            try:
                return self.call("quadrature.integrate", fn, (integrand, lo, hi, spec), {})
            finally:
                if owner is not None and owner[_NAME] in AVERAGE_SPANS:
                    with self._lock:
                        self.counts["quadrature.integrand_evals_in_averages"] += evals
        return wrapper

    def _find_crossing(self, fn):
        def wrapper(curve, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return curve(x)

            try:
                return self.call("quadrature.find_crossing", fn, (counted,) + args, kwargs)
            finally:
                with self._lock:
                    self.counts["quadrature.find_crossing.curve_evals"] += evals
        return wrapper

    def _avg_ser_exact(self, fn):
        def wrapper(op, nested=False):
            name = "errorrates.nested" if nested else "errorrates.exact"
            return self.call(name, fn, (op, nested), {})
        return wrapper

    def _power_increase(self, fn, errorrates):
        def wrapper(op, m_bits, target_ser, expression=None):
            # the library's default argument is bound to the unwrapped function
            if expression is None:
                expression = errorrates.avg_ser_exact
            before = sum(self.calls[n] for n in AVERAGE_SPANS)
            try:
                return self.call("errorrates.power_increase_for_next_bit", fn,
                                 (op, m_bits, target_ser, expression), {})
            finally:
                with self._lock:
                    self.counts["errorrates.averages_in_solves"] += (
                        sum(self.calls[n] for n in AVERAGE_SPANS) - before)
        return wrapper

    def _simulate(self, fn):
        def wrapper(op, mc, fixed_gain=None):
            name = "montecarlo.simulate.w1" if mc.workers == 1 else "montecarlo.simulate.w2"

            def run(*args):
                # worker-thread spans nest under the open simulate span
                self.thread_parent = self._stack()[-1][_ID]
                try:
                    return fn(*args)
                finally:
                    self.thread_parent = None
            return self.call(name, run, (op, mc, fixed_gain), {})
        return wrapper

    def _model_init(self, init):
        def wrapper(obj, *args, **kwargs):
            return self.call("channel.model_build", init, (obj,) + args, kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace the traced library functions with wrappers."""
        import fsolink
        from fsolink import channel, cli, errorrates, montecarlo, quadrature, specfun

        modules = (fsolink, specfun, quadrature, channel, errorrates, montecarlo, cli)

        def rebind(orig, wrapped):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod.__dict__, key, orig))
                        setattr(mod, key, wrapped)
            for key, value in list(cli.EXPRESSIONS.items()):
                if value is orig:
                    self._patches.append((cli.EXPRESSIONS, key, orig))
                    cli.EXPRESSIONS[key] = wrapped

        rebind(specfun.erfc, self.leaf("specfun.erfc", specfun.erfc))
        rebind(quadrature.integrate, self._integrate(quadrature.integrate))
        rebind(quadrature.find_crossing, self._find_crossing(quadrature.find_crossing))
        rebind(errorrates.avg_ser_exact, self._avg_ser_exact(errorrates.avg_ser_exact))
        for mod, attr, name in ((errorrates, "avg_ser_approx", "errorrates.approx"),
                                (errorrates, "avg_ser_dense", "errorrates.dense"),
                                (errorrates, "avg_ser_dense_highpower",
                                 "errorrates.dense_highpower"),
                                (errorrates, "avg_ber_ook_approx_simple",
                                 "errorrates.ook_simple"),
                                (channel, "composite_expectation",
                                 "channel.composite_expectation"),
                                (channel, "pdf_composite", "channel.pdf_composite"),
                                (channel, "sample_composite", "channel.sample_composite"),
                                (montecarlo, "ml_detect", "montecarlo.ml_detect"),
                                (cli, "main", "cli.main")):
            orig = getattr(mod, attr)
            rebind(orig, self.span(name, orig))
        rebind(errorrates.power_increase_for_next_bit,
               self._power_increase(errorrates.power_increase_for_next_bit, errorrates))
        rebind(montecarlo.simulate, self._simulate(montecarlo.simulate))
        for cls in (channel.LinkGeometry, channel.FadingModel, channel.OperatingPoint):
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._model_init(cls.__init__)

    def uninstall(self):
        """Restore every binding replaced by install, latest first."""
        while self._patches:
            target, key, orig = self._patches.pop()
            if isinstance(target, type):
                setattr(target, key, orig)
            else:
                target[key] = orig
