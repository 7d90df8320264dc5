"""In-memory span tracing of demflow's layers, from outside the package.

Callers look functions up in their own module's globals (`scheme` calls
`demflow.scheme.hllc`, the benchmark calls `demflow.write_snapshot`), so a
hook replaces the function at every demflow module attribute that holds it,
for as long as the tracer is active. `run` reaches relaxation only through
the `demflow.scheme._RELAXERS` table, so relaxation hooks name table entries.
A hook whose function no longer exists is reported as absent; the run goes
on without it.

Each call of a hooked function records a span (name, start, end, parent
span index) and bumps the name's call count. Self time is a span's duration
minus the time its direct child spans cover.
"""

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# span name -> (demflow submodule, attribute) or (submodule, dict, key)
HOOKS = {
    "scheme.run": ("scheme", "run"),
    "scheme.hyperbolic_step": ("scheme", "hyperbolic_step"),
    "scheme.cfl_dt": ("scheme", "cfl_dt"),
    "scheme.ensemble_flux": ("scheme", "ensemble_flux"),
    "scheme.boundary_lagrangian": ("scheme", "boundary_lagrangian"),
    "scheme.volume_fraction_rhs": ("scheme", "volume_fraction_rhs"),
    "riemann.hllc": ("riemann", "hllc"),
    "state.cons_to_prim": ("state", "cons_to_prim"),
    "state.validate_mixture": ("state", "validate_mixture"),
    "eos.internal_energy": ("eos", "internal_energy"),
    "eos.pressure_from_energy": ("eos", "pressure_from_energy"),
    "eos.sound_speed": ("eos", "sound_speed"),
    "eos.de_drho": ("eos", "de_drho"),
    "eos.de_dp": ("eos", "de_dp"),
    "relaxation.continuous": ("scheme", "_RELAXERS", "continuous"),
    "relaxation.projection": ("scheme", "_RELAXERS", "projection"),
    "probability.convex_quad": ("probability", "convex_quad"),
    "regime.stochastic_update": ("regime", "stochastic_update"),
    "config.parse_config": ("config", "parse_config"),
    "snapshots.write_snapshot": ("snapshots", "write_snapshot"),
    "snapshots.read_snapshot": ("snapshots", "read_snapshot"),
    "snapshots.compare_oracle": ("snapshots", "compare_oracle"),
}

STEP_HOOK = "scheme.hyperbolic_step"
# hooks that `run` calls exactly once per step, in the order tried for
# counting steps
STEP_COUNT_HOOKS = (STEP_HOOK, "scheme.cfl_dt")


def _resolve(spec):
    module = sys.modules.get(f"demflow.{spec[0]}")
    target = getattr(module, spec[1], None)
    if len(spec) == 3:
        target = target.get(spec[2]) if isinstance(target, dict) else None
    return target if callable(target) else None


def _namespaces():
    spaces = [vars(m) for name, m in list(sys.modules.items())
              if m is not None and (name == "demflow" or name.startswith("demflow."))]
    relaxers = getattr(sys.modules.get("demflow.scheme"), "_RELAXERS", None)
    if isinstance(relaxers, dict):
        spaces.append(relaxers)
    return spaces


class _Patch:
    """Replaces hooked functions by wrappers wherever demflow holds them and
    puts the originals back on exit. `make_wrapper(name, fn)` builds each
    wrapper; `absent` lists hooks whose function was not found."""

    def __init__(self, names, make_wrapper):
        self.names = list(names)
        self.make_wrapper = make_wrapper
        self.absent = []
        self._restore = []

    def __enter__(self):
        if "demflow" not in sys.modules:
            raise RuntimeError("import demflow before tracing it")
        wrappers = {}
        self.absent = []
        for name in self.names:
            fn = _resolve(HOOKS[name])
            if fn is None:
                self.absent.append(name)
            elif id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self.make_wrapper(name, fn))
        for space in _namespaces():
            for key, value in list(space.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((space, key, value))
                    space[key] = hit[1]
        return self

    def __exit__(self, *exc):
        for space, key, value in reversed(self._restore):
            space[key] = value
        self._restore = []
        return False


class Tracer(_Patch):
    """Span recorder; use as a context manager around traced work."""

    def __init__(self):
        super().__init__(HOOKS, self._wrap)
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self._stack = []

    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()

    def _wrap(self, name, fn):
        spans, calls, self_s, stack = self.spans, self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (name, start, end, parent)
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
        return traced


class StepCounter(_Patch):
    """Counts steps through the first of STEP_COUNT_HOOKS that exists: the
    one hook kept on in untraced jobs, at the cost of one Python call per
    step. `hook` is the name counted, None when none of them exists."""

    def __init__(self):
        super().__init__([], self._wrap)
        self.steps = 0
        self.hook = None

    def __enter__(self):
        found = [name for name in STEP_COUNT_HOOKS if _resolve(HOOKS[name])]
        self.hook = found[0] if found else None
        self.names = found[:1]
        return super().__enter__()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.steps += 1
            return fn(*args, **kwargs)
        return counted


class StepLimitReached(Exception):
    """Raised by StepAllocProbe through the solver once it has seen enough
    steps."""


class StepAllocProbe(_Patch):
    """Largest tracemalloc peak above the step's starting allocation over
    the first `max_steps` hyperbolic steps run inside the context; the next
    step raises StepLimitReached. Kept apart from Tracer because tracemalloc
    slows every allocation and would distort spans."""

    def __init__(self, max_steps):
        super().__init__([STEP_HOOK], self._wrap)
        self.max_steps = max_steps
        self.steps = 0
        self.peak_bytes = 0

    def __enter__(self):
        tracemalloc.start()
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        tracemalloc.stop()
        return False

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if self.steps == self.max_steps:
                raise StepLimitReached
            self.steps += 1
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_bytes = max(self.peak_bytes, peak)
        return probed
