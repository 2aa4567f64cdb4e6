"""Probes the benchmark installs on crackid from outside the program.

Nothing under ``src/`` knows about them. Each probe replaces a module or
class attribute with ``mock.patch.object`` entered on an ``ExitStack``;
closing the stack puts the originals back. A name bound
with ``from ... import`` is a separate attribute of the importing module, so
a wrapped function is replaced under every name that refers to it:
``build_mesh``, for example, is bound in ``geometry``, ``driver``, ``cli``
and the package itself.
"""

import functools
import inspect
import statistics
import sys
import time
from collections import Counter
from unittest import mock

import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The modules whose public functions the traced run times.
LAYERS = ("geometry", "fem", "solvers", "shape", "driver", "svgplot", "cli")

# Spans inside these count their LU factorisations as the state/adjoint's own.
_NEWTON_SOLVES = ("solvers.solve_penalty_state", "solvers.solve_adjoint")


# Reference kernel time, in seconds, of the machine end-to-end times are
# scaled to.
REFERENCE_S = 0.05


class ReferenceKernel:
    """A fixed sparse LU, independent of crackid, timed to track the speed
    the machine has at the moment.

    The benchmark scales its end-to-end times by ``REFERENCE_S`` over this
    kernel's time measured next to them, so that they read as times on a
    machine where the kernel takes ``REFERENCE_S`` seconds. The matrix is a
    2D five-point grid of 2x2 blocks with 7938 rows, close to the 8004-row
    state systems that take most of the loop's time.
    """

    def __init__(self):
        n = 63     # grid points per side: 2 n^2 = 7938 rows
        grid = sp.kron(sp.eye(n), sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n)))
        grid = grid + sp.kron(sp.diags([-1.0, -1.0], [-1, 1], shape=(n, n)), sp.eye(n))
        self.matrix = sp.kron(grid, sp.csr_matrix([[2.0, 1.0], [1.0, 2.0]])).tocsc()
        self.samples = []

    def __call__(self):
        t0 = time.perf_counter()
        spla.splu(self.matrix)
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        return t1 - t0

    def scaled_span(self, t0, t1):
        """(raw, scaled) seconds from ``t0`` to ``t1`` outside the kernel's
        timings. Each stretch between timings is scaled by ``REFERENCE_S``
        over the timing that precedes it; the first by the first timing."""
        inside = [(t, dt) for t, dt in self.samples if t0 <= t <= t1]
        if not inside:
            return t1 - t0, t1 - t0
        raw = scaled = 0.0
        start, ref = t0, inside[0][1]
        for t_end, dt in inside:
            raw += t_end - dt - start
            scaled += (t_end - dt - start) * REFERENCE_S / ref
            start, ref = t_end, dt
        raw += t1 - start
        scaled += (t1 - start) * REFERENCE_S / ref
        return raw, scaled


class StepTimer:
    """Wall time of each operation of a workload.

    An identification iteration runs from one ``build_mesh`` call inside
    ``driver.identify`` to the next; the last ends when ``identify``
    returns. A finite-difference probe of ``gradient-check`` runs from its
    ``build_mesh`` call in ``cli`` to the return of ``driver.objective``.
    With a ``reference`` kernel, each operation is preceded by one timing of
    it, kept out of the operation's time; ``steps`` holds
    (operation seconds, reference seconds or None) pairs.
    """

    def __init__(self, reference):
        self.steps = []
        self.reference = reference
        self._start = None
        self._ref = None
        self._inside = False

    def _open(self):
        self._ref = self.reference() if self.reference else None
        self._start = time.perf_counter()

    def _close(self):
        if self._start is not None:
            self.steps.append((time.perf_counter() - self._start, self._ref))
        self._start = None

    def install_identify(self, patches, driver):
        build, identify = driver.build_mesh, driver.identify

        def build_mesh(*args, **kwargs):
            if self._inside:
                self._close()
                self._open()
            return build(*args, **kwargs)

        def run_identify(*args, **kwargs):
            self._inside, self._start = True, None
            try:
                return identify(*args, **kwargs)
            finally:
                self._close()
                self._inside = False

        patches.enter_context(mock.patch.object(driver, "build_mesh", build_mesh))
        patches.enter_context(mock.patch.object(driver, "identify", run_identify))

    def install_probes(self, patches, cli, driver):
        build, objective = cli.build_mesh, driver.objective

        def build_mesh(*args, **kwargs):
            self._open()
            return build(*args, **kwargs)

        def probe_objective(*args, **kwargs):
            try:
                return objective(*args, **kwargs)
            finally:
                self._close()

        patches.enter_context(mock.patch.object(cli, "build_mesh", build_mesh))
        patches.enter_context(
            mock.patch.object(driver, "objective", probe_objective))


class Tally:
    """Calls, times and solver counts of one phase (a set-up or a round)."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.module_s = Counter()   # outermost spans of each module
        self.counts = Counter()     # solver counters and LU sizes


class LayerTracer:
    """Spans around every public function of the ``LAYERS`` modules.

    A span's self time excludes the wrapped callees it encloses. Each phase
    of the run (``begin``) gets its own ``Tally``, so rounds can be compared
    with each other and counts checked to repeat exactly.
    """

    def __init__(self):
        self._stack = []            # open spans: [key, module, start, child_s]
        self.phases = []            # (kind, Tally)
        self._tally = None

    def begin(self, kind):
        self._tally = Tally()
        self.phases.append((kind, self._tally))

    def install(self, patches):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "crackid" or name.startswith("crackid.")]
        for layer in LAYERS:
            mod = sys.modules["crackid." + layer]
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = "%s.%s" % (layer, attr)
                wrapped = self._wrap(key, fn, _AFTER.get(key))
                for owner in modules:
                    for alias, obj in list(vars(owner).items()):
                        if obj is fn:
                            patches.enter_context(
                                mock.patch.object(owner, alias, wrapped))
        factorized = sys.modules["crackid.fem"].FactorizedSPD
        patches.enter_context(mock.patch.object(
            factorized, "__init__",
            self._wrap("fem.lu_factor", factorized.__init__, _after_factor)))
        patches.enter_context(mock.patch.object(
            factorized, "solve", self._wrap("fem.lu_solve", factorized.solve)))

    def _wrap(self, key, fn, after=None):
        module = key.split(".", 1)[0]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, module, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[2]
                stack.pop()
                if stack:
                    stack[-1][3] += dur
                tally = self._tally
                if tally is not None:
                    tally.calls[key] += 1
                    tally.total_s[key] += dur
                    tally.self_s[key] += dur - frame[3]
                    if all(f[1] != module for f in stack):
                        tally.module_s[module] += dur
            if after is not None and self._tally is not None:
                after(self._tally, stack, args, result)
            return result

        return traced


def _after_state(tally, stack, args, result):
    report = result[1]
    tally.counts["newton_steps"] += report.iterations
    tally.counts["damped_steps"] += report.damped_steps


def _after_pdas(tally, stack, args, result):
    tally.counts["pdas_iterations"] += result[2].iterations


def _after_factor(tally, stack, args, result):
    # SuperLU's own count of the stored entries of L and U.
    tally.counts["lu_nnz"] += args[0].lu.nnz
    if any(frame[0] in _NEWTON_SOLVES for frame in stack):
        tally.counts["newton_factorisations"] += 1


_AFTER = {"solvers.solve_penalty_state": _after_state,
          "solvers.solve_vi_pdas": _after_pdas}

# Per-layer metrics: name -> (unit, function of a Tally). A time is the sum
# of a median set-up and a median round, in seconds until reported in ms.
PER_LAYER = {
    "geometry.build_mesh.calls": ("count", lambda t: t.calls["geometry.build_mesh"]),
    "geometry.build_mesh.ms": ("ms", lambda t: t.total_s["geometry.build_mesh"]),
    "fem.assemble_stiffness.calls": ("count", lambda t: t.calls["fem.assemble_stiffness"]),
    "fem.assemble_stiffness.ms": ("ms", lambda t: t.total_s["fem.assemble_stiffness"]),
    "fem.reduce_system.ms": ("ms", lambda t: t.total_s["fem.reduce_system"]),
    "fem.lu_factor.calls": ("count", lambda t: t.calls["fem.lu_factor"]),
    "fem.lu_factor.ms": ("ms", lambda t: t.total_s["fem.lu_factor"]),
    "fem.lu_solve.calls": ("count", lambda t: t.calls["fem.lu_solve"]),
    "fem.lu_solve.ms": ("ms", lambda t: t.total_s["fem.lu_solve"]),
    "fem.lu_fill_nnz": ("count", lambda t: _ratio(t.counts["lu_nnz"], t.calls["fem.lu_factor"])),
    "solvers.newton_steps": ("count", lambda t: t.counts["newton_steps"]),
    "solvers.newton_steps_per_solve": (
        "steps/solve", lambda t: _ratio(t.counts["newton_steps"],
                                        t.calls["solvers.solve_penalty_state"])),
    "solvers.factorisations_per_step": (
        "factors/step", lambda t: _ratio(t.counts["newton_factorisations"],
                                         t.counts["newton_steps"])),
    "solvers.damped_steps": ("count", lambda t: t.counts["damped_steps"]),
    "solvers.solve_penalty_state.calls": ("count", lambda t: t.calls["solvers.solve_penalty_state"]),
    "solvers.solve_penalty_state.self_ms": ("ms", lambda t: t.self_s["solvers.solve_penalty_state"]),
    "solvers.solve_adjoint.self_ms": ("ms", lambda t: t.self_s["solvers.solve_adjoint"]),
    "solvers.solve_vi_pdas.self_ms": ("ms", lambda t: t.self_s["solvers.solve_vi_pdas"]),
    "solvers.pdas_iterations": ("count", lambda t: t.counts["pdas_iterations"]),
    "shape.boundary_gradient.calls": ("count", lambda t: t.calls["shape.boundary_gradient"]),
    "shape.directional_derivative_volumetric.calls": (
        "count", lambda t: t.calls["shape.directional_derivative_volumetric"]),
    "shape.ms": ("ms", lambda t: t.module_s["shape"]),
    "driver.interp_measurement.ms": ("ms", lambda t: t.total_s["driver.interp_measurement"]),
    "driver.objective.ms": ("ms", lambda t: t.total_s["driver.objective"]),
    "driver.self_ms": ("ms", lambda t: _module_self(t, "driver")),
    "svgplot.calls": ("count", lambda t: _module_calls(t, "svgplot")),
    "cli.self_ms": ("ms", lambda t: _module_self(t, "cli") + t.module_s["svgplot"]),
}


def _ratio(a, b):
    return a / b if b else 0.0


def _module_self(tally, module):
    return sum(v for k, v in tally.self_s.items() if k.startswith(module + "."))


def _module_calls(tally, module):
    return sum(v for k, v in tally.calls.items() if k.startswith(module + "."))


def _merge(tallies):
    """Median times over tallies of one kind; counts must repeat exactly."""
    first = tallies[0]
    for t in tallies[1:]:
        if t.calls != first.calls or t.counts != first.counts:
            raise ValueError("per-layer counts differ between phases of one kind")
    out = Tally()
    out.calls, out.counts = first.calls, first.counts
    for attr in ("total_s", "self_s", "module_s"):
        keys = set().union(*(getattr(t, attr) for t in tallies))
        setattr(out, attr, Counter({
            k: statistics.median(getattr(t, attr)[k] for t in tallies)
            for k in keys}))
    return out


def per_layer_metrics(tracer):
    """Per-layer metrics of one set-up plus one round of the traced run."""
    combined = Tally()
    for kind in ("setup", "round"):
        tallies = [t for k, t in tracer.phases if k == kind]
        if not tallies:
            continue
        merged = _merge(tallies)
        for attr in ("calls", "counts", "total_s", "self_s", "module_s"):
            getattr(combined, attr).update(getattr(merged, attr))
    return {name: {"value": float(fn(combined)) * (1e3 if unit == "ms" else 1.0),
                   "unit": unit}
            for name, (unit, fn) in PER_LAYER.items()}
