"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions of movingbeam from outside the package: it
replaces every reference to a function in the package's modules (so names
imported with ``from .fem import ...`` are caught too), methods on their
classes, and the scipy factorization calls through the module objects the
package holds.  A name a later version no longer has is skipped, and its
metrics read zero.

Spans accumulate per round in memory: time and calls per span name, and the
self time of the spans listed in ``SELF_EXCLUDES``.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict

import scipy.linalg
import scipy.sparse.linalg

import speed

# span -> nested spans whose time is not part of its self time
SELF_EXCLUDES = {
    "newmark.step_operators": ("fem.assemble_time_dependent", "fem.assemble_load"),
    "newmark.newton": ("newmark.residual", "newmark.jacobian", "newmark.factor"),
}

# (module, function, span)
FUNCTIONS = (
    ("movingbeam.geometry", "validate_hypotheses", "geometry.validate"),
    ("movingbeam.fem", "assemble_constant", "fem.assemble_constant"),
    ("movingbeam.fem", "assemble_time_dependent", "fem.assemble_time_dependent"),
    ("movingbeam.fem", "assemble_load", "fem.assemble_load"),
    ("movingbeam.newmark", "build_step_operators", "newmark.step_operators"),
    ("movingbeam.newmark", "newton_solve", "newmark.newton"),
    ("movingbeam.verification", "error_norms", "verification.error_norms"),
    ("movingbeam.energy", "energy_series", "energy.energy_series"),
    ("movingbeam.energy", "decay_fit", "energy.decay_fit"),
)
# (module, class, method, span)
METHODS = (
    ("movingbeam.fem", "HermiteSpace", "scatter", "fem.scatter"),
    ("movingbeam.newmark", "BeamSystem", "l_matrices", "newmark.l_matrices"),
    ("movingbeam.newmark", "StepProblem", "residual", "newmark.residual"),
    ("movingbeam.newmark", "StepProblem", "jacobian_parts", "newmark.jacobian"),
)
# scipy factorizations: (module object, function)
FACTORIZATIONS = ((scipy.sparse.linalg, "splu"), (scipy.linalg, "lu_factor"))


class _ModuleView:
    """A module with some attributes replaced; the rest read through."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Collects span time and calls while ``active``; install() patches."""

    def __init__(self):
        self.active = False
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []     # [span name, excluded child seconds]
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.seconds.clear()
        self.self_seconds.clear()
        self.calls.clear()

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = speed.now()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer._close(name, speed.now() - t0, frame[1])

        return span

    def _close(self, name: str, seconds: float, excluded: float) -> None:
        self.seconds[name] += seconds
        self.calls[name] += 1
        if name in SELF_EXCLUDES:
            self.self_seconds[name] += seconds - excluded
        stack = self._stack
        for i in range(len(stack) - 1, -1, -1):
            ex = SELF_EXCLUDES.get(stack[i][0])
            # counted once, against the outermost excluded span below it
            if ex and name in ex and not any(f[0] in ex for f in stack[i + 1:]):
                stack[i][1] += seconds

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, value))

    def install(self) -> None:
        for modname, fname, span in FUNCTIONS:
            fn = getattr(sys.modules.get(modname), fname, None)
            if fn is not None:
                self._replace_everywhere(fn, self.wrap(span, fn))

        make_source = getattr(sys.modules.get("movingbeam.manufactured"), "make_source", None)
        if make_source is not None:
            @functools.wraps(make_source)
            def traced_make_source(*args, **kwargs):
                return self.wrap("manufactured.source", make_source(*args, **kwargs))
            self._replace_everywhere(make_source, traced_make_source)

        for modname, clsname, meth, span in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            fn = None if cls is None else cls.__dict__.get(meth)
            if fn is not None:
                setattr(cls, meth, self.wrap(span, fn))
                self._undo.append((cls, meth, fn))

        for module, fname in FACTORIZATIONS:
            traced = self.wrap("newmark.factor", getattr(module, fname))
            self._replace_everywhere(getattr(module, fname), traced)
            self._replace_everywhere(module, _ModuleView(module, **{fname: traced}))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "movingbeam" or n.startswith("movingbeam."))]
