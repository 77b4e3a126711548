"""Spans around calls into the package's layers, recorded from outside.

Each traced function is replaced, at every module attribute of the package
that refers to it (re-imports such as ``magnus.propagator`` included), by a
wrapper that records a span ``(name, start, end, parent, job)`` while a job
is active.  Nothing under ``src/`` is changed: the wrappers are installed on
the live modules and removed again after each traced round.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs that get a span; the names are those of the
# defining module.  Metric names are "<module>.<function>.self_s|calls".
SPANNED = (
    ("exact_lattice", "build_spin_hamiltonian"),
    ("exact_lattice", "build_transverse_field"),
    ("exact_lattice", "_segment_eigensystem"),
    ("exact_lattice", "evolve_state"),
    ("exact_lattice", "propagator"),
    ("exact_lattice", "variance"),
    ("exact_lattice", "connected_pair_correlators"),
    ("exact_lattice", "dicke_state"),
    ("magnus", "magnus_terms"),
    ("magnus", "magnus_error"),
    ("magnus", "variance_expansion"),
    ("magnus", "variance_rate"),
    ("bounds", "uncertainty_check"),
    ("nonequil_observables", "kernel_average"),
    ("nonequil_observables", "smeared_green"),
    ("nonequil_observables", "spectral_weight"),
    ("nonequil_observables", "smeared_planck"),
    ("nonequil_observables", "fit_collapse"),
    ("special", "erfc"),
    ("special", "erfcx"),
    ("special", "log_erfc"),
    ("special", "bessel_j0"),
    ("collective_spin", "analytic_sigma"),
    ("collective_spin", "eigenweight_distribution"),
    ("collective_spin", "central_moment"),
    ("collective_spin", "wigner_d_column"),
    ("ising_entangle", "domain_wall_correlator"),
    ("ising_entangle", "dicke_entanglement"),
    ("ising_entangle", "spin_multiplicity"),
    ("ising_entangle", "spin_multiplicity_log"),
    ("cli", "main"),
    ("cli", "_emit"),
)

# Functions that are only counted (they run inside quadrature and fit loops,
# where a span per call would cost more than the call): counter name -> targets.
COUNTED = {
    "nonequil_observables.integrand_evals": (
        ("nonequil_observables", "_lorentzian"),
        ("nonequil_observables", "planck_radiance"),
    ),
    "nonequil_observables.objective_evals": (
        ("nonequil_observables", "log10_viscosity_predict"),
    ),
}

_COMPLEX_BYTES = 16
PACKAGE = "drivenfluct"


def _dense_bytes(name: str, args: tuple, kwargs: dict) -> int:
    """Bytes of the dense 2^N x 2^N complex operators a builder call computes.

    The full operator plus one matrix per local term when the decomposition
    is built (``build_transverse_field`` always builds it).  Computed from
    the arguments, not measured.
    """
    if name == "exact_lattice.build_spin_hamiltonian":
        lattice = args[0] if args else kwargs["lattice"]
        decomposed = args[1] if len(args) > 1 else kwargs.get("with_decomposition", True)
        n_sites = lattice.n_sites
        matrices = 1 + (n_sites if decomposed else 0)
    else:
        n_sites = args[0] if args else kwargs["n_sites"]
        matrices = 1 + n_sites
    return matrices * _COMPLEX_BYTES * 4**n_sites


class Tracer:
    """Installs span wrappers on the package and keeps the spans in memory."""

    def __init__(self):
        self.modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counters: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _module(self, short: str):
        return sys.modules[f"{PACKAGE}.{short}"]

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counts_bytes = name in (
            "exact_lattice.build_spin_hamiltonian",
            "exact_lattice.build_transverse_field",
        )

        def wrapper(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            if counts_bytes:
                self.counters["exact_lattice.dense_bytes_computed"] += _dense_bytes(
                    name, args, kwargs
                )
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, job)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, counter: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            if self.job is not None:
                counters[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, fn_name in SPANNED:
            original = getattr(self._module(module_name), fn_name)
            wrapper = self._span_wrapper(f"{module_name}.{fn_name}", original)
            self._replace_everywhere(original, wrapper)
        for counter, targets in COUNTED.items():
            for module_name, fn_name in targets:
                original = getattr(self._module(module_name), fn_name)
                self._replace_everywhere(original, self._count_wrapper(counter, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> tuple[Counter, Counter, float]:
        """Per-function self time and call count, and the time covered by
        top-level spans (those with no traced parent)."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        top_level = 0.0
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            self_s[name] += duration
            calls[name] += 1
            if parent is None:
                top_level += duration
            else:
                # spans nest strictly in one thread, so a parent's children
                # never overlap and their durations simply add up
                self_s[self.spans[parent][0]] -= duration
        return self_s, calls, top_level

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,job,name,start,end\n")
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                parent_text = "" if parent is None else str(parent)
                handle.write(f"{index},{parent_text},{job},{name},{start!r},{end!r}\n")
