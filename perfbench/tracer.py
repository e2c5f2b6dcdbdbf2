"""Spans and counts recorded around calls into the cqdw layers, from outside.

The program carries no instrumentation of its own, so the traced run replaces
the layer entry points (module functions and a few methods) with wrappers
that open a span on entry and close it on exit. Spans nest through a stack:
a span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root span.

Only aggregates are kept: count, total and self time per span name, and the
outermost time per layer. For hot kernels (hundreds of thousands of calls)
the tracer also counts calls per enclosing non-hot span, which is how
"fixed-point passes inside evolve" is measured.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

# (span name, module, attribute path, hot). The span name's prefix before the
# first dot is the layer. A function is wrapped in every cqdw module that
# binds it, because `from .x import y` copies the binding.
TARGETS = (
    ("cli.main", "cqdw.cli", "main", False),
    ("spectrum.discretize_operator", "cqdw.spectrum", "discretize_operator", False),
    ("spectrum.lowest_eigenpairs", "cqdw.spectrum", "lowest_eigenpairs", False),
    ("spectrum.rotated_basis", "cqdw.spectrum", "rotated_basis", False),
    ("discretization.kernel_matrix", "cqdw.discretization", "kernel_matrix", False),
    ("discretization.conv_plan", "cqdw.discretization", "ConvolutionPlan.__init__", False),
    ("discretization.conv_apply", "cqdw.discretization", "ConvolutionPlan.apply", True),
    ("overlaps.compute_overlaps", "cqdw.overlaps", "compute_overlaps", False),
    ("twomode.fixed_point_census", "cqdw.twomode", "fixed_point_census", False),
    ("twomode.critical_norms", "cqdw.twomode", "critical_norms", False),
    ("twomode.integrate_orbit", "cqdw.twomode", "integrate_orbit", False),
    ("continuation.problem_init", "cqdw.continuation", "StationaryProblem.__init__", False),
    ("continuation.residual", "cqdw.continuation", "StationaryProblem.residual", False),
    ("continuation.jacobian", "cqdw.continuation", "StationaryProblem.jacobian", False),
    (
        "continuation.nonlinear_potential_density",
        "cqdw.continuation",
        "StationaryProblem.nonlinear_potential_density",
        True,
    ),
    ("continuation.newton_solve", "cqdw.continuation", "newton_solve", False),
    ("continuation.seed_from_mode", "cqdw.continuation", "seed_from_mode", False),
    ("continuation.continue_branch", "cqdw.continuation", "continue_branch", False),
    ("continuation.detect_pitchfork", "cqdw.continuation", "detect_pitchfork", False),
    ("continuation.seed_daughter", "cqdw.continuation", "seed_daughter", False),
    ("stability.sweep_branch", "cqdw.stability", "sweep_branch", False),
    ("stability.build_bdg", "cqdw.stability", "build_bdg", False),
    ("stability.solve_bdg", "cqdw.stability", "solve_bdg", False),
    ("stability.dominant_unstable_mode", "cqdw.stability", "dominant_unstable_mode", False),
    ("dynamics.evolve", "cqdw.dynamics", "evolve", False),
    ("dynamics.perturb_state", "cqdw.dynamics", "perturb_state", False),
    ("dynamics.project_phase_plane", "cqdw.dynamics", "project_phase_plane", False),
    ("dynamics.onset_time", "cqdw.dynamics", "onset_time", False),
    ("dynamics.growth_rate", "cqdw.dynamics", "growth_rate", False),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Stack of open spans plus per-name and per-layer aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # open frame: [name, start, child time, enclosing non-hot span name]
        self._stack: list[list] = []
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.layer_total: dict[str, float] = defaultdict(float)
        self.within: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    def enter(self, name: str, hot: bool = False) -> None:
        # a non-hot span encloses itself; a hot one records the span it runs in
        outer = name
        if hot:
            outer = self._stack[-1][3] if self._stack else ""
        self._stack.append([name, self.clock(), 0.0, outer])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, outer = self._stack.pop()
        duration = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if outer != name:
            self.within[(name, outer)] += 1
        parent_layer = ""
        if self._stack:
            self._stack[-1][2] += duration
            parent_layer = layer_of(self._stack[-1][0])
        if parent_layer != layer_of(name):
            self.layer_total[layer_of(name)] += duration

    def count(self, name: str) -> int:
        return int(self.stats[name][0]) if name in self.stats else 0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def layers(self) -> dict[str, dict[str, float]]:
        """count, total (outermost spans of the layer) and self per layer."""
        out: dict[str, dict[str, float]] = {}
        for name, (count, _, self_time) in self.stats.items():
            row = out.setdefault(layer_of(name), {"count": 0, "total": 0.0, "self": 0.0})
            row["count"] += count
            row["self"] += self_time
        for layer, row in out.items():
            row["total"] = self.layer_total[layer]
        return out

    def wrap(self, name: str, fn, hot: bool = False, on_result=None):
        signature = inspect.signature(fn) if on_result else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(self.counters, bound.arguments, result)
            return result

        return traced


def _branch_states(counters, args, branch):
    counters["continuation.branch_states"] += len(branch.states)


def _orbit(counters, args, orbit):
    counters["twomode.orbit_steps"] += orbit.t.size - 1
    counters["twomode.orbit_halvings"] += round(math.log2(args["dt"] / orbit.dt))


def _evolve(counters, args, run):
    counters["dynamics.steps"] += round(float(run.times[-1]) / args["dt"])


RESULT_HOOKS = {
    "continuation.continue_branch": _branch_states,
    "twomode.integrate_orbit": _orbit,
    "dynamics.evolve": _evolve,
}


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS entry in place; cqdw must already be imported."""
    for name, module_name, path, hot in TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, original, hot))
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(name, original, hot, RESULT_HOOKS.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "cqdw" or mod_name.startswith("cqdw."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics from the spans; the caller adds the cli.* entries it measures."""
    t = tracer
    c = t.counters
    solve_bdg = t.count("stability.solve_bdg")
    steps = c["dynamics.steps"]
    fp_passes = t.within.get(("continuation.nonlinear_potential_density", "dynamics.evolve"), 0)
    applies = t.count("discretization.conv_apply")
    orbit_steps = c["twomode.orbit_steps"]
    layers = t.layers()
    return {
        "stability.bdg_states": t.count("stability.build_bdg"),
        "stability.build_bdg_s": t.self_s("stability.build_bdg"),
        "stability.solve_bdg_s": t.self_s("stability.solve_bdg"),
        "stability.solve_bdg_ms": 1e3 * _ratio(t.self_s("stability.solve_bdg"), solve_bdg),
        "stability.dominant_mode_s": t.self_s("stability.dominant_unstable_mode"),
        "continuation.newton_solves": t.count("continuation.newton_solve"),
        "continuation.newton_s": t.self_s("continuation.newton_solve"),
        "continuation.trace_s": t.self_s("continuation.continue_branch"),
        "continuation.branch_states": c["continuation.branch_states"],
        "continuation.pitchfork_s": t.self_s("continuation.detect_pitchfork"),
        "continuation.daughter_seed_s": t.self_s("continuation.seed_daughter"),
        "continuation.jacobian_calls": t.count("continuation.jacobian"),
        "continuation.jacobian_s": t.self_s("continuation.jacobian"),
        "continuation.residual_calls": t.count("continuation.residual"),
        "continuation.jacobians_per_state": _ratio(
            t.count("continuation.jacobian"), c["continuation.branch_states"]
        ),
        "dynamics.evolve_s": t.self_s("dynamics.evolve"),
        "dynamics.steps": steps,
        "dynamics.fp_passes": fp_passes,
        "dynamics.passes_per_step": _ratio(fp_passes, steps),
        "dynamics.step_us": 1e6 * _ratio(t.total_s("dynamics.evolve"), steps),
        "dynamics.project_s": t.self_s("dynamics.project_phase_plane"),
        "discretization.conv_apply_calls": applies,
        "discretization.conv_apply_s": t.self_s("discretization.conv_apply"),
        "discretization.conv_apply_us": 1e6 * _ratio(t.self_s("discretization.conv_apply"), applies),
        "discretization.conv_plan_builds": t.count("discretization.conv_plan"),
        "discretization.conv_plan_s": t.self_s("discretization.conv_plan"),
        "twomode.orbits": t.count("twomode.integrate_orbit"),
        "twomode.orbit_steps": orbit_steps,
        "twomode.orbit_halvings": c["twomode.orbit_halvings"],
        "twomode.orbit_s": t.self_s("twomode.integrate_orbit"),
        "twomode.orbit_step_us": 1e6 * _ratio(t.self_s("twomode.integrate_orbit"), orbit_steps),
        "twomode.census_s": t.self_s("twomode.fixed_point_census"),
        "twomode.critical_s": t.self_s("twomode.critical_norms"),
        "overlaps.sets": t.count("overlaps.compute_overlaps"),
        "overlaps.compute_s": t.self_s("overlaps.compute_overlaps"),
        "spectrum.basis_s": layers.get("spectrum", {}).get("self", 0.0),
        "cli.self_s": layers.get("cli", {}).get("self", 0.0),
        "cli.trace_coverage": 1.0 - _ratio(layers.get("cli", {}).get("self", 0.0), wall),
    }
