"""Command-line pipeline: one JSON config in, CSV/JSON artifacts out.

Every subcommand writes into its own output directory: the resolved config
(config.json), the declared artifacts, and a manifest.json naming each file
alongside the sha256 config hash, any headline quantities the run produced
and the deterministic work counters of its solvers (`counters`; so far the
midpoint fixed-point passes of `evolve` and the Newton iterations of its
walk to each mu, the seed's Newton iterations, arclength corrector
iterations, rejected steps and pitchfork bisection steps of `continue`, and
the RK4 steps and step halvings that `twomode` integrates; a portrait start
(z0, 0) reuses its mirror (-z0, 0) from earlier in the grid, and adds none).
`twomode` streams each portrait into its CSV one orbit at a time, so a run
holds one orbit's rows (plus the mirror twins still to come), not the file.
`evolve` reduces each sample as it is stepped: its density row goes into
the CSV on the snapshot cadence and its phase-plane scalars are kept, so a
run holds one field, not the trajectory. A run that fails midway leaves the
CSV rows written so far, and no manifest.
Every stationary state comes from `continue_branch`; `evolve` traces from
the seed once per direction, out to its farthest mu, and ends with one
fixed-mu solve at each mu. Its `newton_iterations_mu<tag>` counts the
iterations first spent for that mu, so the counters of a run add up to its
Newton work. Nothing written contains timestamps or machine state, so a
repeated run with the same config and seed is byte-identical. Failures
are reported as one JSON object on stderr (machine-readable) with a nonzero
exit status; configuration problems arrive all at once in the `fields` list.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    config_hash,
    config_to_json,
    file_tag,
    load_config,
    validate_config,
)
from .continuation import (
    FOLD,
    NewtonError,
    StationaryProblem,
    continue_branch,
    detect_pitchfork,
    newton_solve,
    seed_daughter,
    seed_from_mode,
)
from .discretization import (
    ConvolutionPlan,
    Kernel,
    PotentialParams,
    build_grid,
)
from .dynamics import (
    DynamicsError,
    PhaseSeries,
    evolve,
    growth_rate,
    onset_time,
    perturb_state,
    project_phase_plane,
    solve_screened_poisson,
)
from .overlaps import ETA_LABELS, compute_overlaps, recompute_thresholds
from .presets import PresetError, get_preset
from .spectrum import default_basis
from .stability import StabilityError, build_bdg, dominant_unstable_mode, sweep_branch
from .twomode import (
    ModeParams,
    TwoModeState,
    coalescence_sigma,
    critical_norms,
    fixed_point_census,
    integrate_orbit,
)

class CliError(RuntimeError):
    """Subcommand-level failure with a user-addressable message."""


# --- deterministic artifact writing -------------------------------------------


def _row_format(kinds: tuple) -> tuple[str, tuple | None]:
    """The % format of a row with these cell types, CRLF included, and which
    of its cells go through `_text` (None when none do): a float, numpy's
    included, is format(x, ".17g"), an int str(x) and a bool 1 or 0."""
    specs = []
    for kind in kinds:
        if issubclass(kind, float):
            specs.append("%.17g")
        elif issubclass(kind, (int, np.integer, np.bool_)):
            specs.append("%d")
        else:
            specs.append("%s")
    texts = tuple(spec == "%s" for spec in specs)
    return ",".join(specs) + "\r\n", texts if any(texts) else None


def _text(value) -> str:
    """Any other cell: None as empty, anything else as its str, quoted the
    way csv.writer quotes (a comma, a quote or a line break puts it in
    quotes, with its quotes doubled)."""
    text = "" if value is None else str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, header, rows) -> None:
    """Header and rows as csv.writer writes them, CRLF line ends included.

    Each row is one % format, built once per sequence of cell types, and is
    written as it is formatted. Every table has two or more columns, so the
    quoted empty line csv.writer writes for a lone empty cell never arises.
    """
    formats = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in itertools.chain([header], rows):
            row = tuple(row)
            kinds = tuple(map(type, row))
            entry = formats.get(kinds)
            if entry is None:
                entry = formats[kinds] = _row_format(kinds)
            line, texts = entry
            if texts:
                row = tuple(_text(v) if t else v for v, t in zip(row, texts))
            fh.write(line % row)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- shared pipeline builders --------------------------------------------------


def _build_grid(config: RunConfig):
    return build_grid(config.grid.half_width, config.grid.spacing)


def _build_potential(config: RunConfig) -> PotentialParams:
    return config.potential


_build_basis = default_basis


def _build_problem(config: RunConfig) -> StationaryProblem:
    grid = _build_grid(config)
    kernel = Kernel(config.interaction.family, config.interaction.sigma)
    return StationaryProblem(
        grid,
        _build_potential(config),
        kernel,
        s=config.interaction.s,
        delta=config.interaction.delta,
    )


def _family_mode(basis, family: str):
    if family == "sym":
        return basis.u0, basis.omega0
    return basis.u1, basis.omega1


def _seed(problem, basis, family: str):
    return seed_from_mode(problem, *_family_mode(basis, family))


def _states_at_mu(problem, basis, config: RunConfig, family: str, targets):
    """Yield the parent state at each mu of targets, in order, with its Newton iterations.

    `continue_branch` traces the seed once in each direction that holds
    targets, out to the farthest of them. Each target is then solved at fixed
    mu from the mu-linear interpolant of the first two traced states that
    bracket it. Its iterations are those first spent for it: the seed's (first
    target only), the corrector's up to its bracket, and its own solve. A
    target in the vacuum, one past a fold or past where the trace stopped,
    and a failed solve are CliErrors, raised when that target's turn comes.
    """
    omega = _family_mode(basis, family)[1]
    for mu_target in targets:
        if problem.s * (mu_target - omega) <= 0:
            raise CliError(f"{family} branch: mu={mu_target} lies in the vacuum, on the trivial "
                           f"side of the linear eigenvalue {omega:.6g} for s={problem.s}")
    seed = _seed(problem, basis, family)
    traced, charged = {}, {}
    spent = seed.newton_iterations
    for mu_target in targets:
        direction = 1 if mu_target > seed.mu else -1
        if direction not in traced:
            lo, hi = sorted((seed.mu, direction * max(direction * mu for mu in targets)))
            window = replace(config.scan, mu_min=lo, mu_max=hi)
            traced[direction] = continue_branch(problem, seed, window, direction)
            charged[direction] = 1
        branch = traced[direction]
        folds = [event for event in branch.events if event.kind == FOLD]
        if folds and direction * (folds[0].mu - mu_target) <= 0:
            raise CliError(f"{family} branch folds at mu={folds[0].mu:.6g} "
                           f"(N={folds[0].norm:.6g}) before reaching mu={mu_target}")
        k = next((k for k, state in enumerate(branch.states)
                  if direction * (state.mu - mu_target) > 0), None)
        if k is None:
            last = branch.states[-1]
            raise CliError(f"{family} branch: the trace toward mu={mu_target} ended by "
                           f"{branch.termination} at mu={last.mu:.6g} (N={last.norm:.6g}, "
                           f"scan.norm_cap={config.scan.norm_cap})")
        before, after = branch.states[k - 1], branch.states[k]
        t = (mu_target - before.mu) / (after.mu - before.mu)
        try:
            state = newton_solve(problem, before.psi + t * (after.psi - before.psi), mu_target)
        except NewtonError as exc:
            raise CliError(f"{family} branch: the solve at mu={mu_target} between the traced "
                           f"mu={before.mu:.6g} and {after.mu:.6g} failed ({exc})") from exc
        spent += sum(s.newton_iterations for s in branch.states[charged[direction]:k + 1])
        charged[direction] = max(charged[direction], k + 1)
        yield state, spent + state.newton_iterations
        spent = 0


def _trace_branches(problem, basis, config: RunConfig):
    """(family, branch, pitchforks) per requested family, daughters appended,
    each traced the way s moves mu; a seed outside the scan window is a CliError."""
    traced = []
    scan = config.scan
    for family in scan.families:
        seed = _seed(problem, basis, family)
        if not scan.mu_min <= seed.mu <= scan.mu_max:
            raise CliError(f"{family} branch: its seed at mu={seed.mu:.6g} lies outside the "
                           f"scan window [{scan.mu_min}, {scan.mu_max}]")
        branch = continue_branch(problem, seed, scan, problem.s)
        pitchforks = detect_pitchfork(problem, branch)
        traced.append((family, branch, pitchforks))
        if pitchforks:
            daughter_seed = seed_daughter(problem, pitchforks[0])
            daughter = continue_branch(problem, daughter_seed, scan, problem.s)
            traced.append((f"asym-{family}", daughter, []))
    return traced


# --- subcommand runners --------------------------------------------------------


def run_spectrum(config: RunConfig, out: Path):
    grid = _build_grid(config)
    basis = _build_basis(grid, _build_potential(config))
    _write_json(
        out / "eigenvalues.json",
        {
            "omega0": basis.omega0,
            "omega1": basis.omega1,
            "mean_Omega": basis.Omega,
            "half_splitting_omega": basis.omega,
        },
    )
    _write_csv(
        out / "modes.csv",
        ["x", "u0", "u1", "phi_left", "phi_right"],
        zip(grid.points, basis.u0, basis.u1, basis.phi_left, basis.phi_right),
    )
    return ["eigenvalues.json", "modes.csv"], {
        "omega0": basis.omega0,
        "omega1": basis.omega1,
    }, {}


def run_overlaps(config: RunConfig, out: Path):
    grid = _build_grid(config)
    basis = _build_basis(grid, _build_potential(config))
    ov = config.overlaps
    family = config.interaction.family
    rows = []
    for sigma in np.geomspace(ov.sigma_min, ov.sigma_max, ov.count):
        overlaps = compute_overlaps(basis, Kernel(family, float(sigma)))
        rows.append([sigma, *overlaps.values, overlaps.regime])
    _write_csv(out / "overlaps.csv", ["sigma", *ETA_LABELS, "regime"], rows)
    thresholds = recompute_thresholds(basis, family)
    _write_json(
        out / "thresholds.json",
        {
            "kernel_family": family,
            "sigma_b": thresholds.sigma_b,
            "sigma_c": thresholds.sigma_c,
        },
    )
    return ["overlaps.csv", "thresholds.json"], {
        "sigma_b": thresholds.sigma_b,
        "sigma_c": thresholds.sigma_c,
    }, {}


def run_twomode(config: RunConfig, out: Path):
    grid = _build_grid(config)
    basis = _build_basis(grid, _build_potential(config))
    inter = config.interaction
    tm = config.twomode
    ov = compute_overlaps(basis, Kernel(inter.family, inter.sigma))

    def params_at(norm: float) -> ModeParams:
        return ModeParams.from_overlaps(ov, basis, inter.s, inter.delta, norm)

    fp_rows = []
    for norm in np.linspace(tm.n_min, tm.n_max, tm.n_count):
        for fp in fixed_point_census(params_at(float(norm))):
            fp_rows.append(
                [norm, fp.family, fp.state.z, fp.state.theta, fp.lambda_sq, fp.stability]
            )
    _write_csv(
        out / "fixed_points.csv",
        ["N", "family", "z", "theta", "lambda_sq", "type"],
        fp_rows,
    )

    crit_rows = []
    for sigma in np.geomspace(tm.sigma_min, tm.sigma_max, tm.sigma_count):
        co = compute_overlaps(basis, Kernel(inter.family, float(sigma)))
        crit = critical_norms(
            ModeParams.from_overlaps(co, basis, inter.s, inter.delta, 1.0)
        )
        crit_rows.append([sigma, crit.n0, crit.n1, crit.n2, crit.n3])
    _write_csv(
        out / "critical_norms.csv", ["sigma", "n0", "n1", "n2", "n3"], crit_rows
    )

    max_drift = 0.0
    counters = {"orbit_steps": 0, "orbit_halvings": 0}
    starts = [(z0, theta0) for z0 in np.linspace(-0.75, 0.75, 7) for theta0 in (0.0, math.pi)]

    def portrait_rows(params: ModeParams):
        """Yield each orbit's rows as it is integrated. The picked rows of a
        (z0, 0) start are kept only until its mirror start (-z0, 0) reuses them."""
        nonlocal max_drift
        twins = {}
        for orbit_id, (z0, theta0) in enumerate(starts):
            if theta0 == 0.0 and -z0 in twins:
                # the exact mirror (z, theta) -> (-z, -theta); 0.0 - x negates
                # exactly and leaves a zero, theta[0] among them, at +0.0
                picked = twins.pop(-z0)
                picked[:, 1:3] = 0.0 - picked[:, 1:3]
            else:
                orbit = integrate_orbit(
                    TwoModeState(float(z0), theta0), params, tm.portrait_t_end
                )
                href = orbit.hamiltonian[0]
                drift = np.max(np.abs(orbit.hamiltonian - href)) / max(abs(href), 1e-12)
                max_drift = max(max_drift, float(drift))
                counters["orbit_steps"] += orbit.t.size - 1
                counters["orbit_halvings"] += orbit.halvings
                every = slice(None, None, max(1, orbit.t.size // 2000))
                picked = np.column_stack((orbit.t[every], orbit.z[every],
                                          orbit.theta[every], orbit.hamiltonian[every]))
                del orbit  # released before the next orbit is integrated
                if theta0 == 0.0:
                    twins[z0] = picked
            for row in picked.tolist():
                yield orbit_id, *row

    portrait_files = []
    for norm in tm.portrait_norms:
        name = f"portrait_N{file_tag(norm)}.csv"
        _write_csv(out / name, ["orbit", "t", "z", "theta", "hamiltonian"],
                   portrait_rows(params_at(norm)))
        portrait_files.append(name)

    crit_here = critical_norms(params_at(1.0))
    quantities = {}
    for label, value in crit_here.present().items():
        quantities[f"{label}_critical"] = value
    coalescence = coalescence_sigma(
        basis, inter.family, inter.s, inter.delta, tm.sigma_min, tm.sigma_max
    )
    if coalescence is not None:
        quantities["n23_coalescence_sigma"] = coalescence
    _write_json(
        out / "twomode_summary.json",
        {
            "sigma": inter.sigma,
            "critical_norms": {k: crit_here.present().get(k) for k in ("n0", "n1", "n2", "n3")},
            "n23_coalescence_sigma": coalescence,
            "max_hamiltonian_drift": max_drift,
        },
    )
    artifacts = ["fixed_points.csv", "critical_norms.csv", "twomode_summary.json"]
    artifacts.extend(portrait_files)
    return artifacts, quantities, counters


def run_continue(config: RunConfig, out: Path):
    problem = _build_problem(config)
    basis = _build_basis(problem.grid, _build_potential(config))
    traced = _trace_branches(problem, basis, config)

    rows = []
    events = []
    pitchfork_entries = []
    termination = {}
    quantities = {}
    counters = {}
    for family, branch, pitchforks in traced:
        spectra = sweep_branch(problem, branch.states)
        for state, spec in zip(branch.states, spectra):
            rows.append([state.mu, state.norm, family, spec.unstable_count, spec.max_real_part])
        for event in branch.events:
            events.append(
                {"family": family, "kind": event.kind, "mu": event.mu, "norm": event.norm}
            )
        termination[family] = branch.termination
        counters[f"newton_iterations_{family}"] = branch.states[0].newton_iterations
        counters[f"corrector_iterations_{family}"] = sum(
            state.newton_iterations for state in branch.states[1:]
        )
        counters[f"rejected_steps_{family}"] = branch.rejected_steps
        counters[f"pitchfork_bisections_{family}"] = sum(pf.bisections for pf in pitchforks)
        for k, pf in enumerate(pitchforks):
            pitchfork_entries.append(
                {"family": family, "mu": pf.state.mu, "norm": pf.state.norm}
            )
            key = "ssb" if k == 0 else ("restore" if k == 1 else f"pitchfork{k + 1}")
            quantities[f"{family}_{key}_mu"] = pf.state.mu

    _write_csv(out / "branches.csv", ["mu", "N", "symmetry", "n_unstable", "max_re_lambda"], rows)
    _write_json(
        out / "events.json",
        {"events": events, "pitchforks": pitchfork_entries, "termination": termination},
    )
    return ["branches.csv", "events.json"], quantities, counters


def run_evolve(config: RunConfig, out: Path):
    problem = _build_problem(config)
    basis = _build_basis(problem.grid, _build_potential(config))
    dy = config.dynamics
    density_stride = max(1, int(round(dy.snapshot_dt / dy.phase_dt)))

    def one_run(index: int, mu: float, state, iterations: int):
        if dy.perturbation == "eigenvector":
            try:
                mode = dominant_unstable_mode(build_bdg(problem, state))
            except StabilityError as exc:
                raise CliError(f"{dy.family} branch: no eigenvector kick at mu={mu} ({exc})") from exc
            initial = perturb_state(problem.grid, state, dy.amplitude, direction=mode.direction)
        elif dy.perturbation == "random":
            initial = perturb_state(
                problem.grid, state, dy.amplitude, rng=np.random.default_rng(config.seed + index)
            )
        else:
            initial = state.psi
        run = evolve(problem, initial, mu, dy.t_end, dt=dy.dt, snapshot_dt=dy.phase_dt)
        tag = file_tag(mu)
        rows = []  # the PhaseSeries row of each sample

        def density_rows():
            """Reduce each sample as it arrives; yield the density of every
            density_stride-th one."""
            for k, (t, psi, n_t) in enumerate(run):
                rows.append(project_phase_plane(basis, t, psi, n_t))
                if k % density_stride == 0:
                    yield t, *(np.abs(psi) ** 2).tolist()

        density_name = f"density_mu{tag}.csv"
        header = ["t", *[format(x, ".17g") for x in problem.grid.points]]
        _write_csv(out / density_name, header, density_rows())

        phase_name = f"phase_mu{tag}.csv"
        _write_csv(
            out / phase_name,
            ["t", "z", "theta", "residual_fraction", "theta_defined", "N"],
            (row[:6] for row in rows),
        )
        series = PhaseSeries(*map(np.array, zip(*rows)))

        quantities = {}
        onset = onset_time(series)
        if onset is not None:
            quantities[f"onset_mu{tag}"] = onset
        try:
            quantities[f"growth_rate_mu{tag}"] = growth_rate(series)
        except DynamicsError:
            pass
        norms = series.norm_series
        drift = float(np.max(np.abs(norms - norms[0])) / max(norms[0], 1e-300))
        counters = {
            f"fixed_point_passes_mu{tag}": run.fixed_point_passes,
            f"max_passes_per_step_mu{tag}": run.max_passes_per_step,
            f"newton_iterations_mu{tag}": iterations,
        }
        return [density_name, phase_name], quantities, drift, counters

    artifacts = []
    quantities = {}
    counters = {}
    walk = _states_at_mu(problem, basis, config, dy.family, dy.mu_list)
    for index, (mu, (state, iterations)) in enumerate(zip(dy.mu_list, walk)):
        names, q, drift, c = one_run(index, mu, state, iterations)
        artifacts.extend(names)
        quantities.update(q)
        quantities["max_norm_drift"] = max(quantities.get("max_norm_drift", 0.0), drift)
        counters.update(c)
    return artifacts, quantities, counters


def run_thermal(config: RunConfig, out: Path):
    """Check the screened-Poisson response against the exponential-kernel
    convolution, on a Gaussian beam 0.8 exp(-x^2) and on five uniform
    random sources drawn from the config seed."""
    grid = _build_grid(config)
    th = config.thermal
    x = grid.points
    beam = 0.8 * np.exp(-(x**2))
    intensity = beam**2
    solved = solve_screened_poisson(grid, intensity, th.d, th.sigma0)
    plan = ConvolutionPlan(Kernel("exponential", math.sqrt(th.d)), grid)
    convolved = plan.apply(th.sigma0 * (intensity - intensity**2))
    beam_diff = float(np.max(np.abs(solved - convolved)))

    rng = np.random.default_rng(config.seed)
    random_diff = 0.0
    for _ in range(5):
        source = rng.uniform(0.0, 1.0, grid.n_points)
        m = solve_screened_poisson(grid, source, th.d, th.sigma0)
        ref = plan.apply(th.sigma0 * (source - source**2))
        random_diff = max(random_diff, float(np.max(np.abs(m - ref))))

    _write_csv(
        out / "absorption.csv",
        ["x", "intensity", "m", "m_convolution"],
        zip(x, intensity, solved, convolved),
    )
    worst = max(beam_diff, random_diff)
    _write_json(
        out / "thermal_check.json",
        {
            "d": th.d,
            "sigma0": th.sigma0,
            "max_diff_beam": beam_diff,
            "max_diff_random": random_diff,
            "tolerance": 1e-6,
            "equivalent": worst <= 1e-6,
        },
    )
    return ["absorption.csv", "thermal_check.json"], {
        "screened_poisson_max_diff": worst
    }, {}


RUNNERS = {
    "spectrum": run_spectrum,
    "overlaps": run_overlaps,
    "twomode": run_twomode,
    "continue": run_continue,
    "evolve": run_evolve,
    "thermal": run_thermal,
}


# --- regression ----------------------------------------------------------------


def run_regress(preset, config: RunConfig, out: Path):
    artifacts_dir = out / "artifacts"
    artifacts_dir.mkdir(parents=True, exist_ok=True)

    pipeline_error = None
    quantities = {}
    counters = {}
    sub_artifacts = []
    try:
        sub_artifacts, quantities, counters = RUNNERS[preset.subcommand](config, artifacts_dir)
    except Exception as exc:  # pipeline failure -> ERROR rows, not FAIL
        pipeline_error = f"{type(exc).__name__}: {exc}"

    rows = []
    for target in preset.expected:
        if pipeline_error is not None or target.quantity not in quantities:
            status, measured = "ERROR", None
        else:
            measured = quantities[target.quantity]
            status = (
                "PASS" if abs(measured - target.value) <= target.tolerance else "FAIL"
            )
        rows.append(
            {
                "quantity": target.quantity,
                "expected": target.value,
                "measured": measured,
                "tolerance": target.tolerance,
                "status": status,
                "provenance": target.provenance,
            }
        )

    vacuous = not preset.expected
    statuses = {row["status"] for row in rows}
    if pipeline_error is not None or "ERROR" in statuses:
        overall = "ERROR"
    elif "FAIL" in statuses:
        overall = "FAIL"
    else:
        overall = "PASS"

    report = {
        "preset": preset.name,
        "subcommand": preset.subcommand,
        "status": overall,
        "rows": rows,
        "pipeline_error": pipeline_error,
    }
    if vacuous:
        report["warning"] = "preset has no regression targets; result is vacuous"
    _write_json(out / "report.json", report)
    columns = ["quantity", "expected", "measured", "tolerance", "status", "provenance"]
    _write_csv(out / "report.csv", columns, [[r[c] for c in columns] for r in rows])

    print(f"preset {preset.name} ({preset.subcommand})")
    for r in rows:
        measured = "-" if r["measured"] is None else format(r["measured"], ".6g")
        print(
            f"  {r['quantity']:<26} expected {r['expected']:>10.6g} +- {r['tolerance']:<8.3g}"
            f" measured {measured:>10} {r['status']:<5} [{r['provenance']}]"
        )
    if vacuous:
        print("  WARNING: preset has no regression targets; result is vacuous")
    if pipeline_error is not None:
        print(f"  pipeline error: {pipeline_error}")
    print(f"result: {overall}")

    artifacts = ["report.json", "report.csv"]
    artifacts.extend(f"artifacts/{name}" for name in sub_artifacts)
    _finish_run(out, "regress", config, artifacts, quantities, counters, preset.name)
    return 0 if overall == "PASS" else 1


# --- entry point ----------------------------------------------------------------


def _finish_run(out, subcommand, config, artifacts, quantities, counters, preset=None):
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        fh.write(config_to_json(config))
        fh.write("\n")
    manifest = {
        "subcommand": subcommand,
        "preset": preset,
        "seed": config.seed,
        "config_hash": config_hash(config),
        "artifacts": sorted(artifacts + ["config.json"]),
        "quantities": quantities,
        "counters": counters,
    }
    _write_json(out / "manifest.json", manifest)


def _resolve_config(args) -> RunConfig:
    """The preset's, the file's or the default config, with any --seed
    override, passed through `validate_config` whatever its source."""
    if args.preset:
        preset = get_preset(args.preset)
        if args.subcommand not in ("regress", preset.subcommand):
            raise CliError(
                f"preset {preset.name!r} belongs to subcommand {preset.subcommand!r}"
            )
        config = preset.config
    elif args.config:
        config = load_config(args.config)
    else:
        config = RunConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    problems = validate_config(config)
    if problems:
        raise ConfigError(problems)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqdw",
        description="Double-well states of a cubic-quintic nonlocal Schrodinger equation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in (*RUNNERS, "regress"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--out", help="output directory (default runs/<subcommand>)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--preset", help="named scenario preset")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config and args.preset:
            raise CliError("pass either --config or --preset, not both")
        if args.subcommand == "regress" and not args.preset:
            raise CliError("regress requires --preset")
        config = _resolve_config(args)
        if args.subcommand == "regress":
            out = Path(args.out or f"runs/regress-{args.preset}")
            out.mkdir(parents=True, exist_ok=True)
            return run_regress(get_preset(args.preset), config, out)
        out = Path(args.out or f"runs/{args.subcommand}")
        out.mkdir(parents=True, exist_ok=True)
        artifacts, quantities, counters = RUNNERS[args.subcommand](config, out)
        _finish_run(out, args.subcommand, config, artifacts, quantities, counters, args.preset)
        return 0
    except ConfigError as exc:
        _emit_error({"error": "ConfigError", "message": str(exc), "fields": exc.problems})
        return 2
    except PresetError as exc:
        _emit_error({"error": "PresetError", "message": str(exc.args[0])})
        return 2
    except FileNotFoundError as exc:
        _emit_error(
            {
                "error": "FileNotFoundError",
                "message": str(exc),
                "path": exc.filename or getattr(exc, "filename2", None),
            }
        )
        return 2
    except CliError as exc:
        _emit_error({"error": "CliError", "message": str(exc)})
        return 2
    except Exception as exc:
        _emit_error({"error": type(exc).__name__, "message": str(exc)})
        return 1


def _emit_error(payload) -> None:
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
