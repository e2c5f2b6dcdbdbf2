"""End-to-end checks of the command-line pipeline on small configurations.

Every test drives main() in process with --out pointed at tmp_path, so the
suite exercises argument parsing, config loading, the runners, and the
artifact layout exactly as a shell invocation would, without subprocess cost.
"""

import csv
import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cqdw.cli as cli_module
from cqdw.cli import (
    RUNNERS,
    _build_basis,
    _build_grid,
    _build_potential,
    _write_csv,
    build_parser,
    main,
)
from cqdw.config import RunConfig, ThermalConfig, config_hash, validate_config
from cqdw.continuation import StationaryProblem
from cqdw.discretization import GAUSSIAN, Kernel, PotentialParams, build_grid
from cqdw.dynamics import MAX_FIXED_POINT
from cqdw.overlaps import compute_overlaps
from cqdw.presets import PRESETS, RegressionTarget, ScenarioPreset, get_preset
from cqdw.spectrum import default_basis
from cqdw.stability import DEFAULT_THRESHOLD
from cqdw.twomode import ModeParams, TwoModeState, integrate_orbit


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _fmt(value) -> str:
    """The cell text of the csv.writer-based writer that `_write_csv` replaced."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return "" if value is None else str(value)


def _reference_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(map(_fmt, row))


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


TINY_EVOLVE = {
    "dynamics": {
        "mu_list": [0.15],
        "family": "sym",
        "t_end": 2.0,
        "perturbation": "none",
    }
}


def test_spectrum_run_and_manifest(tmp_path):
    out = tmp_path / "spec"
    assert main(["spectrum", "--out", str(out)]) == 0
    eig = json.loads((out / "eigenvalues.json").read_text())
    assert abs(eig["omega0"] - 0.132786) < 1e-4
    assert abs(eig["omega1"] - 0.155695) < 1e-4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "spectrum"
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    assert set(manifest["artifacts"]) == {"config.json", "eigenvalues.json", "modes.csv"}
    assert manifest["config_hash"] == config_hash(RunConfig())
    header = _rows(out / "modes.csv")[0]
    assert header == ["x", "u0", "u1", "phi_left", "phi_right"]


def test_repeated_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--out", str(a)]) == 0
    assert main(["spectrum", "--out", str(b)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


def test_overlaps_artifacts(tmp_path):
    cfg = _write(
        tmp_path / "c.json",
        {"overlaps": {"count": 7, "sigma_min": 0.5, "sigma_max": 12.0}},
    )
    out = tmp_path / "ov"
    assert main(["overlaps", "--config", cfg, "--out", str(out)]) == 0
    rows = _rows(out / "overlaps.csv")
    assert rows[0] == ["sigma", *[f"eta{i}" for i in range(12)], "regime"]
    assert len(rows) == 8
    assert {r[-1] for r in rows[1:]} <= {"case1", "case2", "case3"}
    thresholds = json.loads((out / "thresholds.json").read_text())
    assert thresholds["sigma_b"] == pytest.approx(2.9656, abs=2e-3)
    assert thresholds["sigma_c"] == pytest.approx(9.1521, abs=2e-3)


def test_overlaps_regimes_follow_the_well(tmp_path):
    # a barrier of 2 moves both boundaries away from the default well's
    # 2.97 and 9.15; thresholds.json and every row's regime follow it, and
    # each row carries the regime that the reduction reads at its sigma
    cfg = _write(tmp_path / "c.json", {"potential": {"barrier_height": 2.0}})
    out = tmp_path / "ov"
    assert main(["overlaps", "--config", cfg, "--out", str(out)]) == 0
    thresholds = json.loads((out / "thresholds.json").read_text())
    assert thresholds["sigma_b"] == pytest.approx(3.637, abs=2e-3)
    assert thresholds["sigma_c"] == pytest.approx(10.05, abs=2e-3)
    basis = default_basis(build_grid(20.0, 0.1), PotentialParams(0.1, 2.0, 0.5))
    rows = _rows(out / "overlaps.csv")[1:]
    assert len(rows) == RunConfig().overlaps.count
    for row in rows:
        overlaps = compute_overlaps(basis, Kernel(GAUSSIAN, float(row[0])))
        assert row[-1] == overlaps.regime, row[0]


def test_twomode_artifacts(tmp_path):
    cfg = _write(
        tmp_path / "c.json",
        {
            "twomode": {
                "n_count": 12,
                "sigma_count": 8,
                "portrait_norms": [5.0],
                "portrait_t_end": 40.0,
            }
        },
    )
    out = tmp_path / "tm"
    assert main(["twomode", "--config", cfg, "--out", str(out)]) == 0
    fixed = _rows(out / "fixed_points.csv")
    assert fixed[0] == ["N", "family", "z", "theta", "lambda_sq", "type"]
    assert {r[-1] for r in fixed[1:]} <= {"saddle", "center"}
    summary = json.loads((out / "twomode_summary.json").read_text())
    assert abs(summary["critical_norms"]["n1"] - 4.9796) < 2e-3
    assert abs(summary["n23_coalescence_sigma"] - 7.51) < 0.05
    assert summary["max_hamiltonian_drift"] < 1e-8
    assert (out / "portrait_N5.csv").exists()


def test_twomode_manifest_counts_orbit_steps_and_halvings(tmp_path):
    cfg = _write(
        tmp_path / "c.json",
        {"twomode": {"n_count": 2, "sigma_count": 2, "portrait_norms": [1.0, 5.0],
                     "portrait_t_end": 20.0}},
    )
    out = tmp_path / "tm"
    assert main(["twomode", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # 2 norms x 11 integrated starts, each 20 / 0.01 steps at the default dt,
    # none halved; (0.25, 0), (0.5, 0) and (0.75, 0) reuse their mirror twins
    assert manifest["counters"] == {"orbit_steps": 2 * 11 * 2000, "orbit_halvings": 0}


def test_twomode_mirrored_orbits_match_direct_integration(tmp_path):
    """Each orbit from (z0, 0) with z0 > 0 is the mirror of an earlier one;
    the stream keeps the twins of one norm apart from the next."""
    cfg = _write(
        tmp_path / "c.json",
        {"twomode": {"n_count": 2, "sigma_count": 2, "portrait_norms": [1.0, 5.0],
                     "portrait_t_end": 20.0}},
    )
    out = tmp_path / "tm"
    assert main(["twomode", "--config", cfg, "--out", str(out)]) == 0
    config = RunConfig()
    basis = _build_basis(_build_grid(config), _build_potential(config))
    inter = config.interaction
    overlaps = compute_overlaps(basis, Kernel(inter.family, inter.sigma))
    for norm, name in ((1.0, "portrait_N1.csv"), (5.0, "portrait_N5.csv")):
        params = ModeParams.from_overlaps(overlaps, basis, inter.s, inter.delta, norm)
        rows = _rows(out / name)[1:]
        for orbit_id, z0 in ((8, 0.25), (10, 0.5), (12, 0.75)):
            orbit = integrate_orbit(TwoModeState(z0, 0.0), params, 20.0)
            # 2,001 points: the portrait keeps every one
            direct = [[str(orbit_id), *map(_fmt, values)] for values in zip(
                orbit.t.tolist(), orbit.z.tolist(), orbit.theta.tolist(),
                orbit.hamiltonian.tolist())]
            assert [r for r in rows if r[0] == str(orbit_id)] == direct


CELLS = [
    0, -7, 2**63, np.int64(-3), np.int32(5), np.uint64(2**64 - 1),
    0.1, -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1.0, -2.5e-310,
    np.float64(-0.0), np.float64(math.inf), np.float64(math.nan), np.float64(5e-324),
    np.float64(1e16), np.float64(1 / 3), np.float32(0.1),
    True, False, np.True_, np.False_, None,
    "", "sym", "a,b", 'say "hi"', "line\nbreak", "cr\r", " lead", "tab\t", "%d %s",
]


def _writer_parity(tmp_path: Path, header, rows) -> None:
    mine, ref = tmp_path / "mine.csv", tmp_path / "ref.csv"
    _write_csv(mine, header, rows)
    _reference_csv(ref, header, rows)
    assert mine.read_bytes() == ref.read_bytes()


def test_csv_writer_keeps_every_cell_byte(tmp_path):
    """Each kind of cell a table holds, alone beside a float and mixed in rows
    whose types change from row to row."""
    rows = [[cell, 0.5] for cell in CELLS] + [[0.5, cell] for cell in CELLS]
    rows += [CELLS, CELLS[::-1], [1, 2.0, "x", None, True], [1.0, 2, None, "x", False]]
    _writer_parity(tmp_path, ["a", "b,c", 'q"'], rows)


def test_csv_writer_keeps_the_table_shapes_bytes(tmp_path):
    """The portrait's (orbit, t, z, theta, H) tuples, the density array with
    its 17-digit x header, zipped numpy columns with a bool one, and rows
    with a text column and a signed-zero float one."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal((300, 4)) * np.array([1e3, 1.0, math.pi, 1e-7])
    portrait = [(k // 20, *row) for k, row in enumerate(values.tolist())]
    _writer_parity(tmp_path, ["orbit", "t", "z", "theta", "hamiltonian"], portrait)
    x = 0.1 * np.arange(-200, 201)
    density = np.column_stack((np.arange(7) * 0.2, rng.random((7, x.size)) ** 2))
    _writer_parity(tmp_path, ["t", *[format(v, ".17g") for v in x]], density)
    flags = rng.random(40) > 0.5
    zipped = list(zip(values[:40, 0], values[:40, 1], flags, rng.integers(-5, 5, 40)))
    _writer_parity(tmp_path, ["t", "z", "defined", "n"], zipped)
    labels = [[0.1 * k, float(k), ("sym", "anti", "asym-sym")[k % 3], k % 2,
               (-0.0, 3e-9, 0.0125)[k % 3]] for k in range(30)]
    _writer_parity(tmp_path, ["mu", "N", "symmetry", "n_unstable", "max_re_lambda"], labels)


def test_continue_finds_pitchfork_and_daughter(tmp_path):
    cfg = _write(
        tmp_path / "c.json",
        {"scan": {"mu_min": 0.15, "mu_max": 0.20, "families": ["anti"]}},
    )
    out = tmp_path / "ct"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 0
    events = json.loads((out / "events.json").read_text())
    assert len(events["pitchforks"]) == 1
    assert abs(events["pitchforks"][0]["mu"] - 0.168565) < 1e-4
    rows = _rows(out / "branches.csv")
    assert rows[0] == ["mu", "N", "symmetry", "n_unstable", "max_re_lambda"]
    families = {r[2] for r in rows[1:]}
    assert families == {"anti", "asym-anti"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert abs(manifest["quantities"]["anti_ssb_mu"] - 0.168565) < 1e-4
    counters = manifest["counters"]
    assert set(counters) == {
        f"{name}_{family}"
        for name in ("newton_iterations", "corrector_iterations", "rejected_steps",
                     "pitchfork_bisections")
        for family in ("anti", "asym-anti")
    }
    assert counters["newton_iterations_anti"] >= 1  # the seed solve
    assert counters["newton_iterations_asym-anti"] >= 1  # the branch switch
    assert counters["pitchfork_bisections_anti"] >= 1
    assert counters["pitchfork_bisections_asym-anti"] == 0
    # past the pitchfork the parent is unstable, the daughter is not
    unstable = [r for r in rows[1:] if r[2] == "anti" and float(r[0]) > 0.175]
    assert unstable and all(int(r[3]) >= 1 for r in unstable)
    # a state counts unstable modes exactly when its largest growth rate passes the threshold
    assert all((int(r[3]) >= 1) == (float(r[4]) > DEFAULT_THRESHOLD) for r in rows[1:])


def test_scan_window_without_the_seed_is_a_cli_error(tmp_path, capsys):
    # the sym seed sits at omega0 + 0.005 = 0.1378, below mu_min: traced from
    # there, the branch would write rows outside the window
    cfg = _write(tmp_path / "c.json",
                 {"grid": {"half_width": 12.0}, "scan": {"mu_min": 0.2, "mu_max": 0.45}})
    out = tmp_path / "ct"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CliError"
    assert err["message"] == ("sym branch: its seed at mu=0.137789 lies outside "
                              "the scan window [0.2, 0.45]")
    assert not (out / "manifest.json").exists()


def test_each_branch_leaves_its_seed_the_way_s_points(tmp_path):
    # with s = -1 mu falls as N grows out of the doublet; traced the other
    # way, both parents folded at N < 1e-3 and the daughter stopped on its
    # own birth pitchfork as if it were a merge
    cfg = _write(tmp_path / "c.json", {
        "grid": {"half_width": 12.0}, "interaction": {"s": -1, "delta": -1},
        "scan": {"mu_min": -0.3, "mu_max": 0.2, "norm_cap": 4.0}})
    out = tmp_path / "ct"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 0
    events = json.loads((out / "events.json").read_text())
    assert not [e for e in events["events"] if e["kind"] == "fold" and e["norm"] < 0.01]
    assert events["termination"]["asym-sym"] == "mu_range"


def test_walk_into_the_vacuum_is_a_cli_error(tmp_path, capsys):
    # with the default s = +1 the antisymmetric branch starts at
    # omega1 = 0.1557 and mu rises with N, so mu = 0.14 lies in the vacuum;
    # it folds at mu = 0.374, so a walk to mu = 0.40 meets the fold; a norm
    # cap of 0.3 stops the symmetric trace short of mu = 0.2
    anti = {"family": "anti", "t_end": 1.0}
    for payload, named in (
        ({"dynamics": {"mu_list": [0.14], **anti}}, ["anti branch", "vacuum"]),
        ({"dynamics": {"mu_list": [0.40], **anti}},
         ["anti branch folds", "mu=0.374042", "N=5.38", "mu=0.4"]),
        ({"scan": {"norm_cap": 0.3},
          "dynamics": {"mu_list": [0.2], "family": "sym", "t_end": 1.0}},
         ["sym branch", "norm_cap", "scan.norm_cap=0.3"]),
    ):
        cfg = _write(tmp_path / "c.json", payload)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliError"
        for text in named:
            assert text in err["message"]
    # mu = 0.158 lies between omega1 and the seed at omega1 + 0.005: the walk
    # traces down from the seed to it
    cfg = _write(tmp_path / "c.json",
                 {"dynamics": {"mu_list": [0.158], "perturbation": "none", **anti}})
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "phase_mu0.158.csv").exists()


def test_targets_short_of_a_fold_or_cap_are_solved(tmp_path, capsys):
    # the anti branch folds at mu = 0.374, and a norm cap of 0.3 stops the
    # sym trace at mu = 0.158: the nearer target of each run is solved and
    # evolved before the farther one fails
    for payload, solved, named in (
        ({"dynamics": {"mu_list": [0.19, 0.40], "family": "anti"}}, "0.19", "anti branch folds"),
        ({"scan": {"norm_cap": 0.3}, "dynamics": {"mu_list": [0.15, 0.2], "family": "sym"}},
         "0.15", "scan.norm_cap=0.3"),
    ):
        payload["dynamics"].update(t_end=1.0, perturbation="none")
        cfg = _write(tmp_path / "c.json", payload)
        out = tmp_path / solved
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
        assert named in json.loads(capsys.readouterr().err)["message"]
        assert (out / f"phase_mu{solved}.csv").exists()


def test_evolve_traces_each_direction_once(tmp_path):
    # the anti seed sits at omega1 + 0.005 = 0.1607, so 0.158 lies below it
    # and 0.19 and 0.25 above: one run solves each target from the same traced
    # states as a run of its own, with fewer Newton iterations than those runs
    def run(mu_list, name):
        payload = {"dynamics": {"mu_list": mu_list, "family": "anti", "t_end": 1.0,
                                "perturbation": "none"}}
        out = tmp_path / name
        assert main(["evolve", "--config", _write(tmp_path / f"{name}.json", payload),
                     "--out", str(out)]) == 0
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        return out, {k: v for k, v in counters.items() if k.startswith("newton_iterations")}

    together, counters = run([0.19, 0.158, 0.25], "all")
    alone_total = 0
    for mu in (0.19, 0.158, 0.25):
        out, alone = run([mu], f"mu{mu:g}")
        for kind in ("density", "phase"):
            name = f"{kind}_mu{mu:g}.csv"
            assert (together / name).read_bytes() == (out / name).read_bytes()
        alone_total += alone[f"newton_iterations_mu{mu:g}"]
        if mu == 0.19:  # the first target spends what a run of its own does
            assert counters["newton_iterations_mu0.19"] == alone["newton_iterations_mu0.19"]
    assert sum(counters.values()) < alone_total


def test_evolve_stable_run_layout(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_EVOLVE)
    out = tmp_path / "ev"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    density = _rows(out / "density_mu0.15.csv")
    assert density[0][0] == "t" and len(density[0]) == 402
    assert len(density) == 4  # header + t = 0, 1, 2
    phase = _rows(out / "phase_mu0.15.csv")
    assert phase[0] == ["t", "z", "theta", "residual_fraction", "theta_defined", "N"]
    assert len(phase) == 12  # header + 11 samples at dt = 0.2
    assert all(r[4] == "1" for r in phase[1:])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["quantities"]["max_norm_drift"] < 1e-10
    counters = manifest["counters"]
    assert set(counters) == {
        "fixed_point_passes_mu0.15",
        "max_passes_per_step_mu0.15",
        "newton_iterations_mu0.15",
    }
    assert counters["fixed_point_passes_mu0.15"] >= 400  # at least one pass per step
    assert 1 <= counters["max_passes_per_step_mu0.15"] <= MAX_FIXED_POINT + 1
    assert counters["newton_iterations_mu0.15"] >= 1  # the seed solve at least


def test_evolve_memory_does_not_grow_with_the_sample_count(tmp_path, monkeypatch):
    """From the call to evolve on, the run keeps no field per phase sample:
    30 more samples raise the tracemalloc peak by less than a quarter of one
    complex grid field each."""
    real_evolve = cli_module.evolve
    growth = {}

    def traced_from_here(*args, **kwargs):
        tracemalloc.reset_peak()
        growth["base"] = tracemalloc.get_traced_memory()[0]
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(cli_module, "evolve", traced_from_here)
    for t_end in (2.0, 8.0):
        payload = {"dynamics": {**TINY_EVOLVE["dynamics"], "t_end": t_end}}
        cfg = _write(tmp_path / "c.json", payload)
        tracemalloc.start()
        try:
            assert main(["evolve", "--config", cfg, "--out", str(tmp_path / f"t{t_end:g}")]) == 0
            growth[t_end] = tracemalloc.get_traced_memory()[1] - growth["base"]
        finally:
            tracemalloc.stop()
    extra_samples = round((8.0 - 2.0) / 0.2)
    field_bytes = 16 * build_grid(20.0, 0.1).n_points
    assert growth[8.0] - growth[2.0] < extra_samples * field_bytes / 4, growth


def test_evolve_failing_midway_exits_1_without_a_manifest(tmp_path, monkeypatch, capsys):
    """A DynamicsError partway through the run ends it with exit status 1 and
    the JSON diagnostic, and no manifest, while the density rows streamed
    before the failure stay in their CSV."""
    real_potential = StationaryProblem.nonlinear_potential_density
    passes = 0

    def non_finite_after_300_passes(self, density):
        # counts the midpoint passes only, not the mu-walk's residuals
        nonlocal passes
        if sys._getframe(1).f_globals["__name__"] == "cqdw.dynamics":
            passes += 1
            if passes > 300:
                return np.full_like(density, np.nan)
        return real_potential(self, density)

    monkeypatch.setattr(StationaryProblem, "nonlinear_potential_density",
                        non_finite_after_300_passes)
    cfg = _write(tmp_path / "c.json", TINY_EVOLVE)
    out = tmp_path / "ev"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message"}
    assert err["error"] == "DynamicsError"
    assert re.fullmatch(r"midpoint iteration stalled at t=1\.\d{4} \(last update nan\); "
                        r"reduce dt or the field amplitude", err["message"]), err["message"]
    assert not (out / "manifest.json").exists()
    assert not (out / "phase_mu0.15.csv").exists()
    density = _rows(out / "density_mu0.15.csv")
    assert [row[0] for row in density] == ["t", "0", "1"]


def test_two_mu_evolve_rerun_is_identical(tmp_path):
    payload = {
        "dynamics": {
            "mu_list": [0.15, 0.16],
            "family": "sym",
            "t_end": 1.0,
            "perturbation": "none",
        }
    }
    cfg = _write(tmp_path / "c.json", payload)
    first = tmp_path / "r1"
    assert main(["evolve", "--config", cfg, "--out", str(first)]) == 0
    second = tmp_path / "r2"
    assert main(["evolve", "--config", cfg, "--out", str(second)]) == 0
    assert _tree_bytes(first) == _tree_bytes(second)
    for tag in ("0.15", "0.16"):
        assert (first / f"density_mu{tag}.csv").exists()
        assert (first / f"phase_mu{tag}.csv").exists()


def test_random_kick_draws_from_the_seed_plus_the_mu_index(tmp_path):
    # the k-th mu of mu_list is kicked from default_rng(seed + k): a rerun
    # repeats every byte, another --seed moves every density, and mu = 0.25
    # second in the list at seed 1 gets the kick it gets first at seed 2
    def run(mu_list, seed, name):
        payload = {"grid": {"half_width": 10.0},
                   "dynamics": {"mu_list": mu_list, "t_end": 1.0, "perturbation": "random"}}
        out = tmp_path / name
        assert main(["evolve", "--config", _write(tmp_path / f"{name}.json", payload),
                     "--seed", str(seed), "--out", str(out)]) == 0
        return out

    def density(out, tag):
        return (out / f"density_mu{tag}.csv").read_bytes()

    first = run([0.19, 0.25], 1, "first")
    assert _tree_bytes(run([0.19, 0.25], 1, "rerun")) == _tree_bytes(first)
    reseeded = run([0.19, 0.25], 2, "reseeded")
    for tag in ("0.19", "0.25"):
        assert density(reseeded, tag) != density(first, tag)
    assert density(run([0.25], 1, "alone"), "0.25") != density(first, "0.25")
    assert density(run([0.25], 2, "alone2"), "0.25") == density(first, "0.25")


def test_eigenvector_kick_at_a_stable_state_is_a_cli_error(tmp_path, capsys):
    # the sym branch stays stable up to its pitchfork at mu = 0.355, so at
    # mu = 0.2 the BdG spectrum has no growing mode to kick along
    payload = {"dynamics": {"mu_list": [0.2, 0.25], "family": "sym", "t_end": 1.0}}
    cfg = _write(tmp_path / "c.json", payload)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CliError"
    for text in ("sym branch", "mu=0.2", "max rate"):
        assert text in err["message"], err["message"]


def test_config_errors_are_collected(tmp_path, capsys):
    cfg = _write(
        tmp_path / "bad.json",
        {"grid": {"spacing": -1}, "interaction": {"family": "box", "sigma": "wide"}},
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    fields = " ".join(payload["fields"])
    assert "grid.spacing" in fields
    assert "interaction.family" in fields
    assert "interaction.sigma" in fields


# One config per rule that validate_config alone states: the first four once
# passed the gate and failed inside the library with exit 1; each other one
# stands for a library guard that the gate makes redundant.
FIELD_RULES = [
    ("spectrum", {"potential": {"barrier_height": -1.0}}, "potential.barrier_height"),
    ("evolve", {"dynamics": {**TINY_EVOLVE["dynamics"], "dt": 0.05}}, "dynamics.dt"),
    ("evolve", {"dynamics": {**TINY_EVOLVE["dynamics"], "phase_dt": 0.2000000005,
                             "snapshot_dt": 0.2000000005}}, "dynamics.phase_dt"),
    ("spectrum", {"grid": {"half_width": 0.1000000005, "spacing": 0.001}}, "grid.half_width"),
    ("spectrum", {"grid": {"half_width": 0.05, "spacing": 0.1}}, "grid.half_width"),
    ("spectrum", {"potential": {"trap_frequency": -0.1}}, "potential.trap_frequency"),
    ("spectrum", {"potential": {"barrier_width": 0.0}}, "potential.barrier_width"),
    ("continue", {"scan": {"mu_min": 0.3, "mu_max": 0.2}}, "scan.mu_min"),
    ("continue", {"scan": {"direction": 2}}, "scan.direction"),  # a deleted field, refused as unknown
    ("continue", {"scan": {"norm_cap": 0.0}}, "scan.norm_cap"),
    ("continue", {"interaction": {"s": 0}}, "interaction.s"),
    ("twomode", {"interaction": {"delta": 2}}, "interaction.delta"),
    ("continue", {"interaction": {"sigma": -1.0}}, "interaction.sigma"),
    ("twomode", {"twomode": {"n_min": 0.0}}, "twomode.n_min"),
    ("twomode", {"twomode": {"portrait_norms": [-1.0]}}, "twomode.portrait_norms"),
    ("twomode", {"twomode": {"portrait_t_end": 0.0}}, "twomode.portrait_t_end"),
    ("twomode", {"twomode": {"sigma_min": 0.0}}, "twomode.sigma_min"),
    ("overlaps", {"overlaps": {"sigma_min": 0.0}}, "overlaps.sigma_min"),
    ("evolve", {"dynamics": {**TINY_EVOLVE["dynamics"], "dt": 0.0}}, "dynamics.dt"),
    ("evolve", {"dynamics": {**TINY_EVOLVE["dynamics"], "t_end": -1.0}}, "dynamics.t_end"),
    ("evolve", {"dynamics": {**TINY_EVOLVE["dynamics"], "amplitude": -1.0}}, "dynamics.amplitude"),
    ("evolve", {"dynamics": {"t_end": float("inf")}}, "dynamics.t_end"),
    ("thermal", {"thermal": {"d": 0.0}}, "thermal.d"),
]


# Config fields that no run set, now deleted: naming one is a config error.
DELETED_FIELDS = [
    ("overlaps", "log_spaced", False),
    ("overlaps", "recompute_thresholds", True),
    ("scan", "seed_delta_mu", 0.01),
    ("thermal", "beam_amplitude", 0.5),
    ("thermal", "beam_width", 2.0),
    ("thermal", "random_sources", 3),
    ("scan", "trace_daughters", False),
    ("scan", "dump_profiles", True),
    ("scan", "direction", -1),
]


@pytest.mark.parametrize("section, name, value", DELETED_FIELDS,
                         ids=[f"{section}.{name}" for section, name, _ in DELETED_FIELDS])
def test_deleted_field_is_unknown(tmp_path, capsys, section, name, value):
    cfg = _write(tmp_path / "c.json", {section: {name: value}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["fields"] == [f"{section}.{name}: unknown field"]


def test_deleted_section_is_unknown(tmp_path, capsys):
    """The stability section went with `cqdw stability`, whatever it holds."""
    for fields in ({"full_spectra": True}, {"states_path": "states"}):
        cfg = _write(tmp_path / "c.json", {"stability": fields})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["fields"] == ["stability: unknown field"]


@pytest.mark.parametrize("subcommand, payload, field", FIELD_RULES,
                         ids=[f"{rule[2]}-{k}" for k, rule in enumerate(FIELD_RULES)])
def test_field_rule_is_a_config_error(tmp_path, capsys, subcommand, payload, field):
    cfg = _write(tmp_path / "c.json", payload)
    out = tmp_path / "x"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert any(f.startswith(f"{field}:") for f in err["fields"]), err["fields"]
    assert not out.exists()


def test_mu_list_tag_collision_is_rejected(tmp_path, capsys):
    # both values print as 0.15 in the run's file names, so one run would
    # overwrite the other's density and phase files
    dynamics = {**TINY_EVOLVE["dynamics"], "mu_list": [0.1500001, 0.1500002]}
    cfg = _write(tmp_path / "c.json", {"dynamics": dynamics})
    out = tmp_path / "ev"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    assert payload["fields"] == [
        "dynamics.mu_list: 0.1500001 and 0.1500002 both name files mu0.15"
    ]
    assert not (out / "density_mu0.15.csv").exists()


def test_repeated_family_is_rejected(tmp_path, capsys):
    # a second "anti" would trace the branch and its daughter twice, writing
    # every branches.csv row and events.json pitchfork twice under one counter
    scan = {"families": ["anti", "anti"], "mu_min": 0.15, "mu_max": 0.20}
    cfg = _write(tmp_path / "c.json", {"scan": scan})
    out = tmp_path / "ct"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    assert payload["fields"] == ["scan.families: family 'anti' is listed twice"]
    assert not out.exists()


def test_portrait_norm_tag_collision_is_rejected(tmp_path, capsys):
    # both norms print as 5 in the portrait file name, so the second orbit
    # set would overwrite the first and the manifest would list it twice
    cfg = _write(tmp_path / "c.json", {"twomode": {"portrait_norms": [5.0000001, 5.0000002]}})
    out = tmp_path / "tm"
    assert main(["twomode", "--config", cfg, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    assert payload["fields"] == [
        "twomode.portrait_norms: 5.0000001 and 5.0000002 both name files N5"
    ]
    assert not out.exists() or not any(out.iterdir())


def test_cadence_must_divide(tmp_path, capsys):
    # 0.5 / 0.2 would be rounded to density rows every 0.4; 0.0123 / 5e-3
    # would only fail inside evolve, after the mu-walk and the BdG solve
    for cadence, field in (({"snapshot_dt": 0.5, "phase_dt": 0.2}, "dynamics.snapshot_dt"),
                           ({"phase_dt": 0.0123}, "dynamics.phase_dt")):
        cfg = _write(tmp_path / "c.json", {"dynamics": {**TINY_EVOLVE["dynamics"], **cadence}})
        out = tmp_path / field
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert any(f.startswith(f"{field}: must be a whole multiple") for f in payload["fields"])
        assert not out.exists()


def test_missing_config_reports_path(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["spectrum", "--config", missing, "--out", str(tmp_path / "x")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "FileNotFoundError"
    assert payload["path"] == missing


def test_preset_must_match_subcommand(tmp_path, capsys):
    code = main(["evolve", "--preset", "fig01-linear-modes", "--out", str(tmp_path)])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert "spectrum" in payload["message"]


def test_unknown_preset_lists_catalogue(tmp_path, capsys):
    assert main(["spectrum", "--preset", "nope", "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "PresetError"
    assert "fig01-linear-modes" in payload["message"]


def test_config_and_preset_conflict(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {})
    code = main(
        ["spectrum", "--config", cfg, "--preset", "fig01-linear-modes",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "not both" in json.loads(capsys.readouterr().err)["message"]


def test_preset_catalogue_covers_every_figure():
    # a preset named figAA-BB-... serves figures AA and BB
    covered = set()
    for name in PRESETS:
        figures = re.match(r"fig(\d\d(?:-\d\d)*)-", name)
        if figures:
            covered.update(int(k) for k in figures.group(1).split("-"))
    assert covered == set(range(1, 13))
    for preset in PRESETS.values():
        assert preset.subcommand in RUNNERS
        assert get_preset(preset.name) is preset
        assert validate_config(preset.config) == []
        for target in preset.expected:
            assert target.provenance
            assert target.tolerance > 0
    # the time-evolution figures are gated on criterion 08's onset windows
    onsets = {t.quantity: t for t in PRESETS["fig11-12-symmetry-breaking"].expected}
    assert set(onsets) == {"onset_mu0.19", "onset_mu0.25"}
    assert (onsets["onset_mu0.19"].value, onsets["onset_mu0.19"].tolerance) == (225.0, 75.0)
    assert (onsets["onset_mu0.25"].value, onsets["onset_mu0.25"].tolerance) == (110.0, 40.0)


def test_regress_pass(tmp_path, capsys):
    out = tmp_path / "rg"
    assert main(["regress", "--preset", "thermal-check", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "PASS"
    assert report["rows"][0]["status"] == "PASS"
    assert "PASS" in capsys.readouterr().out
    rows = _rows(out / "report.csv")
    assert rows[0] == ["quantity", "expected", "measured", "tolerance", "status", "provenance"]


def _thermal_preset(name, expected):
    return ScenarioPreset(name=name, subcommand="thermal", config=RunConfig(),
                          expected=expected)


def test_regress_fail_exit_code(tmp_path, monkeypatch):
    bad = RegressionTarget("screened_poisson_max_diff", 1.0, 1e-9, "made up")
    monkeypatch.setitem(PRESETS, "tiny-fail", _thermal_preset("tiny-fail", (bad,)))
    out = tmp_path / "rg"
    assert main(["regress", "--preset", "tiny-fail", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "FAIL"


def test_regress_missing_quantity_is_error(tmp_path, monkeypatch):
    ghost = RegressionTarget("does_not_exist", 0.0, 1.0, "made up")
    monkeypatch.setitem(PRESETS, "tiny-ghost", _thermal_preset("tiny-ghost", (ghost,)))
    out = tmp_path / "rg"
    assert main(["regress", "--preset", "tiny-ghost", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0]["status"] == "ERROR"
    assert report["status"] == "ERROR"


def test_regress_pipeline_failure_marks_error(tmp_path, monkeypatch):
    target = RegressionTarget("screened_poisson_max_diff", 0.0, 1e-6, "made up")
    monkeypatch.setitem(PRESETS, "tiny-boom", _thermal_preset("tiny-boom", (target,)))

    def boom(config, out):
        raise RuntimeError("synthetic pipeline failure")

    monkeypatch.setitem(RUNNERS, "thermal", boom)
    out = tmp_path / "rg"
    assert main(["regress", "--preset", "tiny-boom", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ERROR"
    assert report["rows"][0]["status"] == "ERROR"
    assert "synthetic pipeline failure" in report["pipeline_error"]


def test_regress_vacuous_preset_warns(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(PRESETS, "tiny-empty", _thermal_preset("tiny-empty", ()))
    out = tmp_path / "rg"
    assert main(["regress", "--preset", "tiny-empty", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "PASS"
    assert "vacuous" in report["warning"]
    assert "vacuous" in capsys.readouterr().out


def test_regress_requires_preset(capsys):
    assert main(["regress"]) == 2
    assert "preset" in json.loads(capsys.readouterr().err)["message"]


def test_regress_rejects_config(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {})
    code = main(
        ["regress", "--preset", "thermal-check", "--config", cfg,
         "--out", str(tmp_path / "r")]
    )
    assert code == 2
    assert "not both" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "r").exists()


def test_thermal_check_holds_off_the_default_medium(tmp_path):
    cfg = _write(tmp_path / "c.json", {"thermal": {"d": 0.5, "sigma0": 2.0}})
    out = tmp_path / "th"
    assert main(["thermal", "--config", cfg, "--out", str(out)]) == 0
    check = json.loads((out / "thermal_check.json").read_text())
    assert (check["d"], check["sigma0"]) == (0.5, 2.0)
    assert check["equivalent"]


def test_seed_override_lands_in_manifest(tmp_path):
    out = tmp_path / "th"
    assert main(["thermal", "--out", str(out), "--seed", "7"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    config = json.loads((out / "config.json").read_text())
    assert config["seed"] == 7


def test_seed_override_is_validated(tmp_path, capsys):
    for argv in (["spectrum"], ["regress", "--preset", "thermal-check"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["fields"] == ["seed: must be a non-negative integer, got -1"]
        assert not (out / "config.json").exists()


def test_preset_config_is_validated(tmp_path, monkeypatch, capsys):
    # a preset never passes through the file parser, so the CLI's one
    # validate_config call is what checks it, with or without --seed
    bad = ScenarioPreset(name="tiny-bad", subcommand="thermal",
                         config=replace(RunConfig(), thermal=ThermalConfig(d=0.0)))
    monkeypatch.setitem(PRESETS, "tiny-bad", bad)
    for subcommand in ("thermal", "regress"):
        out = tmp_path / subcommand
        assert main([subcommand, "--preset", "tiny-bad", "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["fields"] == ["thermal.d: must be positive, got 0.0"]
        assert not out.exists()


def test_parser_takes_every_runner_and_regress(capsys):
    parser = build_parser()
    for name in (*RUNNERS, "regress"):
        assert parser.parse_args([name]).subcommand == name
    with pytest.raises(SystemExit) as exc:
        main(["stability"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "stability" in err
