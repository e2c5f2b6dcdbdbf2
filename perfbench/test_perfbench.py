"""Tests of the benchmark's own code: span arithmetic and output checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, HashLedger, hash_tree, ledger_for, output_checks


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_a_nested_span_tree():
    clock = FakeClock()
    t = Tracer(clock)

    def at(time, action, *args):
        clock.now = time
        action(*args)

    # cli.main [0, 10]
    #   continuation.newton_solve [1, 6]
    #     continuation.jacobian [2, 4]
    #       discretization.conv_apply (hot) [2.5, 3]
    #     discretization.conv_apply (hot) [4.5, 5]
    #   dynamics.evolve [7, 9.5]
    #     continuation.nonlinear_potential_density (hot) [7, 8.5]
    #       discretization.conv_apply (hot) [7.5, 8]
    at(0.0, t.enter, "cli.main")
    at(1.0, t.enter, "continuation.newton_solve")
    at(2.0, t.enter, "continuation.jacobian")
    at(2.5, t.enter, "discretization.conv_apply", True)
    at(3.0, t.exit)
    at(4.0, t.exit)
    at(4.5, t.enter, "discretization.conv_apply", True)
    at(5.0, t.exit)
    at(6.0, t.exit)
    at(7.0, t.enter, "dynamics.evolve")
    at(7.0, t.enter, "continuation.nonlinear_potential_density", True)
    at(7.5, t.enter, "discretization.conv_apply", True)
    at(8.0, t.exit)
    at(8.5, t.exit)
    at(9.5, t.exit)
    at(10.0, t.exit)

    assert t.self_s("cli.main") == pytest.approx(10 - 5 - 2.5)
    assert t.self_s("continuation.newton_solve") == pytest.approx(5 - 2 - 0.5)
    assert t.self_s("continuation.jacobian") == pytest.approx(2 - 0.5)
    assert t.self_s("dynamics.evolve") == pytest.approx(2.5 - 1.5)
    assert t.self_s("continuation.nonlinear_potential_density") == pytest.approx(1.5 - 0.5)
    assert t.count("discretization.conv_apply") == 3
    assert t.self_s("discretization.conv_apply") == pytest.approx(1.5)

    layers = t.layers()
    assert sum(row["self"] for row in layers.values()) == pytest.approx(10.0)
    # the jacobian inside newton_solve is not counted twice in the layer total
    assert layers["continuation"]["total"] == pytest.approx(5.0 + 1.5)
    assert layers["continuation"]["self"] == pytest.approx(2.5 + 1.5 + 1.0)

    # hot calls are attributed to their nearest individually kept span
    assert t.within[("continuation.nonlinear_potential_density", "dynamics.evolve")] == 1
    assert t.within[("discretization.conv_apply", "continuation.jacobian")] == 1

    t.counters["dynamics.steps"] = 1
    metrics = layer_metrics(t, wall=10.0)
    assert metrics["dynamics.fp_passes"] == 1
    assert metrics["cli.self_s"] == pytest.approx(2.5)
    assert metrics["cli.trace_coverage"] == pytest.approx(0.75)


def _evolve_run(tmp_path, **quantities):
    out = tmp_path / "run"
    out.mkdir()
    values = {"onset_mu0.25": 116.8, "growth_rate_mu0.25": 0.05636, "max_norm_drift": 4.2e-14}
    values.update(quantities)
    (out / "manifest.json").write_text(json.dumps({"quantities": values}))
    (out / "phase_mu0.25.csv").write_text("t,z\n0,0\n")
    return out


def _failed(checks):
    return {c.name: c.message for c in checks if not c.ok}


def test_checks_pass_on_seed_outputs(tmp_path):
    assert _failed(output_checks("evolve", 0, _evolve_run(tmp_path))) == {}


def test_checks_flag_late_onset(tmp_path):
    failed = _failed(output_checks("evolve", 0, _evolve_run(tmp_path, **{"onset_mu0.25": 160.0})))
    assert list(failed) == ["onset_mu0.25"]
    assert "160.0" in failed["onset_mu0.25"] and "[70.0, 150.0]" in failed["onset_mu0.25"]


def test_checks_flag_norm_drift(tmp_path):
    failed = _failed(output_checks("evolve", 0, _evolve_run(tmp_path, max_norm_drift=2e-8)))
    assert list(failed) == ["max_norm_drift"]
    assert "2e-08" in failed["max_norm_drift"] and "1e-08" in failed["max_norm_drift"]


def test_checks_flag_exit_status_and_missing_outputs(tmp_path):
    failed = _failed(output_checks("twomode", 1, tmp_path))
    assert set(failed) == {"exit_status", "n23_coalescence_sigma", "max_hamiltonian_drift"}
    assert "missing" in failed["max_hamiltonian_drift"]


def test_ledger_flags_one_changed_artifact_byte(tmp_path):
    out = _evolve_run(tmp_path)
    ledger = HashLedger(tmp_path / "ledger.json")
    assert ledger.check(1, hash_tree(out)).ok
    ledger.save()

    artifact = out / "phase_mu0.25.csv"
    data = bytearray(artifact.read_bytes())
    data[-2] ^= 1
    artifact.write_bytes(bytes(data))
    check = HashLedger(tmp_path / "ledger.json").check(2, hash_tree(out))
    assert not check.ok
    assert "phase_mu0.25.csv" in check.message


def test_ledger_compares_seed_bearing_files_per_seed(tmp_path):
    out = _evolve_run(tmp_path)
    ledger = HashLedger(tmp_path / "ledger.json")
    assert ledger.check(1, hash_tree(out)).ok
    (out / "manifest.json").write_text(json.dumps({"seed": 2}))
    assert ledger.check(2, hash_tree(out)).ok
    check = ledger.check(1, hash_tree(out))
    assert not check.ok and "manifest.json" in check.message


def test_changed_sources_start_a_fresh_ledger(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "dynamics.py").write_text("STEP = 1\n")
    ledgers = tmp_path / "ledger"
    workload = WORKLOADS["evolve"]
    out = _evolve_run(tmp_path)
    first = ledger_for(ledgers, workload, src)
    assert first.check(1, hash_tree(out)).ok
    first.save()

    # the changed program writes a different artifact
    (src / "dynamics.py").write_text("STEP = 2\n")
    (out / "phase_mu0.25.csv").write_text("t,z\n0,1e-17\n")
    second = ledger_for(ledgers, workload, src)
    assert second.path != first.path
    assert second.check(1, hash_tree(out)).ok
    second.save()

    # the old program's record still flags the new artifact
    (src / "dynamics.py").write_text("STEP = 1\n")
    check = ledger_for(ledgers, workload, src).check(1, hash_tree(out))
    assert not check.ok and "phase_mu0.25.csv" in check.message
