from dataclasses import dataclass

import numpy as np
import pytest

from cqdw.config import ScanConfig
from cqdw.continuation import (
    StationaryProblem,
    continue_branch,
    detect_pitchfork,
    newton_solve,
    seed_daughter,
    seed_from_mode,
)
from cqdw.discretization import GAUSSIAN, Kernel, PotentialParams, build_grid
from cqdw.dynamics import PhaseSeries, evolve, perturb_state, project_phase_plane
from cqdw.overlaps import compute_overlaps
from cqdw.spectrum import default_basis
from cqdw.stability import build_bdg, dominant_unstable_mode, solve_bdg, sweep_branch
from cqdw.twomode import ModeParams

# One branch scan per sign/range scenario, shared by the continuation,
# stability and acceptance tests. Window and norm cap are the bifurcation-
# diagram scale; every event of interest sits below N = 6.
SCAN_SCENARIOS = {
    "sigma01": dict(sigma=0.1, s=1, delta=-1, mu_min=0.10, mu_max=0.45),
    "sigma1": dict(sigma=1.0, s=1, delta=-1, mu_min=0.10, mu_max=0.45),
    "sigma8": dict(sigma=8.0, s=1, delta=-1, mu_min=0.10, mu_max=0.45),
    "dual1": dict(sigma=1.0, s=-1, delta=1, mu_min=-0.15, mu_max=0.16),
}


@dataclass(frozen=True)
class Trajectory(PhaseSeries):
    """A run's PhaseSeries with every sampled field and its pass counters."""

    snapshots: np.ndarray
    fixed_point_passes: int
    max_passes_per_step: int


@pytest.fixture(scope="session")
def grid():
    return build_grid(20.0, 0.1)


@pytest.fixture(scope="session")
def basis(grid):
    return default_basis(grid)


@pytest.fixture(scope="session")
def overlaps_sigma01(basis):
    return compute_overlaps(basis, Kernel(GAUSSIAN, 0.1))


@pytest.fixture(scope="session")
def overlaps_sigma1(basis):
    return compute_overlaps(basis, Kernel(GAUSSIAN, 1.0))


@pytest.fixture(scope="session")
def overlaps_sigma8(basis):
    return compute_overlaps(basis, Kernel(GAUSSIAN, 8.0))


@pytest.fixture(scope="session")
def collect(basis):
    """Step an `evolve` run to its end and keep every sample whole: the
    fields, and the PhaseSeries rows the CLI reduces them to."""

    def run_to_end(run):
        rows, fields = [], []
        for t, psi, n_t in run:
            rows.append(project_phase_plane(basis, t, psi, n_t))
            fields.append(psi)
        return Trajectory(*map(np.array, zip(*rows)), np.array(fields),
                          run.fixed_point_passes, run.max_passes_per_step)

    return run_to_end


@pytest.fixture
def make_params(basis, overlaps_sigma01, overlaps_sigma1, overlaps_sigma8):
    """Factory for regime-filtered ModeParams at the three reference ranges."""
    table = {0.1: overlaps_sigma01, 1.0: overlaps_sigma1, 8.0: overlaps_sigma8}

    def make(sigma=1.0, s=1, delta=-1, N=1.0):
        return ModeParams.from_overlaps(table[sigma], basis, s, delta, N)

    return make


@pytest.fixture(scope="session")
def branch_suite(grid, basis):
    """Symmetric/antisymmetric branch scans with pitchfork detection.

    For each scenario: the stationary problem, the scan window, both parent
    branches seeded from the linear modes, and their detected pitchforks.
    """
    suite = {}
    pot = PotentialParams()
    for key, sc in SCAN_SCENARIOS.items():
        kernel = Kernel(GAUSSIAN, sc["sigma"])
        problem = StationaryProblem(grid, pot, kernel, s=sc["s"], delta=sc["delta"])
        scan = ScanConfig(mu_min=sc["mu_min"], mu_max=sc["mu_max"], norm_cap=6.0)
        entry = {"problem": problem, "scan": scan}
        for name, mode, omega_k in (("sym", basis.u0, basis.omega0), ("anti", basis.u1, basis.omega1)):
            seed = seed_from_mode(problem, mode, omega_k)
            branch = continue_branch(problem, seed, scan, problem.s)
            entry[name] = branch
            entry[f"{name}_pitchforks"] = detect_pitchfork(problem, branch)
        suite[key] = entry
    return suite


@pytest.fixture(scope="session")
def ssb_daughter(branch_suite):
    """Asymmetric branch grown from the first antisymmetric pitchfork (sigma=0.1)."""
    entry = branch_suite["sigma01"]
    pf = entry["anti_pitchforks"][0]
    daughter = seed_daughter(entry["problem"], pf)
    branch = continue_branch(entry["problem"], daughter, entry["scan"], entry["problem"].s)
    return entry, pf, branch


@pytest.fixture(scope="session")
def breaking_runs(branch_suite, collect):
    """Eigenvector-kicked evolutions of sigma=1 antisymmetric states.

    One run per chemical potential of the dynamics story; each entry carries
    the refined state, its strongest growth rate, the kicked mode and the run.
    """
    entry = branch_suite["sigma1"]
    problem = entry["problem"]
    runs = {}
    for mu, t_end in ((0.19, 300.0), (0.25, 150.0)):
        nearest = min(entry["anti"].states, key=lambda s: abs(s.mu - mu))
        state = newton_solve(problem, nearest.psi, mu)
        op = build_bdg(problem, state)
        mode = dominant_unstable_mode(op)
        init = perturb_state(problem.grid, state, amplitude=1e-3, direction=mode.direction)
        runs[mu] = {
            "state": state,
            "rate": solve_bdg(op).max_real_part,
            "mode": mode,
            "run": collect(evolve(problem, init, mu, t_end)),
        }
    return entry, runs


@pytest.fixture(scope="session")
def parent_sweeps(branch_suite):
    """Linearization spectra along the sigma=0.1 and sigma=1 parent branches."""
    sweeps = {}
    for key in ("sigma01", "sigma1"):
        entry = branch_suite[key]
        sweeps[key] = {
            family: sweep_branch(entry["problem"], entry[family].states)
            for family in ("sym", "anti")
        }
    return sweeps
