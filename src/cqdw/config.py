"""Run configuration: one JSON document drives every pipeline subcommand.

The schema is a fixed tree of frozen dataclasses whose defaults mirror the
reference double well (trap 0.1, barrier 1 x 0.5, grid half-width 20 at
dx = 0.1) and the documented protocol choices (dt = 5e-3, kick amplitude
1e-3, scan window mu in [0.10, 0.45] with norm cap 6). Loading collects
*every* violated field before raising, so a bad file is reported once, in
full, rather than one field at a time. A sha256 over the canonical JSON form
identifies the resolved configuration in run manifests. Each parameter set
has one type: the `potential` section is `discretization.PotentialParams`,
and `continue_branch` reads its window from the `scan` section. No field
sets the way a branch is traced: it leaves its seed the way the cubic sign
`interaction.s` moves mu.

`validate_config` is the one gate for input rules: each rule on a config
field is stated there once, and every run passes through it. The library's
constructors and solvers assume validated values; they check only solver
state and values they compute themselves, apart from the guards that
`build_grid` and `Kernel` keep for direct library callers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

from .discretization import PotentialParams, whole_multiple

KERNEL_CHOICES = ("gaussian", "exponential")
FAMILY_CHOICES = ("sym", "anti")
PERTURBATION_CHOICES = ("eigenvector", "random", "none")

# Hard cap on dt * (max V + 1/dx^2), the largest diagonal entry of the
# discrete Hamiltonian. The accuracy guideline is 0.5 (the default dt sits
# right at it); beyond twice that the midpoint rule of `evolve` is stable but
# no longer resolves the fastest retained mode, so the config is rejected.
DT_SCALE_LIMIT = 1.0


class ConfigError(ValueError):
    """Invalid configuration; `problems` lists every violated field."""

    def __init__(self, problems):
        self.problems = [str(p) for p in problems]
        super().__init__("invalid configuration: " + "; ".join(self.problems))


@dataclass(frozen=True)
class GridConfig:
    half_width: float = 20.0
    spacing: float = 0.1


@dataclass(frozen=True)
class InteractionConfig:
    """The one kernel R of the cubic and quintic terms, plus the (s, delta) signs."""

    family: str = "gaussian"
    sigma: float = 1.0
    s: int = 1
    delta: int = -1


@dataclass(frozen=True)
class ScanConfig:
    """Continuation window for the parent branches (and their daughters)."""

    mu_min: float = 0.10
    mu_max: float = 0.45
    norm_cap: float = 6.0
    families: tuple[str, ...] = ("sym", "anti")


@dataclass(frozen=True)
class TwoModeConfig:
    """Grids for the reduction's tables, portraits and critical curves."""

    n_min: float = 0.02
    n_max: float = 6.0
    n_count: int = 120
    portrait_norms: tuple[float, ...] = (5.0,)
    portrait_t_end: float = 400.0
    sigma_min: float = 0.2
    sigma_max: float = 12.0
    sigma_count: int = 60


@dataclass(frozen=True)
class OverlapsConfig:
    sigma_min: float = 0.1
    sigma_max: float = 16.0
    count: int = 65


@dataclass(frozen=True)
class DynamicsConfig:
    mu_list: tuple[float, ...] = (0.19, 0.25)
    family: str = "anti"
    t_end: float = 300.0
    dt: float = 5e-3
    snapshot_dt: float = 1.0
    phase_dt: float = 0.2
    perturbation: str = "eigenvector"
    amplitude: float = 1e-3


@dataclass(frozen=True)
class ThermalConfig:
    d: float = 0.25
    sigma0: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    potential: PotentialParams = field(default_factory=PotentialParams)
    interaction: InteractionConfig = field(default_factory=InteractionConfig)
    scan: ScanConfig = field(default_factory=ScanConfig)
    twomode: TwoModeConfig = field(default_factory=TwoModeConfig)
    overlaps: OverlapsConfig = field(default_factory=OverlapsConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    seed: int = 0


def _declared(field_obj) -> str:
    t = field_obj.type
    return t if isinstance(t, str) else getattr(t, "__name__", str(t))


def _finite_number(raw) -> bool:
    """A JSON number with a finite float value; JSON's NaN and Infinity, and
    integers too large for a float, are not."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return False
    try:
        return math.isfinite(raw)
    except OverflowError:
        return False


def _build_section(cls, data, prefix, problems):
    """Dataclass from a dict, collecting every fault instead of raising."""
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, raw in data.items():
        if key not in known:
            problems.append(f"{prefix}{key}: unknown field")
            continue
        declared = _declared(known[key])
        if known[key].default_factory is not MISSING:  # a section
            if not isinstance(raw, dict):
                problems.append(f"{prefix}{key}: expected an object")
                continue
            kwargs[key] = _build_section(known[key].default_factory, raw, f"{prefix}{key}.", problems)
        elif declared.startswith("tuple"):
            if not isinstance(raw, (list, tuple)):
                problems.append(f"{prefix}{key}: expected a list")
                continue
            if "str" in declared and not all(isinstance(v, str) for v in raw):
                problems.append(f"{prefix}{key}: expected a list of strings")
            elif "float" in declared and not all(_finite_number(v) for v in raw):
                problems.append(f"{prefix}{key}: expected a list of finite numbers")
            else:
                kwargs[key] = tuple(float(v) if "float" in declared else v for v in raw)
        elif declared == "float":
            if not _finite_number(raw):
                problems.append(f"{prefix}{key}: expected a finite number, got {raw!r}")
            else:
                kwargs[key] = float(raw)
        elif declared == "int":
            if isinstance(raw, bool) or not isinstance(raw, int):
                problems.append(f"{prefix}{key}: expected an integer, got {raw!r}")
            else:
                kwargs[key] = raw
        else:
            if not isinstance(raw, str):
                problems.append(f"{prefix}{key}: expected a string, got {raw!r}")
            else:
                kwargs[key] = raw
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig; raises ConfigError listing all faults."""
    problems: list[str] = []
    config = _build_section(RunConfig, data, "", problems)
    problems.extend(validate_config(config))
    if problems:
        raise ConfigError(problems)
    return config


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise ConfigError([f"{path}: top level must be an object"])
    return config_from_dict(data)


def file_tag(value: float) -> str:
    """Tag of a value in file names, as in density_mu<tag>.csv or portrait_N<tag>.csv."""
    return format(value, "g")


def _tag_clashes(field: str, prefix: str, values) -> list[str]:
    """One message per value whose file tag repeats an earlier value's."""
    out = []
    for k, value in enumerate(values):
        clash = [v for v in values[:k] if file_tag(v) == file_tag(value)]
        if clash:
            out.append(
                f"{field}: {clash[0]!r} and {value!r} both name files {prefix}{file_tag(value)}"
            )
    return out


def _peak_potential(grid: GridConfig, potential: PotentialParams) -> float:
    """max V over the grid points, for heights >= 0.

    On x > 0 such a V has one critical point at most, the well minimum, so
    its maximum over the grid is at x = 0 or at the box edge.
    """
    edge = grid.spacing * round(grid.half_width / grid.spacing)
    decay = math.exp(-2.0 * edge / potential.barrier_width)
    sech_sq = 4.0 * decay / (1.0 + decay) ** 2  # sech^2(edge / width), overflow-free
    reach = potential.trap_frequency * edge  # squared by a product, which cannot raise
    trap = 0.5 * reach * reach
    return max(potential.barrier_height, trap + potential.barrier_height * sech_sq)


def validate_config(config: RunConfig) -> list[str]:
    """All violated fields, empty when the configuration is sound."""
    p: list[str] = []
    g = config.grid
    if not g.half_width > 0:
        p.append(f"grid.half_width: must be positive, got {g.half_width}")
    if not g.spacing > 0:
        p.append(f"grid.spacing: must be positive, got {g.spacing}")
    elif g.half_width > 0 and not whole_multiple(g.half_width, g.spacing):
        p.append("grid.half_width: must be a whole multiple of grid.spacing")
    v = config.potential
    if not v.barrier_width > 0:
        p.append(f"potential.barrier_width: must be positive, got {v.barrier_width}")
    if v.trap_frequency < 0:
        p.append(f"potential.trap_frequency: must be >= 0, got {v.trap_frequency}")
    if v.barrier_height < 0:
        p.append(f"potential.barrier_height: must be >= 0, got {v.barrier_height}")
    box_sound = not p  # the dt rule below reads the grid and the potential
    i = config.interaction
    if i.family not in KERNEL_CHOICES:
        p.append(f"interaction.family: expected one of {KERNEL_CHOICES}, got {i.family!r}")
    if not i.sigma > 0:
        p.append(f"interaction.sigma: must be positive, got {i.sigma}")
    if i.s not in (-1, 1):
        p.append(f"interaction.s: must be +1 or -1, got {i.s}")
    if i.delta not in (-1, 1):
        p.append(f"interaction.delta: must be +1 or -1, got {i.delta}")
    sc = config.scan
    if not sc.mu_min < sc.mu_max:
        p.append(f"scan.mu_min: window is empty ({sc.mu_min} >= {sc.mu_max})")
    if not sc.norm_cap > 0:
        p.append(f"scan.norm_cap: must be positive, got {sc.norm_cap}")
    if not sc.families:
        p.append("scan.families: at least one of sym/anti is required")
    for k, fam in enumerate(sc.families):
        if fam not in FAMILY_CHOICES:
            p.append(f"scan.families: unknown family {fam!r}")
        elif fam in sc.families[:k]:
            p.append(f"scan.families: family {fam!r} is listed twice")
    tm = config.twomode
    if not 0 < tm.n_min < tm.n_max:
        p.append(f"twomode.n_min: need 0 < n_min < n_max, got {tm.n_min}, {tm.n_max}")
    if tm.n_count < 2:
        p.append(f"twomode.n_count: need at least 2, got {tm.n_count}")
    if not 0 < tm.sigma_min < tm.sigma_max:
        p.append(f"twomode.sigma_min: need 0 < sigma_min < sigma_max, got {tm.sigma_min}, {tm.sigma_max}")
    if tm.sigma_count < 2:
        p.append(f"twomode.sigma_count: need at least 2, got {tm.sigma_count}")
    for norm in tm.portrait_norms:
        if not norm > 0:
            p.append(f"twomode.portrait_norms: norms must be positive, got {norm}")
    p.extend(_tag_clashes("twomode.portrait_norms", "N", tm.portrait_norms))
    if not tm.portrait_t_end > 0:
        p.append(f"twomode.portrait_t_end: must be positive, got {tm.portrait_t_end}")
    ov = config.overlaps
    if not 0 < ov.sigma_min < ov.sigma_max:
        p.append(f"overlaps.sigma_min: need 0 < sigma_min < sigma_max, got {ov.sigma_min}, {ov.sigma_max}")
    if ov.count < 2:
        p.append(f"overlaps.count: need at least 2, got {ov.count}")
    dy = config.dynamics
    if not dy.mu_list:
        p.append("dynamics.mu_list: at least one chemical potential is required")
    p.extend(_tag_clashes("dynamics.mu_list", "mu", dy.mu_list))
    if dy.family not in FAMILY_CHOICES:
        p.append(f"dynamics.family: expected one of {FAMILY_CHOICES}, got {dy.family!r}")
    if not dy.t_end > 0:
        p.append(f"dynamics.t_end: must be positive, got {dy.t_end}")
    if not dy.dt > 0:
        p.append(f"dynamics.dt: must be positive, got {dy.dt}")
    elif box_sound:
        inverse_dx = 1.0 / g.spacing
        scale = dy.dt * (_peak_potential(g, v) + inverse_dx * inverse_dx)
        if scale > DT_SCALE_LIMIT:
            p.append(
                f"dynamics.dt: too coarse, dt*(max V + 1/dx^2) = {scale:.3f} exceeds "
                f"{DT_SCALE_LIMIT} (guideline 0.5)"
            )
    if not dy.snapshot_dt > 0:
        p.append(f"dynamics.snapshot_dt: must be positive, got {dy.snapshot_dt}")
    if not dy.phase_dt > 0:
        p.append(f"dynamics.phase_dt: must be positive, got {dy.phase_dt}")
    elif dy.dt > 0 and not whole_multiple(dy.phase_dt, dy.dt):
        p.append("dynamics.phase_dt: must be a whole multiple of dynamics.dt")
    if dy.snapshot_dt > 0 and dy.phase_dt > 0 and not whole_multiple(dy.snapshot_dt, dy.phase_dt):
        p.append("dynamics.snapshot_dt: must be a whole multiple of dynamics.phase_dt")
    if dy.perturbation not in PERTURBATION_CHOICES:
        p.append(
            f"dynamics.perturbation: expected one of {PERTURBATION_CHOICES}, got {dy.perturbation!r}"
        )
    if dy.amplitude < 0:
        p.append(f"dynamics.amplitude: must be >= 0, got {dy.amplitude}")
    th = config.thermal
    if not th.d > 0:
        p.append(f"thermal.d: must be positive, got {th.d}")
    if isinstance(config.seed, bool) or not isinstance(config.seed, int) or config.seed < 0:
        p.append(f"seed: must be a non-negative integer, got {config.seed!r}")
    return p


def config_to_json(config: RunConfig) -> str:
    """Canonical JSON form (sorted keys, stable separators)."""
    return json.dumps(asdict(config), sort_keys=True, indent=2)


def config_hash(config: RunConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
