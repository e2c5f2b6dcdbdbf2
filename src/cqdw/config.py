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

`validate_config` is the one gate for input rules, and every run passes
through it. Each rule is stated once. A rule on a field's own value (must be
positive, >= 0, +1 or -1, one of a list, at least 2, not empty) sits beside
the field as its metadata (`discretization.field_rule`), and one loop of the
gate emits those messages; a rule that reads a value against another field
(the grid's whole multiple, the ordered pairs, the dt cap, the cadences, the
families and the file tags) is code in the gate, as is the seed rule. The
parser takes each field's JSON type from its annotation. The library's
constructors and solvers assume validated values; they check only solver
state and values they compute themselves, apart from the guards that
`build_grid` and `Kernel` keep for direct library callers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .discretization import (
    KERNEL_FAMILIES,
    NON_NEGATIVE,
    POSITIVE,
    PotentialParams,
    field_rule,
    whole_multiple,
)

FAMILY_CHOICES = ("sym", "anti")

# Hard cap on dt * (max V + 1/dx^2), the largest diagonal entry of the
# discrete Hamiltonian. The accuracy guideline is 0.5 (the default dt sits
# right at it); beyond twice that the midpoint rule of `evolve` is stable but
# no longer resolves the fastest retained mode, so the config is rejected.
DT_SCALE_LIMIT = 1.0

# The templated rules beside POSITIVE and NON_NEGATIVE (see `field_rule`).
SIGN = field_rule(lambda v: v in (-1, 1), "must be +1 or -1, got {}")
AT_LEAST_TWO = field_rule(lambda v: v >= 2, "need at least 2, got {}")


def _one_of(choices: tuple) -> dict:
    return field_rule(lambda v: v in choices, f"expected one of {choices}, got {{!r}}")


def _required(what: str) -> dict:
    return field_rule(bool, f"at least one {what} is required")


class ConfigError(ValueError):
    """Invalid configuration; `problems` lists every violated field."""

    def __init__(self, problems):
        self.problems = [str(p) for p in problems]
        super().__init__("invalid configuration: " + "; ".join(self.problems))


@dataclass(frozen=True)
class GridConfig:
    half_width: float = field(default=20.0, metadata=POSITIVE)
    spacing: float = field(default=0.1, metadata=POSITIVE)


@dataclass(frozen=True)
class InteractionConfig:
    """The one kernel R of the cubic and quintic terms, plus the (s, delta) signs."""

    family: str = field(default="gaussian", metadata=_one_of(KERNEL_FAMILIES))
    sigma: float = field(default=1.0, metadata=POSITIVE)
    s: int = field(default=1, metadata=SIGN)
    delta: int = field(default=-1, metadata=SIGN)


@dataclass(frozen=True)
class ScanConfig:
    """Continuation window for the parent branches (and their daughters)."""

    mu_min: float = 0.10
    mu_max: float = 0.45
    norm_cap: float = field(default=6.0, metadata=POSITIVE)
    families: tuple[str, ...] = field(default=("sym", "anti"), metadata=_required("of sym/anti"))


@dataclass(frozen=True)
class TwoModeConfig:
    """Grids for the reduction's tables, portraits and critical curves."""

    n_min: float = 0.02
    n_max: float = 6.0
    n_count: int = field(default=120, metadata=AT_LEAST_TWO)
    portrait_norms: tuple[float, ...] = field(default=(5.0,), metadata=field_rule(
        lambda v: v > 0, "norms must be positive, got {}", each=True))
    portrait_t_end: float = field(default=400.0, metadata=POSITIVE)
    sigma_min: float = 0.2
    sigma_max: float = 12.0
    sigma_count: int = field(default=60, metadata=AT_LEAST_TWO)


@dataclass(frozen=True)
class OverlapsConfig:
    sigma_min: float = 0.1
    sigma_max: float = 16.0
    count: int = field(default=65, metadata=AT_LEAST_TWO)


@dataclass(frozen=True)
class DynamicsConfig:
    mu_list: tuple[float, ...] = field(default=(0.19, 0.25),
                                       metadata=_required("chemical potential"))
    family: str = field(default="anti", metadata=_one_of(FAMILY_CHOICES))
    t_end: float = field(default=300.0, metadata=POSITIVE)
    dt: float = field(default=5e-3, metadata=POSITIVE)
    snapshot_dt: float = field(default=1.0, metadata=POSITIVE)
    phase_dt: float = field(default=0.2, metadata=POSITIVE)
    perturbation: str = field(default="eigenvector",
                              metadata=_one_of(("eigenvector", "random", "none")))
    amplitude: float = field(default=1e-3, metadata=NON_NEGATIVE)


@dataclass(frozen=True)
class ThermalConfig:
    d: float = field(default=0.25, metadata=POSITIVE)
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


def _finite_number(raw) -> bool:
    """A JSON number with a finite float value; JSON's NaN and Infinity, and
    integers too large for a float, are not."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return False
    try:
        return math.isfinite(raw)
    except OverflowError:
        return False


# The JSON values that each leaf type takes: the test, the noun of one value
# and the plural of a list's entries.
_LEAF_TYPES = {
    float: (_finite_number, "a finite number", "finite numbers"),
    int: (lambda raw: isinstance(raw, int) and not isinstance(raw, bool), "an integer", "integers"),
    str: (lambda raw: isinstance(raw, str), "a string", "strings"),
}


def _build_section(cls, data, prefix, problems):
    """Dataclass from a dict, collecting every fault instead of raising. Each
    field is tested against its resolved annotation: a section, a tuple of
    one leaf type, or a leaf type."""
    hints = get_type_hints(cls)
    kwargs = {}
    for key, raw in data.items():
        path, hint = f"{prefix}{key}", hints.get(key)
        if hint is None:
            problems.append(f"{path}: unknown field")
        elif is_dataclass(hint):
            if isinstance(raw, dict):
                kwargs[key] = _build_section(hint, raw, f"{path}.", problems)
            else:
                problems.append(f"{path}: expected an object")
        elif get_origin(hint) is tuple:
            item = get_args(hint)[0]
            accepts, _, entries = _LEAF_TYPES[item]
            if not isinstance(raw, (list, tuple)):
                problems.append(f"{path}: expected a list")
            elif not all(map(accepts, raw)):
                problems.append(f"{path}: expected a list of {entries}")
            else:
                kwargs[key] = tuple(map(item, raw))
        else:
            accepts, noun, _ = _LEAF_TYPES[hint]
            if accepts(raw):
                kwargs[key] = hint(raw)
            else:
                problems.append(f"{path}: expected {noun}, got {raw!r}")
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
    """All violated fields, empty when the configuration is sound: first the
    templated rule that a field carries in its metadata, in declaration
    order, then the rules stated below as code."""
    p: list[str] = []
    for section in fields(config):
        node = getattr(config, section.name)
        for leaf in fields(node) if is_dataclass(node) else ():
            if "rule" in leaf.metadata:
                test, says, each = leaf.metadata["rule"]
                value = getattr(node, leaf.name)
                p += [f"{section.name}.{leaf.name}: {says.format(v)}"
                      for v in (value if each else [value]) if not test(v)]
    g, v, sc, tm, ov, dy = (config.grid, config.potential, config.scan, config.twomode,
                            config.overlaps, config.dynamics)
    if g.half_width > 0 and g.spacing > 0 and not whole_multiple(g.half_width, g.spacing):
        p.append("grid.half_width: must be a whole multiple of grid.spacing")
    box_sound = not any(m.startswith(("grid.", "potential.")) for m in p)  # read by the dt cap
    if not sc.mu_min < sc.mu_max:
        p.append(f"scan.mu_min: window is empty ({sc.mu_min} >= {sc.mu_max})")
    for k, fam in enumerate(sc.families):
        if fam not in FAMILY_CHOICES:
            p.append(f"scan.families: unknown family {fam!r}")
        elif fam in sc.families[:k]:
            p.append(f"scan.families: family {fam!r} is listed twice")
    if not 0 < tm.n_min < tm.n_max:
        p.append(f"twomode.n_min: need 0 < n_min < n_max, got {tm.n_min}, {tm.n_max}")
    if not 0 < tm.sigma_min < tm.sigma_max:
        p.append(f"twomode.sigma_min: need 0 < sigma_min < sigma_max, got {tm.sigma_min}, {tm.sigma_max}")
    p.extend(_tag_clashes("twomode.portrait_norms", "N", tm.portrait_norms))
    if not 0 < ov.sigma_min < ov.sigma_max:
        p.append(f"overlaps.sigma_min: need 0 < sigma_min < sigma_max, got {ov.sigma_min}, {ov.sigma_max}")
    p.extend(_tag_clashes("dynamics.mu_list", "mu", dy.mu_list))
    if dy.dt > 0 and box_sound:
        inverse_dx = 1.0 / g.spacing
        scale = dy.dt * (_peak_potential(g, v) + inverse_dx * inverse_dx)
        if scale > DT_SCALE_LIMIT:
            p.append(
                f"dynamics.dt: too coarse, dt*(max V + 1/dx^2) = {scale:.3f} exceeds "
                f"{DT_SCALE_LIMIT} (guideline 0.5)"
            )
    if dy.phase_dt > 0 and dy.dt > 0 and not whole_multiple(dy.phase_dt, dy.dt):
        p.append("dynamics.phase_dt: must be a whole multiple of dynamics.dt")
    if dy.snapshot_dt > 0 and dy.phase_dt > 0 and not whole_multiple(dy.snapshot_dt, dy.phase_dt):
        p.append("dynamics.snapshot_dt: must be a whole multiple of dynamics.phase_dt")
    if isinstance(config.seed, bool) or not isinstance(config.seed, int) or config.seed < 0:
        p.append(f"seed: must be a non-negative integer, got {config.seed!r}")
    return p


def config_to_json(config: RunConfig) -> str:
    """Canonical JSON form (sorted keys, stable separators)."""
    return json.dumps(asdict(config), sort_keys=True, indent=2)


def config_hash(config: RunConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
