"""Named scenario presets: figure-data runs and regression targets.

Each of the twelve figures has a preset whose artifacts carry the data needed
to re-plot it; figures drawn from the same run share one preset, named after
all of them (fig04-05, fig11-12). One more wraps the absorption-model
cross-check. Expected values follow the source text; each carries its
provenance note. Anchors that the rebuilt pipeline reproduces only
approximately (the Fig. 5 caption numbers, see the acceptance suite) are
deliberately not duplicated here: `regress` targets are the quantities this
pipeline is expected to hit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import (
    InteractionConfig,
    RunConfig,
    ScanConfig,
)


class PresetError(KeyError):
    """Unknown preset name; the message lists the catalogue."""


@dataclass(frozen=True)
class RegressionTarget:
    """One expected quantity with tolerance and paper location."""

    quantity: str
    value: float
    tolerance: float
    provenance: str

    def __post_init__(self):
        if not self.provenance.strip():
            raise ValueError(f"target {self.quantity} is missing its provenance note")
        if not self.tolerance > 0:
            raise ValueError(f"target {self.quantity} needs a positive tolerance")


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    subcommand: str
    config: RunConfig
    expected: tuple[RegressionTarget, ...] = ()


_SCAN_DUAL = ScanConfig(mu_min=-0.15, mu_max=0.16)


def _interaction(sigma=1.0, s=1, delta=-1, family="gaussian"):
    return InteractionConfig(family=family, sigma=sigma, s=s, delta=delta)


def _catalogue() -> dict[str, ScenarioPreset]:
    base = RunConfig()
    presets = [
        ScenarioPreset(
            name="fig01-linear-modes",
            subcommand="spectrum",
            config=base,
            expected=(
                RegressionTarget("omega0", 0.13282, 5e-4, "Sec. II.A, lowest doublet"),
                RegressionTarget("omega1", 0.15571, 5e-4, "Sec. II.A, lowest doublet"),
            ),
        ),
        ScenarioPreset(
            name="fig02-overlaps-gaussian",
            subcommand="overlaps",
            config=base,
            expected=(
                RegressionTarget("sigma_b", 2.96, 0.05, "Sec. II.A, Gaussian regime boundary"),
                RegressionTarget("sigma_c", 9.15, 0.15, "Sec. II.A, Gaussian regime boundary"),
            ),
        ),
        ScenarioPreset(
            name="fig03-overlaps-exponential",
            subcommand="overlaps",
            config=replace(base, interaction=_interaction(family="exponential")),
            expected=(
                RegressionTarget("sigma_b", 1.56, 0.05, "Sec. II.A, exponential regime boundary"),
                RegressionTarget("sigma_c", 7.01, 0.15, "Sec. II.A, exponential regime boundary"),
            ),
        ),
        ScenarioPreset(
            name="fig04-05-critical-norms",
            subcommand="twomode",
            config=base,
            expected=(
                RegressionTarget(
                    "n23_coalescence_sigma", 7.52, 0.1, "Sec. II.B, N2/N3 coalescence"
                ),
            ),
            # the run also writes the two-mode phase portraits at sigma=1, N=5
        ),
        ScenarioPreset(
            name="fig06-twomode-stability",
            subcommand="twomode",
            config=replace(base, interaction=_interaction(sigma=0.1)),
            expected=(
                RegressionTarget(
                    "n2_critical", 0.14, 0.02, "Sec. II.B Fig. 6, antisym lambda^2 crossing"
                ),
                RegressionTarget(
                    "n3_critical", 4.63, 0.05, "Sec. II.B Fig. 6, antisym lambda^2 crossing"
                ),
            ),
        ),
        ScenarioPreset(
            name="fig07-branches-sigma01",
            subcommand="continue",
            config=replace(base, interaction=_interaction(sigma=0.1)),
            expected=(
                RegressionTarget("anti_ssb_mu", 0.1686, 0.002, "Sec. III.A, sigma=0.1 SSB"),
                RegressionTarget(
                    "anti_restore_mu", 0.381, 0.005, "Sec. III.A, sigma=0.1 restoring merge"
                ),
                RegressionTarget(
                    "sym_ssb_mu", 0.359, 0.005, "Sec. III.A, sigma=0.1 symmetric pitchfork"
                ),
            ),
        ),
        ScenarioPreset(
            name="fig08-branches-sigma1",
            subcommand="continue",
            config=base,
            expected=(
                RegressionTarget("anti_ssb_mu", 0.168, 0.002, "Sec. III.A, sigma=1 SSB"),
                RegressionTarget(
                    "anti_restore_mu", 0.374, 0.005, "Sec. III.A, sigma=1 restoring merge"
                ),
                RegressionTarget(
                    "sym_ssb_mu", 0.355, 0.005, "Sec. III.A, sigma=1 symmetric pitchfork"
                ),
            ),
        ),
        ScenarioPreset(
            name="fig09-branches-sigma8",
            subcommand="continue",
            config=replace(base, interaction=_interaction(sigma=8.0)),
            expected=(
                RegressionTarget("anti_ssb_mu", 0.195, 0.003, "Sec. III.A, sigma=8 SSB"),
            ),
            # the restoring merge is reported in events.json, not as a target
        ),
        ScenarioPreset(
            name="fig10-branches-defocusing",
            subcommand="continue",
            config=replace(base, interaction=_interaction(s=-1, delta=1), scan=_SCAN_DUAL),
            expected=(
                RegressionTarget(
                    "sym_ssb_mu", 0.1212, 0.002, "Sec. III.A, (s,delta)=(-1,1) SSB"
                ),
                RegressionTarget(
                    "sym_restore_mu", -0.0727, 0.003, "Sec. III.A, (s,delta)=(-1,1) restoring"
                ),
                RegressionTarget(
                    "anti_ssb_mu", -0.0465, 0.003, "Sec. III.A, (s,delta)=(-1,1) antisym event"
                ),
            ),
        ),
        ScenarioPreset(
            name="fig11-12-symmetry-breaking",
            subcommand="evolve",
            config=base,
            expected=(
                RegressionTarget(
                    "onset_mu0.19", 225.0, 75.0, "Figs. 11-12, |z| >= 0.5 onset in [150, 300]"
                ),
                RegressionTarget(
                    "onset_mu0.25", 110.0, 40.0, "Figs. 11-12, |z| >= 0.5 onset in [70, 150]"
                ),
            ),
        ),
        ScenarioPreset(
            name="thermal-check",
            subcommand="thermal",
            config=base,
            expected=(
                RegressionTarget(
                    "screened_poisson_max_diff",
                    0.0,
                    1e-6,
                    "Appendix, saturable absorption model",
                ),
            ),
        ),
    ]
    return {p.name: p for p in presets}


PRESETS = _catalogue()


def get_preset(name: str) -> ScenarioPreset:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise PresetError(f"unknown preset {name!r}; available: {known}")
    return PRESETS[name]
