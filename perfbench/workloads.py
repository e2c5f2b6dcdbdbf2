"""The benchmark's workloads and the checks each run's outputs must pass.

Each workload is one JSON config under workloads/ run through `cqdw <sub>`.
Every check yields a `Check` whose message names the quantity, the measured
value and the bound, so a failure reads on its own. Reruns must be
byte-identical: a `HashLedger` keeps the sha256 of every file a workload
writes and flags any later run of the same program that differs. Ledgers are
keyed by a hash of the program's sources and the workload config, so a
changed program starts a fresh record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Files that record the run seed; they are compared only between runs that
# used the same seed. Every other file must match across all seeds.
SEEDED_FILES = ("config.json", "manifest.json")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    message: str


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str

    @property
    def config(self) -> Path:
        return HERE / "workloads" / f"{self.name}.json"


WORKLOADS = {
    "branches": Workload("branches", "continue"),
    "evolve": Workload("evolve", "evolve"),
    "twomode": Workload("twomode", "twomode"),
}


def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def within(name: str, value, lo: float, hi: float) -> Check:
    ok = value is not None and lo <= value <= hi
    shown = "missing" if value is None else repr(value)
    return Check(name, ok, f"{name}: measured {shown}, bound [{lo}, {hi}]")


def at_most(name: str, value, bound: float) -> Check:
    ok = value is not None and value <= bound
    shown = "missing" if value is None else repr(value)
    return Check(name, ok, f"{name}: measured {shown}, bound <= {bound}")


def _branches(out: Path, quantities: dict) -> list[Check]:
    events = _load_json(out / "events.json")
    sym = [p for p in events.get("pitchforks", []) if p.get("family") == "sym"]
    ending = events.get("termination", {}).get("asym-sym")
    return [
        # fig08 regress target
        within("sym_ssb_mu", quantities.get("sym_ssb_mu"), 0.35, 0.36),
        Check("sym_pitchforks", len(sym) == 1,
              f"sym_pitchforks: measured {len(sym)}, bound exactly 1"),
        Check("asym-sym_termination", ending == "merge",
              f"asym-sym_termination: measured {ending!r}, bound 'merge'"),
    ]


# BdG growth rate of the mu=0.25 antisymmetric state (acceptance criterion 13)
BDG_RATE = 0.05637


def _evolve(out: Path, quantities: dict) -> list[Check]:
    return [
        # acceptance criterion 08 onset window
        within("onset_mu0.25", quantities.get("onset_mu0.25"), 70.0, 150.0),
        within("growth_rate_mu0.25", quantities.get("growth_rate_mu0.25"),
               0.9 * BDG_RATE, 1.1 * BDG_RATE),
        at_most("max_norm_drift", quantities.get("max_norm_drift"), 1e-8),
    ]


def _twomode(out: Path, quantities: dict) -> list[Check]:
    summary = _load_json(out / "twomode_summary.json")
    return [
        # fig04 regress target
        within("n23_coalescence_sigma", quantities.get("n23_coalescence_sigma"), 7.42, 7.62),
        at_most("max_hamiltonian_drift", summary.get("max_hamiltonian_drift"), 1e-8),
    ]


_OUTPUT_CHECKS = {"branches": _branches, "evolve": _evolve, "twomode": _twomode}


def output_checks(workload: str, exit_code: int, out: Path) -> list[Check]:
    """Exit status plus the workload's physics checks on one run directory."""
    quantities = _load_json(out / "manifest.json").get("quantities", {})
    checks = [Check("exit_status", exit_code == 0,
                    f"exit_status: measured {exit_code}, bound 0")]
    return checks + _OUTPUT_CHECKS[workload](out, quantities)


def hash_tree(out: Path) -> dict[str, str]:
    """sha256 of every file under `out`, keyed by its relative path."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def source_hash(src: Path, config: Path) -> str:
    """sha256 over every .py file under `src` and the workload config."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    digest.update(config.read_bytes())
    return digest.hexdigest()


def ledger_for(ledger_dir: Path, workload: Workload, src: Path) -> "HashLedger":
    """The ledger of one workload run by the program whose sources are under `src`."""
    key = source_hash(src, workload.config)[:16]
    return HashLedger(ledger_dir / f"{workload.name}-{key}.json")


class HashLedger:
    """The file hashes one workload wrote in earlier runs of one program."""

    def __init__(self, path: Path):
        self.path = path
        data = _load_json(path)
        self.files: dict[str, str] = data.get("files", {})
        self.seeded: dict[str, dict[str, str]] = data.get("seeded", {})

    def check(self, seed: int, hashes: dict[str, str]) -> Check:
        """Compare one run with the record, then add what was not recorded."""
        files = {k: v for k, v in hashes.items() if k not in SEEDED_FILES}
        seeded = {k: v for k, v in hashes.items() if k in SEEDED_FILES}
        bad = _mismatches(self.files, files) + _mismatches(self.seeded.get(str(seed)), seeded)
        if not bad:
            self.files = self.files or files
            self.seeded.setdefault(str(seed), seeded)
        return Check(
            "byte_identical",
            not bad,
            f"byte_identical: differing files {bad}, bound none"
            if bad else "byte_identical: every file matches the earlier runs",
        )

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"files": self.files, "seeded": self.seeded}, fh, indent=1, sort_keys=True)


def _mismatches(recorded: dict[str, str] | None, current: dict[str, str]) -> list[str]:
    if not recorded:
        return []
    names = sorted(set(recorded) | set(current))
    return [n for n in names if recorded.get(n) != current.get(n)]
