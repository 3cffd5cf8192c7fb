"""JSON model configuration: parsing, validation, and object assembly.

A config file fully determines a run together with the seed.  Validation
is strict: unknown fields are rejected, every error message names the
offending field by its JSON path, and nothing is silently defaulted that
the chosen mode actually needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .ancestral import EXACT_METHODS
from .errors import (
    ConfigError, DomainError, SizeCapError, config_real, expect_mapping, positive_int,
    reject_unknown,
)
from .measure import TypeDistribution, TypeSpace
from .rates import RecombinationDistribution

MODES = (
    "solve-ode",
    "solve-exact",
    "solve-discrete",
    "coefficients",
    "simulate-moran",
    "simulate-arg",
    "lln-report",
    "crosscheck",
)

_RUN_FIELDS = (
    "mode",
    "t",
    "t_grid",
    "dt",
    "method",
    "n_individuals",
    "population_sizes",
    "replicates",
    "seed",
)


@dataclass
class RunSpec:
    """The run block; modes pick the fields they need."""

    mode: str | None = None
    t: float | None = None
    t_grid: list[float] | None = None
    dt: float | None = None
    method: str | None = None
    n_individuals: int | None = None
    population_sizes: list[int] | None = None
    replicates: int | None = None
    seed: int | None = None

    @classmethod
    def parse(cls, data: Mapping, path: str = "run") -> "RunSpec":
        reject_unknown(data, _RUN_FIELDS, path)
        spec = cls()
        if "mode" in data:
            if data["mode"] not in MODES:
                raise ConfigError(
                    f"{path}.mode: unknown mode {data['mode']!r}; choose from {list(MODES)}"
                )
            spec.mode = data["mode"]
        if "t" in data and "t_grid" in data:
            raise ConfigError(f"{path}: give either t or t_grid, not both")
        if "t" in data:
            spec.t = config_real(data["t"], f"{path}.t")
            if spec.t < 0:
                raise ConfigError(f"{path}.t: must be nonnegative")
        if "t_grid" in data:
            spec.t_grid = cls._parse_grid(data["t_grid"], f"{path}.t_grid")
        if "dt" in data:
            spec.dt = config_real(data["dt"], f"{path}.dt")
            if spec.dt <= 0:
                raise ConfigError(f"{path}.dt: must be positive, got {spec.dt}")
        if "method" in data:
            if data["method"] not in EXACT_METHODS:
                raise ConfigError(
                    f"{path}.method: unknown method {data['method']!r}"
                )
            spec.method = data["method"]
        if "n_individuals" in data:
            spec.n_individuals = positive_int(
                data["n_individuals"], f"{path}.n_individuals"
            )
        if "population_sizes" in data:
            raw = data["population_sizes"]
            if not isinstance(raw, list) or not raw:
                raise ConfigError(f"{path}.population_sizes: expected a nonempty list")
            spec.population_sizes = [
                positive_int(v, f"{path}.population_sizes[{i}]")
                for i, v in enumerate(raw)
            ]
        if "replicates" in data:
            spec.replicates = positive_int(data["replicates"], f"{path}.replicates")
        if "seed" in data:
            if isinstance(data["seed"], bool) or not isinstance(data["seed"], int):
                raise ConfigError(f"{path}.seed: expected an integer")
            spec.seed = int(data["seed"])
        return spec

    @staticmethod
    def _parse_grid(raw, path: str) -> list[float]:
        if isinstance(raw, list):
            if not raw:
                raise ConfigError(f"{path}: must not be empty")
            grid = [config_real(v, f"{path}[{i}]") for i, v in enumerate(raw)]
        elif isinstance(raw, Mapping):
            reject_unknown(raw, ("start", "stop", "steps"), path)
            for field in ("start", "stop", "steps"):
                if field not in raw:
                    raise ConfigError(f"{path}.{field}: required")
            start = config_real(raw["start"], f"{path}.start")
            stop = config_real(raw["stop"], f"{path}.stop")
            steps = positive_int(raw["steps"], f"{path}.steps")
            if stop < start:
                raise ConfigError(f"{path}: stop must be >= start")
            if steps == 1:
                grid = [start]
            else:
                width = (stop - start) / (steps - 1)
                grid = [start + k * width for k in range(steps - 1)] + [stop]
        else:
            raise ConfigError(f"{path}: expected a list or {{start, stop, steps}}")
        if any(v < 0 for v in grid):
            raise ConfigError(f"{path}: times must be nonnegative")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"{path}: times must be strictly increasing")
        return grid


@dataclass
class ModelConfig:
    """Everything a run needs, already assembled into domain objects."""

    rates: RecombinationDistribution
    run: RunSpec
    space: TypeSpace | None = None
    initial: TypeDistribution | None = None
    output_format: str | None = None

    @classmethod
    def load(cls, path: str) -> "ModelConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        return cls.parse(data)

    @classmethod
    def parse(cls, data) -> "ModelConfig":
        top = expect_mapping(data, "config")
        reject_unknown(
            top, ("space", "initial", "recombination", "run", "output"), "config"
        )
        if "recombination" not in top:
            raise ConfigError("config.recombination: required")
        rates = RecombinationDistribution.from_config(
            expect_mapping(top["recombination"], "config.recombination"),
            path="config.recombination",
        )
        run = RunSpec.parse(
            expect_mapping(top.get("run", {}), "config.run"), path="config.run"
        )
        space = None
        if "space" in top:
            space = cls._parse_space(top["space"], rates)
        initial = None
        if "initial" in top:
            if space is None:
                raise ConfigError("config.initial: needs config.space to be given")
            initial = cls._parse_initial(top["initial"], space)
        output_format = None
        if "output" in top:
            out = expect_mapping(top["output"], "config.output")
            reject_unknown(out, ("format",), "config.output")
            if "format" in out:
                if out["format"] not in ("csv", "json"):
                    raise ConfigError(
                        f"config.output.format: expected 'csv' or 'json', got {out['format']!r}"
                    )
                output_format = out["format"]
        return cls(
            rates=rates, run=run, space=space, initial=initial, output_format=output_format
        )

    @staticmethod
    def _parse_space(raw, rates: RecombinationDistribution) -> TypeSpace:
        block = expect_mapping(raw, "config.space")
        reject_unknown(block, ("alphabet_sizes",), "config.space")
        if "alphabet_sizes" not in block:
            raise ConfigError("config.space.alphabet_sizes: required")
        sizes = block["alphabet_sizes"]
        if not isinstance(sizes, list) or not sizes:
            raise ConfigError("config.space.alphabet_sizes: expected a nonempty list")
        sizes = [
            positive_int(v, f"config.space.alphabet_sizes[{i}]")
            for i, v in enumerate(sizes)
        ]
        if len(sizes) != rates.n_sites:
            raise ConfigError(
                f"config.space.alphabet_sizes: {len(sizes)} sites but the "
                f"recombination block has n = {rates.n_sites}"
            )
        try:
            return TypeSpace(sizes)
        except DomainError as exc:
            raise ConfigError(f"config.space: {exc}") from None

    @staticmethod
    def _parse_initial(raw, space: TypeSpace) -> TypeDistribution:
        block = expect_mapping(raw, "config.initial")
        kind = block.get("kind")
        if kind == "uniform":
            reject_unknown(block, ("kind",), "config.initial")
            try:
                return TypeDistribution.uniform(space)
            except SizeCapError as exc:
                raise ConfigError(f"config.initial: {exc}") from None
        if kind == "dirac":
            reject_unknown(block, ("kind", "type"), "config.initial")
            if "type" not in block:
                raise ConfigError("config.initial.type: required for kind 'dirac'")
            try:
                return TypeDistribution.dirac(space, block["type"])
            except (DomainError, TypeError) as exc:
                raise ConfigError(f"config.initial.type: {exc}") from None
        if kind == "explicit":
            reject_unknown(block, ("kind", "entries"), "config.initial")
            entries = block.get("entries")
            if not isinstance(entries, list) or not entries:
                raise ConfigError("config.initial.entries: expected a nonempty list")
            pairs = []
            for i, item in enumerate(entries):
                ipath = f"config.initial.entries[{i}]"
                item = expect_mapping(item, ipath)
                reject_unknown(item, ("type", "mass"), ipath)
                if "type" not in item or "mass" not in item:
                    raise ConfigError(f"{ipath}: needs both type and mass")
                pairs.append((item["type"], config_real(item["mass"], f"{ipath}.mass")))
            try:
                dist = TypeDistribution.from_pairs(space, pairs)
            except (DomainError, TypeError) as exc:
                raise ConfigError(f"config.initial.entries: {exc}") from None
            if abs(dist.mass - 1.0) > 1e-9:
                raise ConfigError(
                    f"config.initial.entries: masses sum to {dist.mass!r}, expected 1"
                )
            return dist
        raise ConfigError(
            "config.initial.kind: expected 'uniform', 'dirac', or 'explicit', "
            f"got {kind!r}"
        )

    # -- mode plumbing ------------------------------------------------------

    def times(self) -> list[float]:
        """The resolved evaluation times (t or t_grid)."""
        if self.run.t_grid is not None:
            return list(self.run.t_grid)
        if self.run.t is not None:
            return [self.run.t]
        raise ConfigError("config.run: needs t or t_grid for this mode")

    def require(self, *fields: str) -> None:
        """Raise ConfigError naming any missing run-level requirement."""
        for field in fields:
            if field == "space" and self.space is None:
                raise ConfigError("config.space: required for this mode")
            if field == "initial" and self.initial is None:
                raise ConfigError("config.initial: required for this mode")
            if field == "times" and self.run.t is None and self.run.t_grid is None:
                raise ConfigError("config.run: t or t_grid required for this mode")
            if field in _RUN_FIELDS and getattr(self.run, field) is None:
                raise ConfigError(f"config.run.{field}: required for this mode")
