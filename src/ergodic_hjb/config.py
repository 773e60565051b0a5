"""Run configuration: a fully serializable description of a pipeline run.

A run is reproducible from its config alone: the problem data, grids,
schedules, tolerances, seeds and thread count all live here, and no stage
consults anything else.  Bundled benchmark configs ship with the package and
can be referenced by name (e.g. ``quadratic-1d``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

from .errors import ParameterError
from .model import ProblemSpec

SCHEMA_VERSION = 1

_DEFAULT_AUDITS = {"assumptions": True, "comparison": True, "coercive": True,
                   "gradient_bound": False}


@dataclass
class RunConfig:
    problem: dict
    grid: dict
    method: str = "vanishing_discount"
    radii: list | None = None
    solver: dict = field(default_factory=dict)
    penalty: dict | None = None
    lp: dict | None = None
    mc: dict | None = None
    audits: dict = field(default_factory=lambda: dict(_DEFAULT_AUDITS))
    compare_methods: bool = False
    seed: int = 0
    threads: int = 1
    out: str | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("dict") and not (
                    isinstance(value, dict) or value is None and f.default is None):
                raise ParameterError(f"config section {f.name!r} must be an object")
        if self.schema_version != SCHEMA_VERSION or isinstance(self.schema_version, bool):
            raise ParameterError(
                f"config schema version {self.schema_version} unsupported "
                f"(this build reads version {SCHEMA_VERSION})")
        if self.method not in ("vanishing_discount", "nested_domains", "direct"):
            raise ParameterError(f"unknown method {self.method!r}")
        if self.method == "nested_domains" and not self.radii:
            raise ParameterError("nested_domains needs a 'radii' schedule")
        for key in ("radius", "h"):
            if key not in self.grid:
                raise ParameterError(f"grid config needs {key!r}")
        self.audits = {**_DEFAULT_AUDITS, **self.audits}

    def problem_spec(self) -> ProblemSpec:
        return ProblemSpec.from_dict(self.problem)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ParameterError("config root must be an object")
        unknown = set(d) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        if "problem" not in d:
            raise ParameterError("config needs a 'problem' section")
        if "grid" not in d:
            raise ParameterError("config needs a 'grid' section")
        return RunConfig(**{k: d[k] for k in d})


def load_config(source: str | Path) -> RunConfig:
    """Load a config from a JSON file path or a bundled benchmark name."""
    path = Path(source)
    if not path.exists():
        candidate = resources.files("ergodic_hjb").joinpath(f"configs/{source}.json")
        if candidate.is_file():
            return RunConfig.from_dict(json.loads(candidate.read_text()))
        raise ParameterError(f"no config file or bundled benchmark named {source!r}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(data)


def save_config(config: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
