"""JSON model and symbol configuration.

A model file describes the energy grid, the occupation density, and named
shell amplitude vectors:

    {
      "grid":    {"e_min": 0.0, "e_max": 4.0, "bins": 128},
      "density": {"type": "flat", "value": 1.0},
      "vectors": {
        "a": {"type": "gaussian_shell", "center": 1.2, "width": 0.35},
        "b": {"type": "indicator", "lo": 0.5, "hi": 2.5},
        "c": {"type": "table", "re": [...], "im": [...]}
      },
      "symbols": [
        {"f": "a", "g": "b", "omega_index": 0,
         "phi": {"family": "gaussian", "center": 0.0, "width": 1.0}}
      ]
    }

"density" may also be {"type": "table", "values": [...]} with one entry per
bin, as are a table vector's "re" and optional "im".  "symbols" is optional;
subcommands that need none ignore it, and wn-expect reads only each entry's
f and g.  Errors name the offending field path.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

import numpy as np

from .spectral import EnergyGrid, SpectralModel, make_model
from .symbols import NumberSymbol, TestFunction


class ConfigError(ValueError):
    """A configuration value is missing, mistyped, or out of range."""


def _require(mapping: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _number(value: Any, path: str) -> float:
    # JSON's NaN and Infinity parse as floats, and a NaN switches every check off
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _table(cfg: Mapping[str, Any], key: str, grid: EnergyGrid, path: str) -> np.ndarray:
    values = _require(cfg, key, path)
    if not isinstance(values, Sequence) or len(values) != grid.bins:
        raise ConfigError(f"{path}.{key}: expected {grid.bins} entries")
    return np.asarray([_number(v, f"{path}.{key}") for v in values])


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def grid_from_config(cfg: Mapping[str, Any], path: str = "grid") -> EnergyGrid:
    e_min = _number(cfg.get("e_min", 0.0), f"{path}.e_min")
    e_max = _number(_require(cfg, "e_max", path), f"{path}.e_max")
    bins = _integer(_require(cfg, "bins", path), f"{path}.bins")
    try:
        return EnergyGrid(e_max=e_max, bins=bins, e_min=e_min)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _density_from_config(cfg: Any, grid: EnergyGrid, path: str) -> np.ndarray:
    if not isinstance(cfg, Mapping):
        raise ConfigError(f"{path}: expected an object")
    kind = _require(cfg, "type", path)
    if kind == "flat":
        return np.full(grid.bins, _number(cfg.get("value", 1.0), f"{path}.value"))
    if kind == "table":
        return _table(cfg, "values", grid, path)
    raise ConfigError(f"{path}.type: unknown density type {kind!r}")


def _vector_from_config(cfg: Any, grid: EnergyGrid, path: str) -> np.ndarray:
    if not isinstance(cfg, Mapping):
        raise ConfigError(f"{path}: expected an object")
    kind = _require(cfg, "type", path)
    e = grid.centers
    amplitude = _number(cfg.get("amplitude", 1.0), f"{path}.amplitude")
    if kind == "gaussian_shell":
        center = _number(_require(cfg, "center", path), f"{path}.center")
        width = _number(_require(cfg, "width", path), f"{path}.width")
        if width <= 0:
            raise ConfigError(f"{path}.width: must be positive")
        values = amplitude * np.exp(-((e - center) ** 2) / (2.0 * width**2))
    elif kind == "indicator":
        lo = _number(_require(cfg, "lo", path), f"{path}.lo")
        hi = _number(_require(cfg, "hi", path), f"{path}.hi")
        if hi <= lo:
            raise ConfigError(f"{path}: hi must exceed lo")
        values = amplitude * ((e >= lo) & (e < hi)).astype(float)
    elif kind == "table":
        values = _table(cfg, "re", grid, path).astype(complex)
        if "im" in cfg:
            values = values + 1j * _table(cfg, "im", grid, path)
    else:
        raise ConfigError(f"{path}.type: unknown vector type {kind!r}")
    return values


def model_from_config(cfg: Mapping[str, Any]) -> SpectralModel:
    grid = grid_from_config(_require(cfg, "grid", "config"))
    density = _density_from_config(_require(cfg, "density", "config"), grid, "density")
    vectors_cfg = _require(cfg, "vectors", "config")
    if not isinstance(vectors_cfg, Mapping) or not vectors_cfg:
        raise ConfigError("vectors: expected a non-empty object")
    vectors = {name: _vector_from_config(vcfg, grid, f"vectors.{name}") for name, vcfg in vectors_cfg.items()}
    return make_model(grid, density, vectors)


def test_function_from_config(cfg: Any, path: str = "phi") -> TestFunction:
    if not isinstance(cfg, Mapping):
        raise ConfigError(f"{path}: expected an object")
    family = _require(cfg, "family", path)
    amplitude = _number(cfg.get("amplitude", 1.0), f"{path}.amplitude")
    if family == "gaussian":
        return TestFunction.gaussian(
            center=_number(cfg.get("center", 0.0), f"{path}.center"),
            width=_number(cfg.get("width", 1.0), f"{path}.width"),
            amplitude=amplitude,
        )
    if family == "indicator":
        return TestFunction.indicator(
            lo=_number(_require(cfg, "lo", path), f"{path}.lo"),
            hi=_number(_require(cfg, "hi", path), f"{path}.hi"),
            height=amplitude,
        )
    raise ConfigError(f"{path}.family: unknown family {family!r}")


def symbol_entries(cfg: Mapping[str, Any], model: SpectralModel):
    """Yield (path, entry) for each entry of the config's symbols array once
    its f and g name vectors of the model; phi and omega_index are not read."""
    raw = cfg.get("symbols")
    if raw is None:
        raise ConfigError("symbols: missing from config and required by this command")
    if not isinstance(raw, Sequence) or not raw:
        raise ConfigError("symbols: expected a non-empty array")
    for i, entry in enumerate(raw):
        path = f"symbols[{i}]"
        if not isinstance(entry, Mapping):
            raise ConfigError(f"{path}: expected an object")
        for label in (_require(entry, "f", path), _require(entry, "g", path)):
            if not isinstance(label, str) or label not in model.vectors:
                raise ConfigError(f"{path}: vector {label!r} not defined under vectors")
        yield path, entry


def symbols_from_config(cfg: Mapping[str, Any], model: SpectralModel) -> list[NumberSymbol]:
    out = []
    for path, entry in symbol_entries(cfg, model):
        s = _integer(entry.get("omega_index", 0), f"{path}.omega_index")
        phi = test_function_from_config(_require(entry, "phi", path), f"{path}.phi")
        out.append(NumberSymbol.make(f=entry["f"], g=entry["g"], s=s, phi=phi))
    return out


def default_config() -> dict:
    """Built-in demonstration model used when no --config is given."""
    return {
        "grid": {"e_min": 0.0, "e_max": 4.0, "bins": 128},
        "density": {"type": "flat", "value": 1.0},
        "vectors": {
            "a": {"type": "gaussian_shell", "center": 1.2, "width": 0.35},
            "b": {"type": "gaussian_shell", "center": 2.1, "width": 0.5},
        },
        "symbols": [
            {"f": "a", "g": "b", "omega_index": 0, "phi": {"family": "gaussian", "center": 0.0, "width": 1.0}},
            {"f": "b", "g": "a", "omega_index": 0, "phi": {"family": "gaussian", "center": 0.0, "width": 1.0}},
        ],
    }
