"""Sectioned key = value experiment configuration.

The format is deliberately flat and diff-friendly: ``[section]`` headers,
one ``key = value`` per line, ``#`` comments.  Unknown sections or keys are
rejected so that typos fail loudly; every randomized run must carry an
explicit seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ValidationError

# a [density.*] section takes only ``<term>.<index>`` keys (_density_term)
_SCHEMA: dict[str, set[str]] = {
    "family": {
        "n_components", "areas", "neck_length",
    },
    "density.alpha": set(),
    "density.beta": set(),
    "solver": {"resolution", "m_max", "k_per_mode", "seed"},
    "sweep": {"L", "L_grid", "fit_window"},
    "dynamics": {
        "t_poly", "s0", "fiber_n", "k_max", "n_list", "u_preset",
        "phi_preset", "phi_amplitude", "rho_preset", "rho_amplitude",
        "growth_rho_preset", "growth_rho_amplitude", "alpha_preset",
        "alpha_amplitude", "f_mean_preset", "base_r_min", "base_r_max",
        "base_n_r", "base_n_arg",
    },
    "node": {"eta", "t_grid", "radial_per_decade", "angular"},
    "output": {"directory", "precision"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    sections: dict[str, dict[str, str]]

    def hash(self) -> str:
        normalized = []
        for sec in sorted(self.sections):
            for key in sorted(self.sections[sec]):
                normalized.append(f"{sec}.{key}={self.sections[sec][key]}")
        return hashlib.sha256("\n".join(normalized).encode()).hexdigest()[:16]

    # -- raw access -------------------------------------------------------

    def has(self, section: str, key: str) -> bool:
        return key in self.sections.get(section, {})

    def get(self, section: str, key: str, default=None) -> str:
        try:
            return self.sections[section][key]
        except KeyError:
            if default is None:
                raise ValidationError(f"missing required key [{section}] {key}")
            return default

    def _typed(self, section, key, default, convert, what):
        raw = self.get(section, key, default)
        try:
            return convert(raw)
        except ValueError:
            raise ValidationError(f"[{section}] {key} must be {what}, got {raw!r}") from None

    def get_float(self, section, key, default=None) -> float:
        return self._typed(section, key, default, finite_float, "a finite number")

    def get_int(self, section, key, default=None) -> int:
        return self._typed(section, key, default, int, "an integer")

    def get_floats(self, section, key, default=None) -> tuple[float, ...]:
        return self._typed(section, key, default, lambda raw: tuple(
            finite_float(p) for p in raw.split(",") if p.strip()), "a list of finite numbers")

    def get_complex(self, section, key, default=None) -> complex:
        return self._typed(section, key, default, finite_complex, "a finite complex number")

    def get_complexes(self, section, key, default=None) -> tuple[complex, ...]:
        return self._typed(section, key, default, lambda raw: tuple(
            finite_complex(p) for p in raw.split(",") if p.strip()),
            "a list of finite complex numbers")

    def get_ints(self, section, key, default=None) -> tuple[int, ...]:
        return self._typed(section, key, default, lambda raw: tuple(
            int(p) for p in raw.split(",") if p.strip()), "a list of integers")

    def get_grid(self, section, key, default=None) -> np.ndarray:
        """Grid syntax: comma list, or ``lo:hi:count`` geometric range."""
        raw = self.get(section, key, default)
        try:
            return parse_grid(raw)
        except ValidationError as exc:
            raise ValidationError(f"[{section}] {key}: {exc}") from None

    # -- typed builders -----------------------------------------------------

    def family(self) -> geometry.FamilyConfig:
        n = self.get_int("family", "n_components")
        areas = self.get_floats("family", "areas") if self.has("family", "areas") else None
        neck_length = self.get_float("family", "neck_length", "1.0")
        try:
            return geometry.FamilyConfig(n, areas, neck_length)
        except ValidationError as exc:
            raise ValidationError(f"[family] {exc}") from None

    def density_builder(self, which: str):
        """Builder chain -> DensityField for [density.alpha] or [density.beta]."""
        section = f"density.{which}"
        terms = {"fat": [], "neck": [], "cos": [], "sin": []}
        waves = []  # (kind, index, amplitude), in file order
        for key in self.sections.get(section, {}):
            head, idx = key.split(".")
            value = self.get_float(section, key)
            if head in terms:
                terms[head].append((int(idx), value))
            else:
                waves.append((head, int(idx), value))
        spec = geometry.DensitySpec(
            fat_values=tuple(sorted(terms["fat"])), neck_values=tuple(sorted(terms["neck"])),
            cos_terms=tuple(sorted(terms["cos"])), sin_terms=tuple(sorted(terms["sin"])),
            waves=tuple(waves),
        )
        # a lambda, not a partial: density_from_spec is looked up at each call,
        # so a wrapper installed on geometry later still sees it
        return lambda chain: geometry.density_from_spec(spec, chain)

    def require_seed(self) -> int:
        if not self.has("solver", "seed"):
            raise ValidationError(
                "randomized runs require an explicit [solver] seed"
            )
        return self.get_int("solver", "seed")


def finite_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def finite_complex(raw: str) -> complex:
    value = complex(raw.replace(" ", ""))
    if not np.isfinite(value):
        raise ValueError(f"must be a finite complex number, got {raw!r}")
    return value


def parse_grid(raw: str) -> np.ndarray:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid range must be lo:hi:count, got {raw!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError(f"bad grid range {raw!r}") from None
        if count < 2 or not 0 < lo < hi < math.inf:
            raise ValidationError(f"bad grid range {raw!r}")
        return np.geomspace(lo, hi, count)
    try:
        vals = np.array([finite_float(p) for p in raw.split(",") if p.strip()])
    except ValueError:
        raise ValidationError(f"grid entries must be finite numbers, got {raw!r}") from None
    if vals.size == 0:
        raise ValidationError("empty grid")
    return vals


def _density_term(key: str) -> bool:
    """Whether ``key`` is ``fat.<i>``, ``neck.<i>``, ``cos.<k>``, ``sin.<k>`` or
    ``<wave>.<i>``, a wave being a key of ``geometry.WAVE_PROFILES``; only a
    wave key runs ``geometry``, so a config without one parses without it."""
    head, _, index = key.partition(".")
    return index.isdecimal() and (head in {"fat", "neck", "cos", "sin"}
                                  or head in geometry.WAVE_PROFILES)


def parse_config(text: str) -> ExperimentConfig:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ValidationError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ValidationError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        density_term = current.startswith("density.") and _density_term(key)
        if key not in _SCHEMA[current] and not density_term:
            raise ValidationError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return ExperimentConfig(sections=sections)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
