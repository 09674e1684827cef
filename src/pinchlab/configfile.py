"""Sectioned key = value experiment configuration.

The format is deliberately flat and diff-friendly: ``[section]`` headers,
one ``key = value`` per line, ``#`` comments.  Unknown sections or keys are
rejected so that typos fail loudly; every randomized run must carry an
explicit seed.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import (
    DensitySpec,
    FamilyConfig,
    cosine_bump_profile,
    density_from_callable,
    neck_wave_profile,
    sine_bump_profile,
)

_PATTERN_KEYS = {
    "density": re.compile(
        r"^(fat|neck)\.\d+$|^(cos|sin)\.\d+$|^(segment_cos|segment_sin|neck_wave)\.\d+$"
    ),
}

_SCHEMA: dict[str, set[str] | str] = {
    "family": {
        "n_components", "areas", "neck_length", "fat_circumference",
        "smoothing_width", "no_neck",
    },
    "density.alpha": "density",
    "density.beta": "density",
    "solver": {
        "resolution", "m_max", "k_per_mode", "seed", "tail_count",
        "green_cutoff",
    },
    "sweep": {"L", "L_grid", "estimate_L_grid", "fit_window", "t_grid"},
    "dynamics": {
        "t_poly", "s0", "fiber_n", "k_max", "n_list", "u_preset",
        "phi_preset", "phi_amplitude", "rho_preset", "rho_amplitude",
        "growth_rho_preset", "growth_rho_amplitude", "alpha_preset",
        "alpha_amplitude", "f_mean_preset", "base_r_min", "base_r_max",
        "base_n_r", "base_n_arg",
    },
    "node": {"eta", "t_grid", "radial_per_decade", "angular", "split_factor"},
    "output": {"directory", "precision"},
}

_DENSITY_EXTRA = {"project"}


@dataclass(frozen=True)
class ExperimentConfig:
    sections: dict[str, dict[str, str]]
    text: str = ""

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
        return self._typed(section, key, default, _finite_float, "a finite number")

    def get_int(self, section, key, default=None) -> int:
        return self._typed(section, key, default, int, "an integer")

    def get_bool(self, section, key, default=None) -> bool:
        raw = self.get(section, key, default).strip().lower()
        if raw in {"true", "yes", "1"}:
            return True
        if raw in {"false", "no", "0"}:
            return False
        raise ValidationError(f"[{section}] {key} must be a boolean, got {raw!r}")

    def get_floats(self, section, key, default=None) -> tuple[float, ...]:
        return self._typed(section, key, default, lambda raw: tuple(
            _finite_float(p) for p in raw.split(",") if p.strip()), "a list of finite numbers")

    def get_complexes(self, section, key, default=None) -> tuple[complex, ...]:
        return self._typed(section, key, default, lambda raw: tuple(
            complex(p.strip().replace(" ", "")) for p in raw.split(",") if p.strip()),
            "a list of complex numbers")

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

    def family(self) -> FamilyConfig:
        n = self.get_int("family", "n_components")
        areas = None
        if self.has("family", "areas"):
            areas = self.get_floats("family", "areas")
        fields = dict(
            n_components=n,
            areas=areas,
            neck_length=self.get_float("family", "neck_length", "1.0"),
            fat_circumference=self.get_float(
                "family", "fat_circumference", repr(1.0 / (2 * math.pi))
            ),
            smoothing_width=self.get_float("family", "smoothing_width", "0.0"),
            no_neck=self.get_bool("family", "no_neck", "false"),
        )
        try:
            return FamilyConfig(**fields)
        except ValidationError as exc:
            raise ValidationError(f"[family] {exc}") from None

    def density_builder(self, which: str):
        """Builder chain -> DensityField for [density.alpha] or [density.beta]."""
        section = f"density.{which}"
        items = self.sections.get(section, {})
        fat, neck, cos_t, sin_t = [], [], [], []
        bumps = []  # (kind, index, amplitude)
        project = True
        for key, raw in items.items():
            if key == "project":
                project = self.get_bool(section, "project")
                continue
            head, idx = key.split(".")
            value = self.get_float(section, key)
            if head == "fat":
                fat.append((int(idx), value))
            elif head == "neck":
                neck.append((int(idx), value))
            elif head == "cos":
                cos_t.append((int(idx), value))
            elif head == "sin":
                sin_t.append((int(idx), value))
            else:
                bumps.append((head, int(idx), value))
        spec = DensitySpec(
            fat_values=tuple(sorted(fat)),
            neck_values=tuple(sorted(neck)),
            cos_terms=tuple(sorted(cos_t)),
            sin_terms=tuple(sorted(sin_t)),
            project=project,
        )
        profile_makers = {
            "segment_cos": cosine_bump_profile,
            "segment_sin": sine_bump_profile,
            "neck_wave": neck_wave_profile,
        }

        def build(chain):
            base = spec.profile(chain)
            extras = [
                (profile_makers[kind], idx, amp) for kind, idx, amp in bumps
            ]

            def profile(x):
                out = base(x)
                for maker, idx, amp in extras:
                    out = out + maker(chain, idx, amp)(x)
                return out

            return density_from_callable(profile, chain, project=project, spec=spec)

        return build

    def require_seed(self) -> int:
        if not self.has("solver", "seed"):
            raise ValidationError(
                "randomized runs require an explicit [solver] seed"
            )
        return self.get_int("solver", "seed")


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {raw!r}")
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
        vals = np.array([_finite_float(p) for p in raw.split(",") if p.strip()])
    except ValueError:
        raise ValidationError(f"grid entries must be finite numbers, got {raw!r}") from None
    if vals.size == 0:
        raise ValidationError("empty grid")
    return vals


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
        allowed = _SCHEMA[current]
        if isinstance(allowed, str):
            pattern = _PATTERN_KEYS[allowed]
            if not (pattern.match(key) or key in _DENSITY_EXTRA):
                raise ValidationError(
                    f"line {lineno}: unknown key {key!r} in [{current}]"
                )
        elif key not in allowed:
            raise ValidationError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return ExperimentConfig(sections=sections, text=text)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
