"""Shipped study presentations, loadable by name or from presentation files."""

from __future__ import annotations

from importlib import resources

from .presentation import CoxeterPresentation, load_presentation, parse_presentation

# a preset is the file presets/<name>.txt and loads by its stem
_DIR = resources.files("artingeo").joinpath("presets")
PRESET_NAMES = tuple(sorted(f.name.removesuffix(".txt") for f in _DIR.iterdir() if f.name.endswith(".txt")))


def load_preset(name: str) -> CoxeterPresentation:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return parse_presentation(_DIR.joinpath(f"{name}.txt").read_text())


def resolve_presentation(spec: str) -> tuple[str, CoxeterPresentation]:
    """A preset name or a path to a presentation file; returns (id, presentation)."""
    if spec in PRESET_NAMES:
        return spec, load_preset(spec)
    return spec, load_presentation(spec)
