"""Flat key=value run configuration, shared verbatim by all parties."""

from __future__ import annotations

from dataclasses import fields

from .pipeline import PipelineConfig

# Each key's type is that of its default; tuples are comma-separated ints.
_TYPES = {f.name: type(f.default) for f in fields(PipelineConfig)}


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> PipelineConfig:
    values, seen = {}, {}   # seen: key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            if _TYPES[key] is tuple:
                values[key] = tuple(int(v.strip()) for v in val.split(",") if v.strip())
            else:
                values[key] = _TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    cfg = PipelineConfig(**values)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_config(path: str) -> PipelineConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def canonical_text(cfg: PipelineConfig) -> str:
    """Stable serialization used for the setup handshake fingerprint."""
    lines = []
    for name, kind in _TYPES.items():
        v = getattr(cfg, name)
        text = ",".join(str(h) for h in v) if kind is tuple else (repr if kind is float else str)(v)
        lines.append(f"{name} = {text}")
    return "\n".join(lines)
