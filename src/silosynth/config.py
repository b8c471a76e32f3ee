"""Flat key=value run configuration, shared verbatim by all parties."""

from __future__ import annotations

from .pipeline import PipelineConfig

_INT_KEYS = {"k_folds", "max_loops", "seed", "frac_bits", "n_custodians",
             "synthetic_rows", "lr_epochs"}
_FLOAT_KEYS = {"eps_s", "delta_s", "eps_p", "delta_p", "lr_rate"}
_LIST_KEYS = {"hyperparams"}
_STR_KEYS = {"mode"}


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> PipelineConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _LIST_KEYS:
                values[key] = tuple(int(v.strip()) for v in val.split(",") if v.strip())
            elif key in _STR_KEYS:
                values[key] = val
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
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
    fields = [
        ("k_folds", cfg.k_folds), ("max_loops", cfg.max_loops),
        ("hyperparams", ",".join(str(h) for h in cfg.hyperparams)),
        ("eps_s", repr(cfg.eps_s)), ("delta_s", repr(cfg.delta_s)),
        ("eps_p", repr(cfg.eps_p)), ("delta_p", repr(cfg.delta_p)),
        ("seed", cfg.seed), ("frac_bits", cfg.frac_bits),
        ("n_custodians", cfg.n_custodians), ("mode", cfg.mode),
        ("synthetic_rows", cfg.synthetic_rows),
        ("lr_epochs", cfg.lr_epochs), ("lr_rate", repr(cfg.lr_rate)),
    ]
    return "\n".join(f"{k} = {v}" for k, v in fields)
