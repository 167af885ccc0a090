"""Deployment defaults and a small key=value config reader."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ConfigError

DEFAULT_JOB_TYPES = (
    "healthcare",
    "education",
    "food-service",
    "public-safety",
    "transit",
    "utilities",
    "retail",
    "agriculture",
)

DOSE_INTERVAL_DAYS = 21
SYMPTOM_DIM = 16
SYMPTOM_BOUND = 2 ** 16
FIELD_MODULUS = 2 ** 31 - 1
MAX_REPORTS = 2 ** 14

ENV_KEYSTORE = "VAXCRED_KEYSTORE"
ENV_REGISTRY = "VAXCRED_REGISTRY"
ENV_CONFIG = "VAXCRED_CONFIG"
ENV_PASSPHRASE = "VAXCRED_PASSPHRASE"


@dataclass(frozen=True)
class Config:
    job_types: tuple = DEFAULT_JOB_TYPES
    dose_interval_days: int = DOSE_INTERVAL_DAYS

    def __post_init__(self):
        if self.dose_interval_days < 0:
            raise ConfigError("dose_interval_days must be >= 0")
        if not self.job_types:
            raise ConfigError("job_types must be non-empty")


def parse_config(text: str) -> Config:
    """Parse `key=value` lines; `#` starts a comment, blank lines ignored."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "dose_interval_days":
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer") from None
        elif key == "job_types":
            jobs = tuple(j.strip() for j in value.split(",") if j.strip())
            values[key] = jobs
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return replace(Config(), **values) if values else Config()


def load_config(path=None) -> Config:
    """Read config from `path`, the VAXCRED_CONFIG env var, or defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
