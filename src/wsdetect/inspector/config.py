"""Inspector configuration: paths, mode, rule and blacklist settings."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

ENV_CONFIG_PATH = "WS_INSPECTOR_CONFIG"


class ConfigError(Exception):
    pass


@dataclass
class InspectorConfig:
    deep_inspecting: bool = True
    rules_dir: str = "/etc/NetIDPS/rules"
    socket_path: str = "/run/wsdetect/inspector.sock"
    model_path: str = ""
    sid_start: int = 3_000_001
    mode: str = "ips"  # "ips" drops, "ids" only alerts
    blacklist_ttl_s: float = 86_400
    eve_path: str = ""

    def __post_init__(self):
        if self.mode not in ("ips", "ids"):
            raise ConfigError("mode must be 'ips' or 'ids'")
        if not isinstance(self.deep_inspecting, bool):
            raise ConfigError("deep_inspecting must be true or false")
        if not _is_int(self.sid_start) or self.sid_start < 0:
            raise ConfigError("sid_start must be a non-negative integer")
        ttl = self.blacklist_ttl_s
        if not (_is_int(ttl) or isinstance(ttl, float)) or not 0 < ttl < math.inf:
            raise ConfigError("blacklist_ttl_s must be a positive number of seconds")

    @property
    def rule_action(self) -> str:
        # passive deployments cannot drop anything: rules degrade to alert
        return "drop" if self.mode == "ips" else "alert"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_config(path: str | Path | None = None, overrides: dict | None = None,
                defaults: dict | None = None) -> InspectorConfig:
    """Config from a JSON file plus overrides. With no explicit path the
    WS_INSPECTOR_CONFIG environment variable is consulted. `defaults`
    replaces the `InspectorConfig` default of each key it names, for a
    caller whose default differs from the daemon's."""
    data: dict = dict(defaults or {})
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH) or None
    if path is not None:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        data.update(raw)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(InspectorConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return InspectorConfig(**data)
