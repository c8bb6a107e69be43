"""Scenario configuration: strict JSON with documented defaults.

Unknown fields are rejected loudly; a config file that silently means
something other than what it says is worse than no config at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from .errors import ConfigInvalidError, ConfigParseError
from .insurance import MODES, MODE_HYBRID
from .kernel import DelaySpec, NetworkModel
from .ordering import MODE_DIRECT, MODE_SERVICE, SERVER_BASE

_DELAY_FIELDS = {
    "fixed": {"value_us"},
    "uniform": {"low_us", "high_us"},
    "exponential": {"mean_us"},
    "lognormal": {"median_us", "sigma"},
}


@dataclass
class ClockConfig:
    init_offset_max_us: int = 0
    drift_ppm_max: int = 0
    sync_enabled: bool = False
    sync_bound_us: int = 1000
    sync_max_attempts: int = 10


@dataclass
class AdmissionConfig:
    enabled: bool = True
    rate_per_s: float = 1000.0
    burst: int = 100
    service_time_us: int = 0


@dataclass
class WorkloadConfig:
    kind: str = "broadcast"  # broadcast | transactions
    arrival_rate_per_s: float = 100.0
    participant_count_dist: int = 3
    ordering: str = MODE_SERVICE
    stop_margin_us: int = 1_000_000
    max_retries: int = 5
    backoff_base_us: int = 1000
    backoff_cap_us: int = 64_000
    request_timeout_us: int = 1_000_000


@dataclass
class NetworkConfig:
    delay: dict = field(default_factory=lambda: {
        "family": "lognormal", "median_us": 5000, "sigma": 0.5})
    drop_prob: float = 0.0
    shifts: list = field(default_factory=list)  # [{"at_us":..., "delay": {...}}]


@dataclass
class ScenarioConfig:
    seed: int
    duration_us: int
    mode: str = MODE_HYBRID
    num_order_servers: int = 3
    num_client_nodes: int = 5
    network: NetworkConfig = field(default_factory=NetworkConfig)
    crash_schedule: list = field(default_factory=list)  # [{"node":..,"at_us":..}]
    eta_us: int = 2000
    theta_us: int = 1000
    epsilon_us: int = 100
    percentile: float = 0.9999
    safety_margin_us: int = 0
    history_depth: int = 16
    window_size: int = 10_000
    default_d_us: int = 20_000
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    view_install_delay_us: int = 10_000_000
    resync_interval_us: int = 10_000_000
    heartbeat_interval_us: int = 1_000_000
    suspicion_timeout_us: int = 3_000_000
    clock: ClockConfig = field(default_factory=ClockConfig)
    sequencer_jump_gap: int = 1000

    def to_dict(self) -> dict:
        return asdict(self)

    def build_network(self) -> NetworkModel:
        shifts = [(s["at_us"], _delay_spec(s["delay"]))
                  for s in self.network.shifts]
        shifts.sort(key=lambda p: p[0])
        return NetworkModel(delay=_delay_spec(self.network.delay),
                            drop_prob=self.network.drop_prob, shifts=shifts)


def _delay_spec(d: dict) -> DelaySpec:
    if "family" not in d:
        raise ConfigParseError("delay descriptor missing 'family'")
    family = d["family"]
    if family not in _DELAY_FIELDS:
        raise ConfigInvalidError(f"unknown delay family {family!r}")
    allowed = _DELAY_FIELDS[family]
    extra = set(d) - allowed - {"family"}
    if extra:
        raise ConfigParseError(f"unknown delay field(s) {sorted(extra)}")
    missing = allowed - set(d)
    if missing:
        raise ConfigParseError(
            f"delay family {family!r} missing {sorted(missing)}")
    return DelaySpec(family=family, **{k: d[k] for k in allowed})


def _fill(cls, data: dict, where: str):
    fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore
    unknown = set(data) - fields
    if unknown:
        raise ConfigParseError(f"unknown field(s) in {where}: {sorted(unknown)}")
    return data


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigParseError("config root must be an object")
    data = dict(data)
    for key in ("seed", "duration_us"):
        if key not in data:
            raise ConfigParseError(f"required field {key!r} missing")
    sections = {
        "network": NetworkConfig,
        "admission": AdmissionConfig,
        "workload": WorkloadConfig,
        "clock": ClockConfig,
    }
    kwargs = {}
    for name, cls in sections.items():
        if name in data:
            sub = data.pop(name)
            if not isinstance(sub, dict):
                raise ConfigParseError(f"section {name!r} must be an object")
            kwargs[name] = cls(**_fill(cls, sub, name))
    _fill(ScenarioConfig, data, "config")
    cfg = ScenarioConfig(**data, **kwargs)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ScenarioConfig):
    def positive(name, value):
        if value <= 0:
            raise ConfigInvalidError(f"{name} must be positive, got {value}")

    positive("duration_us", cfg.duration_us)
    for name in ("epsilon_us", "safety_margin_us", "eta_us"):
        if getattr(cfg, name) < 0:
            raise ConfigInvalidError(f"{name} must be non-negative")
    # a timer re-armed after zero time would keep simulated time from moving
    positive("theta_us", cfg.theta_us)
    positive("heartbeat_interval_us", cfg.heartbeat_interval_us)
    positive("workload.request_timeout_us", cfg.workload.request_timeout_us)
    positive("view_install_delay_us", cfg.view_install_delay_us)
    positive("resync_interval_us", cfg.resync_interval_us)
    positive("window_size", cfg.window_size)
    positive("default_d_us", cfg.default_d_us)
    positive("history_depth", cfg.history_depth)
    if not (0.0 < cfg.percentile < 1.0):
        raise ConfigInvalidError(
            f"percentile must be in (0,1), got {cfg.percentile}")
    if cfg.num_order_servers < 1:
        raise ConfigInvalidError("num_order_servers must be >= 1")
    if cfg.num_client_nodes < 1:
        raise ConfigInvalidError("num_client_nodes must be >= 1")
    if cfg.mode not in MODES:
        raise ConfigInvalidError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if not (0.0 <= cfg.network.drop_prob <= 1.0):
        raise ConfigInvalidError(
            f"network.drop_prob must be in [0,1], got {cfg.network.drop_prob}")
    if cfg.workload.kind not in ("broadcast", "transactions"):
        raise ConfigInvalidError(
            f"workload.kind must be broadcast|transactions, got {cfg.workload.kind!r}")
    if cfg.workload.ordering not in (MODE_SERVICE, MODE_DIRECT):
        raise ConfigInvalidError(
            f"workload.ordering must be SERVICE|DIRECT, got {cfg.workload.ordering!r}")
    positive("workload.arrival_rate_per_s", cfg.workload.arrival_rate_per_s)
    positive("workload.participant_count_dist", cfg.workload.participant_count_dist)
    if cfg.admission.rate_per_s < 0:
        raise ConfigInvalidError("admission.rate_per_s must be non-negative")
    named, nodes = "a client", list(range(cfg.num_client_nodes))
    if cfg.workload.kind == "transactions":
        named = "a client or an order server"
        nodes += range(SERVER_BASE, SERVER_BASE + cfg.num_order_servers)
    for entry in cfg.crash_schedule:
        _check_entry("crash_schedule", entry, ("node", "at_us"))
        node = entry["node"]
        if not _is_int(node) or node not in nodes:
            raise ConfigInvalidError(
                f"crash_schedule node must name {named}, got {node!r}")
    for entry in cfg.network.shifts:
        _check_entry("network.shifts", entry, ("at_us", "delay"))
    # exercised for parse errors too
    cfg.build_network()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_entry(where: str, entry, keys: tuple):
    """A schedule entry has exactly ``keys``, and its ``at_us`` is a
    time: simulated time is a non-negative integer."""
    if not isinstance(entry, dict) or set(entry) != set(keys):
        raise ConfigParseError(
            f"{where} entries need exactly {'/'.join(keys)}, got {entry!r}")
    at_us = entry["at_us"]
    if not _is_int(at_us) or at_us < 0:
        raise ConfigInvalidError(
            f"{where} at_us must be a non-negative integer, got {at_us!r}")


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc
    try:
        return config_from_dict(data)
    except TypeError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc
