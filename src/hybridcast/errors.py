"""Exception types shared across the simulator."""


class HybridcastError(Exception):
    pass


class CrashedNodeError(HybridcastError):
    """Operation attempted on or by a node that has already crashed."""


class SyncFailedError(HybridcastError):
    """Clock synchronization could not achieve the requested bound."""

    def __init__(self, node_id, bound_us, attempts):
        super().__init__(
            f"node {node_id}: no sync attempt reached bound {bound_us}us "
            f"in {attempts} tries"
        )
        self.node_id = node_id
        self.bound_us = bound_us
        self.attempts = attempts


class EmptyWindowError(HybridcastError):
    """Quantile or estimate requested from an empty sample window."""


class NonPositiveDelayError(HybridcastError):
    """Delay sample (or bound input) was not positive after clamping."""


class IncompleteTraceError(HybridcastError):
    """Trace is missing records the oracle needs."""


class UnknownTransactionError(HybridcastError):
    """Order forwarded to a node that is not a listed participant."""


class ConfigError(HybridcastError):
    pass


class ConfigParseError(ConfigError):
    """Malformed config file or unknown field (strict mode)."""


class ConfigInvalidError(ConfigError):
    """Config parsed but violates a documented constraint."""
