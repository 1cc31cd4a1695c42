"""Exception hierarchy for drrcalc.

Every error raised by the library derives from :class:`DrrError` so callers
(and the CLI) can catch one type and still get a structured message.
"""

from __future__ import annotations


class DrrError(Exception):
    """Base class for all drrcalc errors."""


# --- case ingestion ---------------------------------------------------------

class MalformedCase(DrrError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class MissingTable(DrrError):
    def __init__(self, table: str):
        super().__init__(f"required table '{table}' not found in case file")
        self.table = table


class InconsistentDimensions(DrrError):
    pass


class UnknownGenerator(DrrError):
    pass


class DuplicateDesignation(DrrError):
    pass


class DisconnectedNetwork(DrrError):
    """The in-service network does not form a single connected component."""


class NoRenewables(DrrError):
    pass


class InvalidSetting(DrrError, ValueError):
    """A study setting (config file, environment) is out of range or malformed."""


# --- model building / dispatch ----------------------------------------------

class SingularNetwork(DrrError):
    """Zero-reactance in-service branch or otherwise singular susceptance data."""


class InfeasibleDispatch(DrrError):
    def __init__(self, shortfall_mw: float):
        super().__init__(
            f"initial dispatch infeasible: {shortfall_mw:.3f} MW of aggregate "
            "constraint violation at best effort"
        )
        self.shortfall_mw = shortfall_mw


class UnboundedCost(DrrError):
    pass


class DimensionMismatch(DrrError):
    pass


# --- LP / MIP core -----------------------------------------------------------

class NumericalFailure(DrrError):
    pass


class NodeLimitExceeded(DrrError):
    def __init__(self, nodes: int):
        super().__init__(f"branch-and-bound node limit exceeded ({nodes} nodes)")
        self.nodes = nodes


# --- max-min oracles ----------------------------------------------------------

class BigMTooSmall(DrrError):
    def __init__(self, theta_max: float, big_m: float):
        super().__init__(
            f"complementarity multiplier hit {theta_max:.6g} against big-M {big_m:.6g}; "
            "re-solve with a larger constant"
        )
        self.theta_max = theta_max
        self.big_m = big_m


# --- region / cuts -------------------------------------------------------------

class DegenerateCut(DrrError):
    """Cut normal is numerically zero; the cut carries no direction."""


class ZeroNormal(DrrError):
    pass


class EmptyRegionError(DrrError):
    """An LP proved the current outer approximation empty."""


class DimensionTooHigh(DrrError):
    pass


class FacetInfeasible(DrrError):
    """A facet-restricted LP is infeasible; the facet should have been pruned."""


class AmbiguousFacet(DrrError):
    """A facet probe showed no violation but no initial-box provenance matches."""

    def __init__(self, facets: list[int]):
        super().__init__(
            "facet(s) %s have a feasible probe but no initial-box provenance"
            % ", ".join(str(i) for i in facets)
        )
        self.facets = facets
