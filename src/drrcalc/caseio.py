"""Case ingestion: MATPOWER files, renewable designations, study settings.

The parser covers the MATLAB subset MATPOWER cases actually use: scalar
assignments (``mpc.baseMVA = 100;``), matrix literals with ``;`` row breaks,
``%`` comments, and an optional ``function mpc = name`` header, which is
skipped.  The fields the model reads are kept exactly as written (per-unit
and MW fields untouched); the others are not kept.  A :class:`RawCase`
holds every bus and generator row, the in-service branches only, and the
id of its reference bus: the first type-3 bus, else the first bus with an
in-service generator.  A gencost row keeps the NCOST coefficients its
model reads (2 * NCOST for piecewise rows); the padding after them goes.

Renewable farms are designated in a sidecar JSON file rather than inside the
``.m`` file, so standard case files can be consumed unmodified:

    [{"gen_index": 6, "forecast_mw": 100.0}, ...]

with ``gen_index`` the 1-based row in ``mpc.gen``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import (DisconnectedNetwork, DuplicateDesignation,
                     InconsistentDimensions, InvalidSetting, MalformedCase,
                     MissingTable, UnknownGenerator)

# Column counts we rely on (MATPOWER case format v2).
_BUS_COLS = 13
_BRANCH_COLS = 13
_GEN_MIN_COLS = 10


@dataclass(frozen=True)
class Bus:
    id: int
    load_mw: float


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    reactance_pu: float
    rate_a_mw: float   # 0 means unlimited in MATPOWER convention
    angle_min_deg: float
    angle_max_deg: float


@dataclass(frozen=True)
class Generator:
    bus: int
    p_max_mw: float
    p_min_mw: float
    status: int


@dataclass(frozen=True)
class CostRecord:
    model: int              # 1 piecewise linear, 2 polynomial
    coeffs: tuple[float, ...]

    def linear_rate(self) -> float:
        """Marginal cost in $/MWh used by the initial dispatch."""
        if self.model == 2:
            # coeffs are highest order first; the linear term is second-last.
            if len(self.coeffs) >= 2:
                return self.coeffs[-2]
            return 0.0
        # piecewise: slope of the first segment
        pts = self.coeffs
        if len(pts) >= 4 and pts[2] != pts[0]:
            return (pts[3] - pts[1]) / (pts[2] - pts[0])
        return 0.0


@dataclass(frozen=True)
class RawCase:
    base_mva: float
    buses: tuple[Bus, ...]
    ref_bus: int                    # id of the reference bus
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    gencost: tuple[CostRecord, ...]


@dataclass(frozen=True)
class RenewableSpec:
    gen_index: int      # 1-based row of mpc.gen
    forecast_mw: float


@dataclass(frozen=True)
class CaseData:
    """A raw case split into flexible units and renewable farms.

    The in-service branches connect every bus.  ``flexible``/``renewable``
    index into the 1-based generator rows, which keep out-of-service units
    in place but name none of them; forecasts follow renewable order.
    """
    raw: RawCase
    flexible: tuple[int, ...]
    renewable: tuple[int, ...]
    forecast_mw: tuple[float, ...]

    @property
    def base_mva(self) -> float:
        return self.raw.base_mva

    def gen(self, index_1b: int) -> Generator:
        return self.raw.generators[index_1b - 1]

    def cost(self, index_1b: int) -> CostRecord:
        return self.raw.gencost[index_1b - 1]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# Every LP and MIP is solved by the HiGHS build that scipy ships.  HiGHS
# runs its MIPs with a relative gap of 0; "mip_gap" keeps the value earlier
# releases wrote, so region.json and binding.json keep their bytes.
_SOLVER_ECHO = {"lp_backend": "scipy", "mip_backend": "scipy", "mip_gap": 1e-9}


@dataclass
class StudyConfig:
    reserve_factor: float = 0.9
    ramp_fraction: float = 0.10
    s1_count: int = 100
    seed: int = 0
    big_m: float | None = None          # None: sized from the model
    eps_term: float = 1e-6
    eps_alt: float = 1e-7
    eps_slack: float = 1e-6
    eps_dual: float = 1e-7
    perturb_lambda: float = 0.01
    max_outer_iters: int = 200
    thread_count: int = 1
    alt_max_rounds: int = 50
    cut_batch_cap: int = 20
    node_limit: int = 100_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_int(value):
                raise InvalidSetting(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _is_number(value):
                raise InvalidSetting(f"{f.name} must be a number, got {value!r}")
        if self.big_m is not None and not (_is_number(self.big_m)
                                           and 0 < self.big_m < math.inf):
            raise InvalidSetting(
                f"big_m must be a positive number, got {self.big_m!r}")
        # JSON config files may say Infinity or NaN.
        for name in ("eps_term", "eps_alt", "eps_slack", "eps_dual",
                     "perturb_lambda"):
            value = getattr(self, name)
            if not value > 0:
                raise InvalidSetting(f"{name} must be positive")
            if value == math.inf:
                raise InvalidSetting(f"{name} must be finite, got {value!r}")
        if not 0 < self.ramp_fraction <= 1:
            raise InvalidSetting("ramp_fraction must be in (0, 1]")
        if not 0 < self.reserve_factor <= 1:
            raise InvalidSetting("reserve_factor must be in (0, 1]")
        # A negative seed would fail only inside numpy's generators.
        for name, low in (("s1_count", 1), ("seed", 0), ("thread_count", 1),
                          ("alt_max_rounds", 1), ("cut_batch_cap", 1),
                          ("max_outer_iters", 1)):
            if getattr(self, name) < low:
                raise InvalidSetting(
                    f"{name} must be at least {low}, got {getattr(self, name)}")
        # HiGHS's mip_max_nodes is a 32-bit int.
        if not 0 <= self.node_limit <= 2**31 - 1:
            raise InvalidSetting("node_limit must be in [0, 2147483647]")

    def algorithmic_echo(self) -> dict:
        """Config fields that determine results (scheduling knobs excluded),
        and the solver that produced them."""
        skip = {"thread_count"}
        return {**{k: v for k, v in vars(self).items() if k not in skip},
                **_SOLVER_ECHO}

    @classmethod
    def from_echo(cls, echo: dict) -> StudyConfig:
        """The settings whose :meth:`algorithmic_echo` is ``echo``, at one
        thread; an echo with a key missing, added or changed is an error."""
        cfg = cls(**{k: v for k, v in echo.items() if k not in _SOLVER_ECHO})
        if cfg.algorithmic_echo() != echo:
            raise InvalidSetting(f"not a config echo: {echo}")
        return cfg


# --- parsing -------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    for ch in line:
        if ch == "'":
            in_str = not in_str
        if ch == "%" and not in_str:
            break
        out.append(ch)
    return "".join(out)


def _parse_tables(text: str) -> tuple[dict[str, float], dict[str, list[list[float]]], dict[str, int]]:
    """Return (scalars, matrices, first-line-of-table) from case text.

    Grammar subset: one row per line (or several separated by ``;``); a row
    ends at ``;`` or at the end of the line; a table ends at ``]``.
    """
    scalars: dict[str, float] = {}
    matrices: dict[str, list[list[float]]] = {}
    table_line: dict[str, int] = {}
    current: str | None = None
    rows: list[list[float]] = []

    def eat_rows(fragment: str, lineno: int) -> None:
        for chunk in fragment.split(";"):
            toks = chunk.split()
            if toks:
                rows.append(_floats(toks, current, lineno))

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _strip_comment(rawline).strip()
        if not line:
            continue
        if current is not None:
            body, closed, _ = line.partition("]")
            eat_rows(body, lineno)
            if closed:
                matrices[current] = rows
                current = None
            continue
        if line.startswith("function"):
            continue
        if line.startswith("mpc.") and "=" in line:
            key, _, rhs = line.partition("=")
            key = key.strip()[4:]
            rhs = rhs.strip()
            if rhs.startswith("["):
                current = key
                table_line[key] = lineno
                rows = []
                body, closed, _ = rhs[1:].partition("]")
                eat_rows(body, lineno)
                if closed:
                    matrices[key] = rows
                    current = None
                continue
            rhs = rhs.rstrip(";").strip().strip("'")
            try:
                scalars[key] = float(rhs)
            except ValueError:
                scalars[key] = math.nan  # version strings and the like
    if current is not None:
        raise MalformedCase(f"table mpc.{current} is never closed",
                            line=table_line[current])
    return scalars, matrices, table_line


def _floats(tokens, table, lineno):
    vals = []
    for k, tok in enumerate(tokens):
        try:
            vals.append(float(tok))
        except ValueError:
            raise MalformedCase(
                f"non-numeric token {tok!r} in mpc.{table}",
                line=lineno, col=k + 1) from None
    return vals


def _check_values(table: str, r: int, row, finite=(), not_nan=(), whole=()) -> None:
    """MalformedCase unless the (name, column) entries of ``finite`` are
    finite in ``row``, those of ``not_nan`` are numbers, where +-inf means
    no limit, and those of ``whole`` (ids) finite whole numbers.  Columns
    the model never reads are not checked."""
    for name, k in whole:
        if not (math.isfinite(row[k]) and row[k] == int(row[k])):
            raise MalformedCase(f"{table} row {r} has a {name} that is not a "
                                f"whole number: {row[k]!r}")
    for name, k in finite:
        if not math.isfinite(row[k]):
            raise MalformedCase(f"{table} row {r} has a non-finite {name}: {row[k]!r}")
    for name, k in not_nan:
        if math.isnan(row[k]):
            raise MalformedCase(f"{table} row {r} has a NaN {name}")


def parse_matpower(text: str) -> RawCase:
    """Parse MATPOWER case text into a :class:`RawCase`."""
    scalars, matrices, table_line = _parse_tables(text)

    for table in ("bus", "branch", "gen", "gencost"):
        if table not in matrices:
            raise MissingTable(table)
        if not matrices[table]:
            raise MalformedCase(f"table mpc.{table} is empty",
                                line=table_line.get(table))
    if "baseMVA" not in scalars or not math.isfinite(scalars["baseMVA"]):
        raise MissingTable("baseMVA")
    base = scalars["baseMVA"]

    buses = []
    seen_bus = set()
    for r, row in enumerate(matrices["bus"], start=1):
        if len(row) < _BUS_COLS:
            raise MalformedCase(
                f"bus row {r} has {len(row)} columns, expected {_BUS_COLS}")
        _check_values("bus", r, row, finite=(("Pd", 2),), whole=(("bus id", 0),))
        bid = int(row[0])
        if bid in seen_bus:
            raise MalformedCase(f"duplicate bus id {bid}")
        seen_bus.add(bid)
        buses.append(Bus(id=bid, load_mw=row[2]))

    branches = []
    for r, row in enumerate(matrices["branch"], start=1):
        if len(row) < _BRANCH_COLS:
            raise MalformedCase(
                f"branch row {r} has {len(row)} columns, expected {_BRANCH_COLS}")
        _check_values("branch", r, row, finite=(("x", 3), ("status", 10)),
                      not_nan=(("rateA", 5), ("angmin", 11), ("angmax", 12)),
                      whole=(("fbus", 0), ("tbus", 1)))
        br = Branch(from_bus=int(row[0]), to_bus=int(row[1]),
                    reactance_pu=row[3], rate_a_mw=row[5],
                    angle_min_deg=row[11], angle_max_deg=row[12])
        for end in (br.from_bus, br.to_bus):
            if end not in seen_bus:
                raise MalformedCase(
                    f"branch row {r} references unknown bus {end}")
        in_service = int(row[10]) != 0
        if in_service and br.reactance_pu == 0.0:
            raise MalformedCase(
                f"branch row {r} is in service with zero reactance")
        if br.rate_a_mw < 0:
            raise MalformedCase(f"branch row {r} has negative rating")
        if in_service:
            branches.append(br)

    gens = []
    for r, row in enumerate(matrices["gen"], start=1):
        if len(row) < _GEN_MIN_COLS:
            raise MalformedCase(
                f"gen row {r} has {len(row)} columns, expected >= {_GEN_MIN_COLS}")
        _check_values("gen", r, row, finite=(("status", 7), ("Pmax", 8), ("Pmin", 9)),
                      whole=(("bus", 0),))
        g = Generator(bus=int(row[0]), p_max_mw=row[8], p_min_mw=row[9],
                      status=int(row[7]))
        if g.bus not in seen_bus:
            raise MalformedCase(f"gen row {r} references unknown bus {g.bus}")
        gens.append(g)

    if len(matrices["gencost"]) != len(gens):
        raise InconsistentDimensions(
            f"gencost has {len(matrices['gencost'])} rows for {len(gens)} generators")
    costs = []
    for r, row in enumerate(matrices["gencost"], start=1):
        if len(row) < 4:
            raise MalformedCase(f"gencost row {r} too short")
        _check_values("gencost", r, row, finite=(("NCOST", 3),))
        if row[0] not in (1, 2):
            raise MalformedCase(f"gencost row {r} has model {row[0]:g}, not 1 "
                                "(piecewise linear) or 2 (polynomial)")
        model, n = int(row[0]), row[3]
        end = 4 + int(n if model == 2 else 2 * n)
        if not (n >= 0 and n == int(n) and len(row) >= end):
            raise MalformedCase(f"gencost row {r}: NCOST {n:g} does not fit its "
                                f"{len(row) - 4} coefficients")
        _check_values("gencost", r, row, finite=tuple(
            (f"coefficient {k - 3}", k) for k in range(4, end)))
        costs.append(CostRecord(model=model, coeffs=tuple(row[4:end])))

    gen_buses = {g.bus for g in gens if g.status != 0}
    refs = [int(row[0]) for row in matrices["bus"] if row[1] == 3] or \
        [b.id for b in buses if b.id in gen_buses]
    if not refs:
        raise MalformedCase("no reference bus and no in-service generator to promote")

    return RawCase(base_mva=base, buses=tuple(buses), ref_bus=refs[0],
                   branches=tuple(branches), generators=tuple(gens),
                   gencost=tuple(costs))


def parse_matpower_file(path: str | Path) -> RawCase:
    return parse_matpower(Path(path).read_text())


# --- renewable designation -------------------------------------------------------


def apply_renewables(raw: RawCase, specs: list[RenewableSpec]) -> CaseData:
    """Partition generators into flexible units and renewable farms."""
    n = len(raw.generators)
    seen: set[int] = set()
    for s in specs:
        if not 1 <= s.gen_index <= n:
            raise UnknownGenerator(f"gen_index {s.gen_index} not in 1..{n}")
        g = raw.generators[s.gen_index - 1]
        if g.status == 0:
            raise UnknownGenerator(f"gen_index {s.gen_index} is out of service")
        if s.gen_index in seen:
            raise DuplicateDesignation(f"gen_index {s.gen_index} designated twice")
        if not 0.0 <= s.forecast_mw <= g.p_max_mw + 1e-9:
            raise UnknownGenerator(
                f"forecast {s.forecast_mw} MW outside [0, {g.p_max_mw}] "
                f"for gen {s.gen_index}")
        seen.add(s.gen_index)

    renewable = tuple(s.gen_index for s in specs)
    flexible = tuple(i for i in range(1, n + 1)
                     if i not in seen and raw.generators[i - 1].status != 0)
    forecast = tuple(s.forecast_mw for s in specs)

    _require_connected(raw)
    return CaseData(raw=raw, flexible=flexible, renewable=renewable,
                    forecast_mw=forecast)


def _require_connected(raw: RawCase) -> None:
    """Raise unless the (in-service) branches of ``raw`` connect every bus."""
    ids = [b.id for b in raw.buses]
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for br in raw.branches:
        adj[br.from_bus].append(br.to_bus)
        adj[br.to_bus].append(br.from_bus)
    if not ids:
        raise DisconnectedNetwork("case has no buses")
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(ids):
        missing = sorted(set(ids) - seen)
        raise DisconnectedNetwork(
            f"buses {missing} are islanded from the reference component")


# --- sidecar / config files ----------------------------------------------------


def load_renewables_file(path: str | Path) -> list[RenewableSpec]:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise MalformedCase(f"{path}: renewables sidecar is not JSON: {exc}") from exc
    if not isinstance(data, list):
        raise MalformedCase("renewables sidecar must be a JSON array")
    specs = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise MalformedCase(f"renewables entry {k} must be a JSON object, "
                                f"got {entry!r}")
        for name in ("gen_index", "forecast_mw"):
            if name not in entry:
                raise MalformedCase(f"renewables entry {k} has no {name}")
            if not _is_number(entry[name]):
                raise MalformedCase(f"renewables entry {k}: {name} must be a "
                                    f"number, got {entry[name]!r}")
        gen_index = entry["gen_index"]
        if not (math.isfinite(gen_index) and gen_index == int(gen_index)):
            raise MalformedCase(f"renewables entry {k}: gen_index must be a "
                                f"whole number, got {gen_index!r}")
        specs.append(RenewableSpec(gen_index=int(gen_index),
                                   forecast_mw=float(entry["forecast_mw"])))
    return specs


def load_config_file(path: str | Path, base: StudyConfig) -> StudyConfig:
    """``base`` with the settings of the JSON object in ``path`` over it;
    JSON is the one format read, whatever the file's suffix."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise InvalidSetting(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidSetting(
            f"{path}: top level must be an object, got {type(data).__name__}")
    known = set(StudyConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise InvalidSetting(f"unknown config keys: {sorted(unknown)}")
    return replace(base, **data)
