"""Case ingestion: MATPOWER files, renewable designations, study settings.

The parser covers the MATLAB subset MATPOWER cases actually use: scalar
assignments (``mpc.baseMVA = 100;``), matrix literals with ``;`` row breaks,
``%`` comments, and an optional ``function mpc = name`` header.  Everything
is kept exactly as written (per-unit and MW fields untouched) so a parsed
case serializes back to an equivalent file.

Renewable farms are designated in a sidecar JSON file rather than inside the
``.m`` file, so standard case files can be consumed unmodified:

    [{"gen_index": 6, "forecast_mw": 100.0}, ...]

with ``gen_index`` the 1-based row in ``mpc.gen``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import (DisconnectedNetwork, DuplicateDesignation,
                     InconsistentDimensions, MalformedCase, MissingTable,
                     UnknownGenerator)

# Column counts we rely on (MATPOWER case format v2).
_BUS_COLS = 13
_BRANCH_COLS = 13
_GEN_MIN_COLS = 10


@dataclass(frozen=True)
class Bus:
    id: int
    type: int          # 1 PQ, 2 PV, 3 reference
    load_mw: float
    load_mvar: float


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    reactance_pu: float
    rate_a_mw: float   # 0 means unlimited in MATPOWER convention
    angle_min_deg: float
    angle_max_deg: float
    status: int


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
    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    gencost: tuple[CostRecord, ...]

    def bus_ids(self) -> set[int]:
        return {b.id for b in self.buses}


@dataclass(frozen=True)
class RenewableSpec:
    gen_index: int      # 1-based row of mpc.gen
    forecast_mw: float


@dataclass(frozen=True)
class CaseData:
    """A raw case split into flexible units and renewable farms.

    Out-of-service equipment has been dropped and the remaining network is a
    single connected component.  ``flexible``/``renewable`` index into the
    original 1-based generator rows; forecasts follow renewable order.
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

    def in_service_buses(self) -> tuple[Bus, ...]:
        return self.raw.buses

    def in_service_branches(self) -> tuple[Branch, ...]:
        return tuple(br for br in self.raw.branches if br.status != 0)


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
        for name in ("eps_term", "eps_alt", "eps_slack", "eps_dual",
                     "perturb_lambda"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.ramp_fraction <= 1:
            raise ValueError("ramp_fraction must be in (0, 1]")
        if not 0 < self.reserve_factor <= 1:
            raise ValueError("reserve_factor must be in (0, 1]")
        if self.s1_count < 1:
            raise ValueError("s1_count must be at least 1")
        if self.alt_max_rounds < 1:
            raise ValueError("alt_max_rounds must be at least 1")

    def algorithmic_echo(self) -> dict:
        """Config fields that determine results (scheduling knobs excluded),
        and the solver that produced them."""
        skip = {"thread_count"}
        return {**{k: v for k, v in vars(self).items() if k not in skip},
                **_SOLVER_ECHO}


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


def _parse_tables(text: str) -> tuple[str, dict[str, float], dict[str, list[list[float]]], dict[str, int]]:
    """Return (name, scalars, matrices, first-line-of-table) from case text.

    Grammar subset: one row per line (or several separated by ``;``); a row
    ends at ``;`` or at the end of the line; a table ends at ``]``.
    """
    name = "case"
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
            parts = line.replace("=", " ").split()
            if parts:
                name = parts[-1]
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
    return name, scalars, matrices, table_line


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


def parse_matpower(text: str) -> RawCase:
    """Parse MATPOWER case text into a :class:`RawCase`."""
    name, scalars, matrices, table_line = _parse_tables(text)

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
        bid = int(row[0])
        if bid in seen_bus:
            raise MalformedCase(f"duplicate bus id {bid}")
        seen_bus.add(bid)
        buses.append(Bus(id=bid, type=int(row[1]), load_mw=row[2],
                         load_mvar=row[3]))

    branches = []
    for r, row in enumerate(matrices["branch"], start=1):
        if len(row) < _BRANCH_COLS:
            raise MalformedCase(
                f"branch row {r} has {len(row)} columns, expected {_BRANCH_COLS}")
        br = Branch(from_bus=int(row[0]), to_bus=int(row[1]),
                    reactance_pu=row[3], rate_a_mw=row[5],
                    angle_min_deg=row[11], angle_max_deg=row[12],
                    status=int(row[10]))
        for end in (br.from_bus, br.to_bus):
            if end not in seen_bus:
                raise MalformedCase(
                    f"branch row {r} references unknown bus {end}")
        if br.status != 0 and br.reactance_pu == 0.0:
            raise MalformedCase(
                f"branch row {r} is in service with zero reactance")
        if br.rate_a_mw < 0:
            raise MalformedCase(f"branch row {r} has negative rating")
        branches.append(br)

    gens = []
    for r, row in enumerate(matrices["gen"], start=1):
        if len(row) < _GEN_MIN_COLS:
            raise MalformedCase(
                f"gen row {r} has {len(row)} columns, expected >= {_GEN_MIN_COLS}")
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
        costs.append(CostRecord(model=int(row[0]), coeffs=tuple(row[4:])))

    # Normalize the reference bus: keep the first type-3 bus, demote extras;
    # promote the first generator bus when none is marked.
    ref_seen = False
    normalized = []
    for b in buses:
        if b.type == 3:
            if ref_seen:
                b = replace(b, type=2)
            ref_seen = True
        normalized.append(b)
    if not ref_seen:
        gen_buses = {g.bus for g in gens if g.status != 0}
        for i, b in enumerate(normalized):
            if b.id in gen_buses:
                normalized[i] = replace(b, type=3)
                ref_seen = True
                break
    if not ref_seen:
        raise MalformedCase("no reference bus and no in-service generator to promote")

    return RawCase(name=name, base_mva=base, buses=tuple(normalized),
                   branches=tuple(branches), generators=tuple(gens),
                   gencost=tuple(costs))


def parse_matpower_file(path: str | Path) -> RawCase:
    return parse_matpower(Path(path).read_text())


def to_case_text(raw: RawCase) -> str:
    """Serialize back to MATPOWER format; reparsing yields an equal RawCase."""
    out = [f"function mpc = {raw.name}", "mpc.version = '2';",
           f"mpc.baseMVA = {raw.base_mva!r};", "", "mpc.bus = ["]
    for b in raw.buses:
        out.append(f"\t{b.id}\t{b.type}\t{b.load_mw!r}\t{b.load_mvar!r}"
                   "\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;")
    out.append("];")
    out.append("")
    out.append("mpc.gen = [")
    for g in raw.generators:
        out.append(f"\t{g.bus}\t0\t0\t0\t0\t1\t{raw.base_mva!r}\t{g.status}"
                   f"\t{g.p_max_mw!r}\t{g.p_min_mw!r};")
    out.append("];")
    out.append("")
    out.append("mpc.branch = [")
    for br in raw.branches:
        out.append(f"\t{br.from_bus}\t{br.to_bus}\t0\t{br.reactance_pu!r}\t0"
                   f"\t{br.rate_a_mw!r}\t0\t0\t0\t0\t{br.status}"
                   f"\t{br.angle_min_deg!r}\t{br.angle_max_deg!r};")
    out.append("];")
    out.append("")
    out.append("mpc.gencost = [")
    for c in raw.gencost:
        coeffs = "\t".join(repr(x) for x in c.coeffs)
        out.append(f"\t{c.model}\t0\t0\t{len(c.coeffs)}\t{coeffs};")
    out.append("];")
    return "\n".join(out) + "\n"


# --- renewable designation -------------------------------------------------------


def apply_renewables(raw: RawCase, specs: list[RenewableSpec]) -> CaseData:
    """Partition generators into flexible units and renewable farms."""
    n = len(raw.generators)
    seen: set[int] = set()
    for s in specs:
        if not 1 <= s.gen_index <= n:
            raise UnknownGenerator(f"gen_index {s.gen_index} not in 1..{n}")
        if s.gen_index in seen:
            raise DuplicateDesignation(f"gen_index {s.gen_index} designated twice")
        g = raw.generators[s.gen_index - 1]
        if not 0.0 <= s.forecast_mw <= g.p_max_mw + 1e-9:
            raise UnknownGenerator(
                f"forecast {s.forecast_mw} MW outside [0, {g.p_max_mw}] "
                f"for gen {s.gen_index}")
        seen.add(s.gen_index)

    renewable = tuple(s.gen_index for s in specs)
    flexible = tuple(i for i in range(1, n + 1)
                     if i not in seen and raw.generators[i - 1].status != 0)
    forecast = tuple(s.forecast_mw for s in specs)

    pruned = _drop_out_of_service(raw, keep=set(flexible) | set(renewable))
    _require_connected(pruned)
    return CaseData(raw=pruned, flexible=flexible, renewable=renewable,
                    forecast_mw=forecast)


def _drop_out_of_service(raw: RawCase, keep: set[int]) -> RawCase:
    branches = tuple(b for b in raw.branches if b.status != 0)
    # Generators keep their 1-based positions (CaseData indexes by row), so
    # out-of-service units are retained in the tuple but never referenced.
    return replace(raw, branches=branches)


def _require_connected(raw: RawCase) -> None:
    ids = [b.id for b in raw.buses]
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for br in raw.branches:
        if br.status == 0:
            continue
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
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list):
        raise MalformedCase("renewables sidecar must be a JSON array")
    specs = []
    for entry in data:
        specs.append(RenewableSpec(gen_index=int(entry["gen_index"]),
                                   forecast_mw=float(entry["forecast_mw"])))
    return specs


def load_config_file(path: str | Path) -> StudyConfig:
    path = Path(path)
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:
            raise ValueError(
                "TOML config needs Python 3.11+; use JSON instead") from exc
        data = tomllib.loads(path.read_text())
    else:
        data = json.loads(path.read_text())
    known = set(StudyConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return StudyConfig(**data)
