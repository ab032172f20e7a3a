"""The federation assembler: a topology is data, the wiring exists once.

:func:`build_federation` turns a topology — server specs plus an
optional placement (which server hosts which tables; absent = every
table everywhere) — into the paper's Figure 1/2 wiring: one integrator,
a meta-wrapper over one relational wrapper per remote DB2-like server,
mutable load levels (so the phase runner can flip Table 1's Base/Load
conditions), and the calibration that prices and picks every plan — a
QCC unless the caller hands in another :class:`~repro.core.Calibration`
(the identity one, or a baseline's fixed assignment).  It is the only
place the harness, baselines, chaos runner and CLI construct those
objects; the default topology is Section 5's three fully replicated
servers and :func:`build_replica_federation` is Section 4's S1/R1/S2/R2.

Server characteristics are chosen so the qualitative structure of the
paper's Figure 9 emerges: S3 is the most powerful machine overall but
collapses under CPU contention, while its I/O path barely notices load —
so CPU-bound query types flee S3 when it is loaded while scan-bound
types stay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..sqlengine import Database, ServerProfile, populate
from ..sim import (
    AlwaysUp,
    AvailabilitySchedule,
    ContentionProfile,
    ErrorInjector,
    InducedLoad,
    MutableLoad,
    NetworkLink,
    RemoteServer,
    VirtualClock,
)
from ..fed import InformationIntegrator, NicknameRegistry
from ..wrappers import MetaWrapper, RelationalWrapper
from ..core import Calibration, QCCConfig, QueryCostCalibrator
from ..workload import BENCH_SCALE, WorkloadScale, table_specs


@dataclass(frozen=True)
class ServerSpec:
    """Static description of one remote server."""

    name: str
    cpu_speed: float
    io_speed: float
    cpu_sensitivity: float
    io_sensitivity: float
    latency_ms: float
    bandwidth_mbps: float
    error_rate: float = 0.0

    def profile(self) -> ServerProfile:
        return ServerProfile(
            name=self.name, cpu_speed=self.cpu_speed, io_speed=self.io_speed
        )

    def contention(self) -> ContentionProfile:
        return ContentionProfile(
            cpu_sensitivity=self.cpu_sensitivity,
            io_sensitivity=self.io_sensitivity,
        )

    def link(self) -> NetworkLink:
        return NetworkLink(
            latency_ms=self.latency_ms, bandwidth_mbps=self.bandwidth_mbps
        )


#: The three-server deployment of Section 5.  S3 is the most powerful
#: machine; S1 and S2 are moderate and balanced.  Contention follows the
#: shape described in the module docstring.
DEFAULT_SERVER_SPECS: Tuple[ServerSpec, ...] = (
    ServerSpec(
        "S1",
        cpu_speed=1.1,
        io_speed=1.1,
        cpu_sensitivity=0.70,
        io_sensitivity=0.75,
        latency_ms=8.0,
        bandwidth_mbps=80.0,
    ),
    ServerSpec(
        "S2",
        cpu_speed=1.2,
        io_speed=0.9,
        cpu_sensitivity=0.75,
        io_sensitivity=0.70,
        latency_ms=12.0,
        bandwidth_mbps=60.0,
    ),
    ServerSpec(
        "S3",
        cpu_speed=2.2,
        io_speed=2.5,
        cpu_sensitivity=0.95,
        io_sensitivity=0.30,
        latency_ms=3.0,
        bandwidth_mbps=150.0,
    ),
)


@dataclass
class Deployment:
    """A fully wired federation plus the handles experiments poke."""

    integrator: InformationIntegrator
    registry: NicknameRegistry
    meta_wrapper: MetaWrapper
    servers: Dict[str, RemoteServer]
    loads: Dict[str, MutableLoad]
    clock: VirtualClock
    #: A :class:`QueryCostCalibrator`, or the calibration the federation
    #: was built with (``build_federation(calibration=)``).
    qcc: Calibration
    specs: Tuple[ServerSpec, ...]

    def set_load(self, levels: Mapping[str, float]) -> None:
        """Set each server's load level (e.g. from a Table 1 phase)."""
        for name, level in levels.items():
            self.loads[name].set(level)

    def server_names(self) -> List[str]:
        return sorted(self.servers)


#: server name -> the tables it hosts, in registration order.
TablePlacement = Mapping[str, Sequence[str]]


def build_databases(
    specs: Sequence[ServerSpec],
    scale: WorkloadScale = BENCH_SCALE,
    seed: int = 7,
    placement: Optional[TablePlacement] = None,
) -> Dict[str, Database]:
    """One loaded sample database per server spec.

    Each server receives the tables *placement* gives it (all of them
    when absent).  Copies of a table are identical across servers: the
    paper replicates tables so "each server is involved in a diverse set
    of queries", and identical replicas keep result correctness checks
    trivial.  So a table is generated, validated and analysed once, at
    its first host in spec order; every later host loads it as a copy
    (``Database.load_copy``), sharing its tuples and catalog definition
    while writing only its own row list.
    """
    tables = {table.name: table for table in table_specs(scale)}
    first_hosts: Dict[str, Database] = {}
    databases: Dict[str, Database] = {}
    for spec in specs:
        database = Database(name=spec.name, profile=spec.profile())
        hosted = placement[spec.name] if placement is not None else tables
        for name in hosted:
            first = first_hosts.setdefault(name, database)
            if first is database:
                populate(database, [tables[name]], seed=seed)
            else:
                database.create_table(name, tables[name].schema())
                database.load_copy(name, first)
        databases[spec.name] = database
    return databases


def build_federation(
    specs: Sequence[ServerSpec] = DEFAULT_SERVER_SPECS,
    scale: WorkloadScale = BENCH_SCALE,
    seed: int = 7,
    qcc_config: Optional[QCCConfig] = None,
    calibration: Optional[Calibration] = None,
    availability: Optional[Mapping[str, AvailabilitySchedule]] = None,
    prebuilt_databases: Optional[Mapping[str, Database]] = None,
    induced_load: bool = False,
    induced_gain: float = 0.002,
    induced_decay_ms: float = 2_000.0,
    enable_plan_cache: bool = True,
    placement: Optional[TablePlacement] = None,
) -> Deployment:
    """Assemble servers, wrappers, MW, the calibration and the II.

    ``placement`` maps each server to the tables it hosts; without it
    every server hosts every table.  Nicknames are registered in spec
    order, so the first host of a table supplies the global catalog's
    definition of it.
    ``prebuilt_databases`` lets benchmark suites and the chaos harness
    reuse loaded data across deployments (loading 100k-row tables
    dominates setup time otherwise).
    With ``induced_load`` each server's load level additionally rises
    with the traffic routed to it (the hot-spot feedback of Section 4);
    ``Deployment.set_load`` still controls the phase base level.
    ``calibration`` is what prices every option and picks every plan
    (:meth:`Calibration.recommend_global`); without one it is a QCC
    built from ``qcc_config``.
    """
    if calibration is not None and qcc_config is not None:
        raise ValueError("pass calibration= or qcc_config=, not both")
    clock = VirtualClock()
    databases = prebuilt_databases
    if databases is None:
        databases = build_databases(specs, scale, seed, placement)

    servers: Dict[str, RemoteServer] = {}
    loads: Dict[str, MutableLoad] = {}
    registry = NicknameRegistry()
    for spec in specs:
        database = databases[spec.name]
        load = loads[spec.name] = MutableLoad(0.0)
        servers[spec.name] = RemoteServer(
            name=spec.name,
            database=database,
            contention=spec.contention(),
            load=(
                InducedLoad(
                    gain=induced_gain, decay_ms=induced_decay_ms, base=load
                )
                if induced_load
                else load
            ),
            link=spec.link(),
            availability=(availability or {}).get(spec.name, AlwaysUp()),
            errors=ErrorInjector(spec.error_rate, seed=seed, name=spec.name),
        )
        hosted = (
            placement[spec.name]
            if placement is not None
            else database.catalog.table_names()
        )
        for table_name in hosted:
            # Only a nickname's first registration reads the definition.
            registry.register(
                table_name,
                spec.name,
                table_def=database.catalog.lookup(table_name),
            )

    qcc = calibration or QueryCostCalibrator(
        servers=[spec.name for spec in specs],
        config=qcc_config or QCCConfig(),
    )
    meta_wrapper = MetaWrapper(
        {name: RelationalWrapper(server) for name, server in servers.items()},
        qcc=qcc,
    )

    integrator = InformationIntegrator(
        registry=registry,
        meta_wrapper=meta_wrapper,
        clock=clock,
        enable_plan_cache=enable_plan_cache,
    )
    return Deployment(
        integrator=integrator,
        registry=registry,
        meta_wrapper=meta_wrapper,
        servers=servers,
        loads=loads,
        clock=clock,
        qcc=qcc,
        specs=tuple(specs),
    )


def _replica_of(origin: ServerSpec, name: str, latency_ms: float) -> ServerSpec:
    # Replicas run on slightly weaker machines (93% of the origin's
    # speed): their estimated costs sit ~8% above the origin's — inside
    # the paper's 20% near-cost band, outside a very tight one — which
    # is exactly the regime the band ablation explores.
    return replace(
        origin,
        name=name,
        latency_ms=latency_ms,
        cpu_speed=origin.cpu_speed * 0.93,
        io_speed=origin.io_speed * 0.93,
    )


_S1, _S2, _ = DEFAULT_SERVER_SPECS

#: The Section 4 load-distribution topology: S1, R1, S2, R2.
REPLICA_SERVER_SPECS: Tuple[ServerSpec, ...] = (
    _S1,
    _replica_of(_S1, "R1", latency_ms=10.0),
    _S2,
    _replica_of(_S2, "R2", latency_ms=14.0),
)

_GROUP_A = ("orders", "customer")
_GROUP_B = ("lineitem", "product", "supplier")

#: R1 replicates S1's tables and R2 replicates S2's.
REPLICA_PLACEMENT: TablePlacement = {
    "S1": _GROUP_A,
    "R1": _GROUP_A,
    "S2": _GROUP_B,
    "R2": _GROUP_B,
}


def build_replica_federation(**options) -> Deployment:
    """The Section 4 load-distribution scenario: S1, S2, R1, R2.

    R1 replicates S1's tables (orders, customer) and R2 replicates S2's
    (lineitem, product, supplier), so a federated join across the two
    table groups has two fragments with two candidate servers each —
    exactly the paper's Q6 with its nine derivable global plans.
    *options* are :func:`build_federation`'s.
    """
    return build_federation(
        REPLICA_SERVER_SPECS, placement=REPLICA_PLACEMENT, **options
    )
