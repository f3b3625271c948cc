"""The benchmark's three workloads, built from a seed through the public API.

Each workload keeps one of Conclave's cost regimes (§5) apart from the
others, so that a change to one layer shows on the workload that exercises
it and leaves the others still:

* ``hhi-bigdata`` — market concentration (Listing 2) over three parties with
  60k standing trips each.  Filter and aggregate run in cleartext at each
  party; the MPC step sees a handful of records, so MPC, hybrid protocols
  and the wire are nearly idle.  Cleartext-bound.
* ``credit-hybrid`` — credit-card regulation (Listing 1) over a regulator
  and two agencies with 40 scores each.  ``hybrid_join`` and
  ``hybrid_aggregate`` exchange about a thousand small frames per query
  (one Beaver multiplication per row in the aggregate's scan), so mesh,
  TLS and codec per-frame cost and the protocols' round count dominate.
  Round-bound.
* ``service-mix`` — two hospitals with about 20k rows per relation and two
  concurrent clients on one session: ``standing`` resubmits a precompiled
  comorbidity plan over standing inputs (plan-cache hits, MPC aggregate and
  sort), ``adhoc`` submits the aspirin-count query uncompiled with its
  inputs attached (compile on the critical path, plan-cache misses, plan
  and input bytes through codec and TLS, a bytes-heavy ``public_join``).

The full sizes keep each query short enough that a run holds many samples:
a median over a hundred queries or more moves little when the host runs
slow for a few seconds, and ten or more samples lie beyond the p90.

A workload's clients are built by :meth:`Workload.clients`, which compiles
the plans — so a traced phase that builds its clients after installing the
wrappers records the compile spans too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import repro as cc
from repro.core.operators import HybridAggregate, HybridJoin, PublicJoin
from repro.queries import (
    aspirin_count_query,
    comorbidity_query,
    credit_card_regulation_query,
    market_concentration_query,
)
from repro.workloads import CreditWorkload, HealthLNKWorkload, TaxiWorkload

from perfbench import checks


@dataclass
class Client:
    """One closed-loop client: what it submits and how its output is checked."""

    role: str
    #: Returns ``(query, per-query inputs or None)`` for the next submission.
    next_query: Callable[[], tuple]
    #: Returns ``None`` when the result matches the reference, else why not.
    check: Callable[[object], str | None]
    #: Compiled plans this client submits (for the plan's operator counts).
    plans: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    why: str
    parties: list[str]
    #: Standing inputs the session is opened with.
    inputs: dict
    #: Input sizes, for the report header.
    sizes: dict
    #: Builds fresh clients (compiling their plans).
    clients: Callable[[], list[Client]]
    #: For single-client workloads whose transport counts must repeat
    #: exactly: builds ``(compiled plan, {party: {relation: Table}})`` to run
    #: in process with :class:`repro.QueryRunner` as the count reference.
    in_process: Callable[[], tuple] | None = None


def plan_op_counts(compiled) -> tuple[int, int]:
    """``(MPC operators, hybrid operators)`` of a compiled plan."""
    nodes = list(compiled.dag.topological())
    mpc = sum(1 for node in nodes if node.is_mpc)
    hybrid = sum(
        1 for node in nodes if isinstance(node, (HybridJoin, HybridAggregate, PublicJoin))
    )
    return mpc, hybrid


class _FixedMarketTaxi(TaxiWorkload):
    """Trips of a market whose company shares are the same for every seed.

    The seed varies the trips, not the market: how the trips spread over
    the companies moved the query's median latency by up to 20% across
    seeds (the cleartext group-by's cost depends on it), which would read
    as run-to-run noise.  The shares are those of generator seed 7, the
    market of ``examples/market_concentration.py``.
    """

    def company_shares(self):
        return TaxiWorkload(seed=7).company_shares()


def hhi_bigdata(seed: int, smoke: bool = False) -> Workload:
    rows = 2_000 if smoke else 60_000
    spec = market_concentration_query(rows_per_party=rows)
    generator = _FixedMarketTaxi(seed=seed)
    tables = generator.party_tables(len(spec.parties), rows)
    inputs = {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}
    reference = generator.reference_hhi(tables)

    def clients() -> list[Client]:
        compiled = cc.compile_query(market_concentration_query(rows_per_party=rows).context)
        return [Client(
            "hhi",
            lambda: (compiled, None),
            lambda result: checks.check_hhi(result.outputs["hhi_result"], reference),
            [compiled],
        )]

    return Workload(
        name="hhi-bigdata",
        why="cleartext-bound: filter and aggregate at each party, MPC and wire nearly idle",
        parties=spec.parties,
        inputs=inputs,
        sizes={"parties": len(spec.parties), "rows_per_party": rows},
        clients=clients,
        in_process=lambda: (cc.compile_query(spec.context), inputs),
    )


def credit_hybrid(seed: int, smoke: bool = False) -> Workload:
    rows = 30 if smoke else 40
    people = 3 * rows
    spec = credit_card_regulation_query(rows_demographics=people, rows_per_agency=rows)
    generator = CreditWorkload(seed=seed)
    demographics, agencies = generator.generate(people, rows, num_agencies=2)
    regulator, *banks = spec.parties
    inputs = {regulator: {"demographics": demographics}}
    for i, bank in enumerate(banks):
        inputs[bank] = {f"scores_{i}": agencies[i]}
    reference = generator.reference_average_scores(demographics, agencies)

    def clients() -> list[Client]:
        compiled = cc.compile_query(credit_card_regulation_query(
            rows_demographics=people, rows_per_agency=rows).context)
        return [Client(
            "credit",
            lambda: (compiled, None),
            lambda result: checks.check_average_scores(result.outputs["avg_scores"], reference),
            [compiled],
        )]

    return Workload(
        name="credit-hybrid",
        why="round-bound: hybrid join and aggregate send about a thousand small frames per query",
        parties=spec.parties,
        inputs=inputs,
        sizes={"parties": len(spec.parties), "demographics_rows": people,
               "rows_per_agency": rows},
        clients=clients,
        in_process=lambda: (cc.compile_query(spec.context), inputs),
    )


def service_mix(seed: int, smoke: bool = False) -> Workload:
    rows = 300 if smoke else 20_000
    top_k = 10
    generator = HealthLNKWorkload(seed=seed)
    standing_spec = comorbidity_query(rows_per_relation=rows, top_k=top_k)
    cohort = generator.comorbidity_inputs(rows)
    inputs = {h: {f"diagnoses_{i}": cohort[i]} for i, h in enumerate(standing_spec.parties)}
    # The full count table: the top-k check needs every count to judge ties.
    all_counts = generator.reference_comorbidity(cohort, top_k=2 * rows)

    diagnoses, medications = generator.aspirin_count_inputs(rows)
    adhoc_inputs = {
        h: {f"diagnoses_{i}": diagnoses[i], f"medications_{i}": medications[i]}
        for i, h in enumerate(standing_spec.parties)
    }
    aspirin_reference = generator.reference_aspirin_count(diagnoses, medications)

    def clients() -> list[Client]:
        comorbidity = cc.compile_query(
            comorbidity_query(rows_per_relation=rows, top_k=top_k).context)
        standing = Client(
            "standing",
            lambda: (comorbidity, None),
            lambda result: checks.check_top_k(
                result.outputs["comorbidity"], all_counts, top_k, "diagnosis", "cnt"),
            [comorbidity],
        )
        adhoc = Client(
            "adhoc",
            # A fresh, uncompiled query every time: the session compiles it
            # and misses its plan cache.
            lambda: (aspirin_count_query(rows_per_relation=rows).context, adhoc_inputs),
            lambda result: checks.check_count(
                result.outputs["aspirin_count"], "aspirin_count", aspirin_reference),
            [cc.compile_query(aspirin_count_query(rows_per_relation=rows).context)],
        )
        return [standing, adhoc]

    return Workload(
        name="service-mix",
        why="concurrent plan-cache hits and misses: compile, queueing and input shipping",
        parties=standing_spec.parties,
        inputs=inputs,
        sizes={"parties": len(standing_spec.parties), "rows_per_relation": rows,
               "clients": 2},
        clients=clients,
    )


WORKLOADS = {
    "hhi-bigdata": hhi_bigdata,
    "credit-hybrid": credit_hybrid,
    "service-mix": service_mix,
}
