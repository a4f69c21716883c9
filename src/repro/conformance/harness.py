"""The differential restart-equivalence harness.

The check, per (app, source cell, destination cell) triple:

1. **golden run** — the app runs to completion under MANA, uncheckpointed,
   on a fixed reference cell; its final-state fingerprint and p2p traffic
   totals are the golden answer (memoized per process);
2. **fuzzed checkpoint** — the same app runs on the *source* cell and a
   coordinated checkpoint is cut at a seeded-random virtual time (a
   uniform fraction of the source run's makespan, drawn from a
   :class:`~repro.simtime.rng.RngStreams` stream named after the triple,
   so every cycle is reproducible from its seed alone);
3. **cross-cell restart** — the checkpoint restarts on the *destination*
   cell — a different MPI implementation, fabric and/or ranks-per-node
   layout — and runs to completion;
4. **oracles** — the restarted final state must be bit-identical to the
   golden fingerprint, and the merged source+restart metrics must conserve
   p2p messages and bytes and match the golden traffic exactly.

:func:`run_conformance` sweeps the full tier matrix through
:func:`~repro.harness.parallel.run_cells` — every cycle is one picklable
:class:`~repro.harness.parallel.SweepCell`, so ``jobs=N`` fans the matrix
over a process pool with results identical to ``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Optional, Sequence

from repro.conformance.matrix import (
    ConfigCell,
    cluster_for,
    matrix_for,
    source_cells,
)
from repro.conformance.oracles import (
    ConservationTotals,
    Divergence,
    check_conservation,
    check_golden_state,
    check_handle_ledger,
    check_replay_accounting,
    check_replay_consistency,
    conservation_totals,
    state_fingerprint,
)
from repro.harness.parallel import SweepCell, memo, run_cells
from repro.mana.protocol import JobOptions, PROTOCOLS
from repro.simtime.rng import RngStreams

#: the cell whose uncheckpointed run defines the golden state (the paper's
#: home configuration: Cray MPICH on Aries)
REF_CELL = ConfigCell(mpi="craympich", fabric="aries", ranks_per_node=2)

#: default app mix: a p2p-dense workload, a collective-heavy one, a
#: rank-count-constrained one (LULESH only runs on cube rank counts — the
#: non-power-of-two shape the matrix layouts must survive), and a
#: handle-churn one (commchurn creates/frees communicators, datatypes and
#: groups every step — the adversarial workload for the record-replay path
#: and the log compactor, docs/record_replay.md)
DEFAULT_APPS = ("gromacs", "hpcg", "lulesh", "commchurn")

#: checkpoints are fuzzed into this fraction band of the source makespan —
#: never so early that no state exists, never after the app finished
CKPT_FRACTION = (0.15, 0.85)


def effective_ranks(app: str, n_ranks: int) -> int:
    """Resolve the requested rank count through the app's own constraint.

    ``AppSpec.valid_ranks`` rounds *down* (LULESH: largest cube ≤ n), which
    can collapse to a single rank — useless for a harness whose whole point
    is cross-rank protocol state.  Grow the request until at least two
    ranks survive the constraint.
    """
    from repro.apps import get_app

    spec = get_app(app)
    want = max(n_ranks, 2)
    n = spec.valid_ranks(want)
    while n < 2:
        want *= 2
        n = spec.valid_ranks(want)
    return n


def checkpoint_fraction(app: str, src: ConfigCell, seed: int, k: int,
                        hop: int = 0) -> float:
    """The fuzzed checkpoint time as a fraction of the source makespan.

    Drawn from a named rng stream keyed on the whole (app, source, k)
    identity, so the value depends only on ``seed`` — never on how many
    cycles ran before this one, or in which process.  ``hop`` keys the
    *second* cut of a chained cycle (checkpoint → restart → checkpoint
    again); hop 0 keeps the historical stream names.
    """
    lo, hi = CKPT_FRACTION
    name = f"conformance.ckpt/{app}/{src.label}/k{k}"
    if hop:
        name += f"/hop{hop}"
    stream = RngStreams(seed).stream(name)
    return float(stream.uniform(lo, hi))


# ------------------------------------------------------------- golden runs

@dataclass(frozen=True)
class GoldenResult:
    """One uncheckpointed run's answer: state, traffic, and duration."""

    fingerprint: str
    totals: ConservationTotals
    makespan: float


def _app_pieces(app: str, n_steps: int):
    from repro.apps import get_app

    spec = get_app(app)
    return spec, spec.default_config.scaled(n_steps=n_steps)


def _launch(app: str, cell: ConfigCell, n_ranks: int, n_steps: int,
            options: JobOptions):
    """``app`` started under MANA on ``cell``."""
    from repro.harness.experiments import _launch_mana_app

    n_eff = effective_ranks(app, n_ranks)
    spec, cfg = _app_pieces(app, n_steps)
    return _launch_mana_app(cluster_for(cell, n_eff), spec, cfg, n_eff,
                            cell.ranks_per_node, options)


def golden_run(app: str, cell: ConfigCell = REF_CELL, n_ranks: int = 4,
               n_steps: int = 4) -> GoldenResult:
    """Run ``app`` to completion under MANA with no checkpoint (memoized)."""
    key = ("conformance-golden", app, cell.as_tuple(), n_ranks, n_steps)

    def compute():
        job = _launch(app, cell, n_ranks, n_steps, JobOptions())
        makespan = job.run_to_completion()
        return GoldenResult(
            fingerprint=state_fingerprint(job.states),
            totals=conservation_totals(job.engine.metrics),
            makespan=makespan,
        )

    return memo(key, compute)


def _source_checkpoint(app: str, src: ConfigCell, n_ranks: int, n_steps: int,
                       seed: int, k: int, options: JobOptions):
    """(checkpoint set, source-engine totals, ckpt time), memoized.

    The checkpoint set is only ever *read* by restarts (the property fig9's
    triple restart already relies on), so one source simulation feeds every
    destination cell of the matrix within a process.  The fuzzed cut time
    comes from an options-independent rng stream, so the alg2 and topo
    variants of one cycle checkpoint at the same virtual instant — the
    ideal differential.  ``options`` keys its own memo slot: a compacted
    and a full image of the same instant are *different artifacts*, and the
    compaction differential depends on restarting both.
    """
    key = ("conformance-src", app, src.as_tuple(), n_ranks, n_steps, seed, k,
           options)

    def compute():
        t_ckpt = (checkpoint_fraction(app, src, seed, k)
                  * golden_run(app, src, n_ranks, n_steps).makespan)
        job = _launch(app, src, n_ranks, n_steps, options)
        ckpt, _report = job.checkpoint_at(t_ckpt)
        return ckpt, conservation_totals(job.engine.metrics), t_ckpt

    return memo(key, compute)


# -------------------------------------------------------------- one cycle

@dataclass(frozen=True)
class CycleResult:
    """Outcome of one differential cycle (picklable across pool workers)."""

    app: str
    src: tuple           # ConfigCell.as_tuple()
    dst: tuple
    seed: int
    k: int
    ckpt_time: float
    divergences: tuple   # of Divergence
    #: which checkpoint protocol drove the cycle ("alternate" = chained
    #: hops cut under alg2 → topo in turn)
    protocol: str = JobOptions.protocol
    #: the restarted run's final-state fingerprint (cross-protocol check)
    fingerprint: str = ""
    #: whether the cycle's checkpoints compacted the record-replay log
    compact: bool = JobOptions.compact
    #: entries the first restart actually replayed (O(live) when compacted)
    replayed: int = 0

    @property
    def ok(self) -> bool:
        """True when every oracle passed."""
        return not self.divergences

    @property
    def pair(self) -> str:
        """``src-label->dst-label`` — the ``--only`` filter syntax."""
        src = ConfigCell.from_tuple(self.src)
        dst = ConfigCell.from_tuple(self.dst)
        return f"{src.label}->{dst.label}"

    def repro(self, tier: str = "quick", n_ranks: Optional[int] = None,
              n_steps: Optional[int] = None) -> str:
        """A shell one-liner whose sweep re-runs this cycle, shaped by the
        sweep's ``n_ranks``/``n_steps`` when given (docs/conformance.md)."""
        flags = {"ranks": n_ranks, "steps": n_steps,
                 "ckpts-per-source": self.k + 1}
        return (f"python -m repro conformance --{tier} --seed {self.seed} "
                f"--apps {self.app} --protocol {self.protocol} "
                + "".join(f"--{f} {v} " for f, v in flags.items()
                          if v is not None)
                + f"--only '{self.pair}'"
                + (" --compact on" if self.compact else ""))


def differential_cycle(app: str, src: ConfigCell, dst: ConfigCell,
                       n_ranks: int = 4, n_steps: int = 4,
                       seed: int = 0, k: int = 0,
                       chain: bool = False,
                       protocol: str = JobOptions.protocol,
                       compact: bool = JobOptions.compact) -> CycleResult:
    """Run one golden/checkpoint/restart/oracle cycle and report it.

    With ``chain=True`` the cycle becomes a two-hop round trip: checkpoint
    on ``src``, restart on ``dst``, cut a *second* fuzzed checkpoint of the
    restarted job, restart that image back on ``src``, and only then apply
    the oracles — the state must survive two migrations and the traffic
    totals of all three segments must still conserve against the golden.

    ``protocol`` and ``compact`` are the cycle's :data:`AXES` values; the
    restarts inherit them from the images, except that ``"alternate"`` cuts
    the source under alg2 and the restarted job under topo, proving each
    protocol's image restores under the other.  The golden runs are
    checkpoint-free and therefore shared.  On top of the state and
    conservation oracles, each image is screened by the replay-consistency
    oracle (would compacted logs deadlock at restart?) and the restarts by
    the replay-accounting and handle-ledger oracles.
    """
    from repro.mana.job import restart

    alternate = protocol == "alternate"
    options = JobOptions("alg2" if alternate else protocol, compact)
    ref = golden_run(app, REF_CELL, n_ranks, n_steps)
    divergences: list[Divergence] = []

    # The uncheckpointed runs themselves must agree across cells — if the
    # app's answer already depends on the implementation or fabric, every
    # restart oracle downstream would be chasing a phantom.
    src_golden = golden_run(app, src, n_ranks, n_steps)
    if src_golden.fingerprint != ref.fingerprint:
        divergences.append(Divergence(
            "golden_equivalence", ref.fingerprint, src_golden.fingerprint,
            f"uncheckpointed runs differ between {REF_CELL.label} "
            f"and {src.label}",
        ))

    ckpt, src_totals, t_ckpt = _source_checkpoint(
        app, src, n_ranks, n_steps, seed, k, options,
    )
    divergences.extend(check_replay_consistency(ckpt))
    n_eff = effective_ranks(app, n_ranks)
    spec, cfg = _app_pieces(app, n_steps)
    job2 = restart(
        ckpt, cluster_for(dst, n_eff), spec.build(cfg),
        mpi=dst.mpi, ranks_per_node=dst.ranks_per_node,
        protocol="topo" if alternate else None,
    )

    mid_totals = None
    ckpt2 = None
    final_job = job2
    if chain:
        # drive past the restart read/replay so the second cut lands on a
        # live application, then fuzz it into the remaining-work band
        while not job2.resumed.done:
            if not job2.engine.step():
                raise RuntimeError("restarted job never went live")
        remaining = max(src_golden.makespan - t_ckpt, 1e-9)
        frac2 = checkpoint_fraction(app, src, seed, k, hop=1)
        t2 = job2.engine.now + frac2 * remaining
        job2.run_until(t2)
        if not job2.finished.done:
            ckpt2, _rep2 = job2.checkpoint()
            divergences.extend(check_replay_consistency(ckpt2))
            mid_totals = conservation_totals(job2.engine.metrics)
            final_job = restart(
                ckpt2, cluster_for(src, n_eff), spec.build(cfg),
                mpi=src.mpi, ranks_per_node=src.ranks_per_node,
            )
        # else: the dst cell outran the fuzzed window — the cycle
        # degenerates to a single hop, which is still a full oracle check

    final_job.run_to_completion()

    final_fp = state_fingerprint(final_job.states)
    state_div = check_golden_state(ref.fingerprint, final_job.states)
    if state_div is not None:
        divergences.append(state_div)
    merged = src_totals + conservation_totals(final_job.engine.metrics)
    if mid_totals is not None:
        merged = merged + mid_totals
    divergences.extend(check_conservation(merged, golden=ref.totals))
    divergences.extend(check_replay_accounting(ckpt, job2.restart_report))
    if ckpt2 is not None:
        divergences.extend(
            check_replay_accounting(ckpt2, final_job.restart_report)
        )
    divergences.extend(check_handle_ledger(final_job))

    return CycleResult(
        app=app, src=src.as_tuple(), dst=dst.as_tuple(),
        seed=seed, k=k, ckpt_time=t_ckpt, divergences=tuple(divergences),
        protocol=protocol, fingerprint=final_fp, compact=compact,
        replayed=job2.restart_report.replayed_entries,
    )


# ------------------------------------------------------------- the sweep

@dataclass
class ConformanceReport:
    """Every cycle of one conformance sweep, plus the verdict."""

    tier: str
    seed: int
    n_ranks: int
    n_steps: int
    apps: tuple
    results: list
    #: "alg2" | "topo" | "both" | "alternate" — the sweep's protocol axis
    protocol: str
    #: "off" | "on" | "both" — the sweep's log-compaction axis
    compact: str

    @property
    def divergent(self) -> list[CycleResult]:
        """The cycles that failed at least one oracle."""
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        """True when the whole sweep had zero divergences."""
        return not self.divergent

    def summary(self) -> str:
        """Human-readable verdict, with a repro recipe per divergence."""
        cells = {r.dst for r in self.results} | {r.src for r in self.results}
        lines = [
            f"conformance[{self.tier}] seed={self.seed} "
            f"protocol={self.protocol} compact={self.compact}: "
            f"{len(self.results)} cycles over {len(cells)} cells "
            f"({len(self.apps)} apps, {self.n_ranks} ranks, "
            f"{self.n_steps} steps) — "
            + ("OK" if self.ok else f"{len(self.divergent)} DIVERGENT")
        ]
        for r in self.divergent:
            lines.append(
                f"DIVERGENT: {r.app} {r.pair} k{r.k} [{r.protocol}"
                f"{'/compact' if r.compact else ''}] "
                f"ckpt@{r.ckpt_time:.4f}s"
            )
            for d in r.divergences:
                lines.append(f"  {d}")
            lines.append("  repro: "
                         + r.repro(self.tier, self.n_ranks, self.n_steps))
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-friendly view (the CI artifact format)."""
        return {
            "tier": self.tier,
            "seed": self.seed,
            "n_ranks": self.n_ranks,
            "n_steps": self.n_steps,
            "apps": list(self.apps),
            "protocol": self.protocol,
            "compact": self.compact,
            "ok": self.ok,
            "cycles": len(self.results),
            "cycle_results": [
                {
                    "app": r.app,
                    "pair": r.pair,
                    "k": r.k,
                    "protocol": r.protocol,
                    "compact": r.compact,
                    "replayed": r.replayed,
                    "ckpt_time": r.ckpt_time,
                    "ok": r.ok,
                    "divergences": [str(d) for d in r.divergences],
                    "repro": None if r.ok else r.repro(
                        self.tier, self.n_ranks, self.n_steps),
                }
                for r in self.results
            ],
        }


#: the CycleResult fields that identify a cycle; two results that agree on
#: all of them but one ran the same cycle along that one axis
_CYCLE_IDENTITY = ("app", "src", "dst", "seed", "k", "protocol", "compact")


def _cross_axis_check(results: list, axis: str, baseline, oracle: str,
                      extra=None) -> list:
    """An axis differential's extra oracle: pair each cycle with its
    ``baseline`` variant along ``axis`` and demand bit-identical restart
    fingerprints.

    Every variant of a cycle cuts at the same fuzzed virtual time (the rng
    stream that draws it depends on neither protocol nor compaction), so
    the restarted states must agree bit for bit — a divergence here catches
    drift that moves both variants away from the golden in the same way,
    which the per-cycle state oracle alone would miss.  The divergence is
    pinned on the non-baseline variant.  ``extra(base, r)`` returns further
    divergences for an axis-specific claim.
    """
    fields = [f for f in _CYCLE_IDENTITY if f != axis]
    base_of = {
        tuple(getattr(r, f) for f in fields): r
        for r in results if getattr(r, axis) == baseline
    }
    out = []
    for r in results:
        base = base_of.get(tuple(getattr(r, f) for f in fields))
        if base is None or base is r:
            out.append(r)
            continue
        found = []
        if (r.fingerprint and base.fingerprint
                and r.fingerprint != base.fingerprint):
            found.append(Divergence(
                oracle=oracle, expected=base.fingerprint,
                actual=r.fingerprint,
                detail=(f"{axis}={getattr(base, axis)} vs "
                        f"{axis}={getattr(r, axis)} restart fingerprints "
                        "differ"),
            ))
        if extra is not None:
            found.extend(extra(base, r))
        out.append(replace(r, divergences=r.divergences + tuple(found)))
    return out


def _compacted_replays_no_more(full: CycleResult,
                               compacted: CycleResult) -> list:
    """The compaction axis' extra claim — O(live) replay: the compacted
    restart replays no more log entries than the full one.  A "compacted"
    image that replays as much as the full log means the pass silently
    kept everything."""
    if full.replayed and compacted.replayed > full.replayed:
        return [Divergence(
            oracle="cross_compact",
            expected=f"<= {full.replayed} replayed entries",
            actual=compacted.replayed,
            detail="compacted restart replayed more than the full log",
        )]
    return []


def _lookup(name: str, table: dict) -> Callable[[object], tuple]:
    """An axis parser: the sweep argument's values, looked up in ``table``."""

    def parse(value) -> tuple:
        if value not in table:
            raise ValueError(f"unknown {name} axis {value!r}: expected one "
                             f"of {[k for k in table if isinstance(k, str)]}")
        return table[value]

    return parse


@dataclass(frozen=True)
class Axis:
    """One sweep axis: ``parse`` maps its argument to values, baseline
    first; with several values, :func:`_cross_axis_check` pairs each
    variant with the baseline under ``oracle`` plus the ``extra`` claim."""

    name: str
    parse: Callable[[object], tuple]
    oracle: str
    extra: Optional[Callable] = None


#: the sweep's axes, in :func:`differential_cycle` parameter order;
#: ``"both"`` is each axis' differential (docs/protocols.md,
#: docs/record_replay.md)
AXES = (
    Axis("protocol",
         _lookup("protocol", {"both": PROTOCOLS, **{
             p: (p,) for p in PROTOCOLS + ("alternate",)}}),
         oracle="cross_protocol"),
    Axis("compact",
         _lookup("compact", {"off": (False,), False: (False,),
                             "on": (True,), True: (True,),
                             "both": (False, True)}),
         oracle="cross_compact", extra=_compacted_replays_no_more),
)


def run_conformance(
    tier: str = "quick",
    seed: int = 0,
    apps: Optional[Sequence[str]] = None,
    n_ranks: int = 4,
    n_steps: int = 4,
    n_sources: int = 2,
    ckpts_per_source: int = 1,
    jobs: Optional[int] = 1,
    only: Optional[str] = None,
    protocol: str = JobOptions.protocol,
    compact="off",
) -> ConformanceReport:
    """Sweep the tier's matrix: every app × source cell × *other* cell ×
    checkpoint index × combination of :data:`AXES` values.  Cycles beyond
    the first per source (``k > 0``) run as two-hop chains.

    ``only`` restricts the sweep to cycles whose ``src-label->dst-label``
    pair matches (the syntax :meth:`CycleResult.repro` emits), so a
    divergence found in CI can be replayed locally; its source may be any
    matrix cell, whatever ``n_sources`` picks.

    ``protocol`` and ``compact`` are the sweep's axis arguments
    (:data:`AXES`).  An axis with several values runs every cycle once per
    value from the same fuzzed cut time and cross-checks the restart
    fingerprints between them.
    """
    variants = [axis.parse(arg) for axis, arg in zip(AXES, (protocol, compact))]
    apps = tuple(apps or DEFAULT_APPS)
    dsts = matrix_for(tier)
    srcs = dsts if only is not None else source_cells(dsts, n_sources)
    cells = [
        SweepCell(
            differential_cycle,
            (app, s, d, n_ranks, n_steps, seed, k, k > 0, *variant),
            label=(f"conf:{app}:{s.label}->{d.label}/k{k}/"
                   + "/".join(map(str, variant))),
        )
        for app, s, d, k, variant in product(
            apps, srcs, dsts, range(ckpts_per_source), product(*variants))
        if d != s and (only is None or f"{s.label}->{d.label}" == only)
    ]
    if not cells:
        raise ValueError(
            f"conformance sweep selected no cycles (tier={tier!r}, "
            f"only={only!r})"
        )
    results = list(run_cells(cells, jobs=jobs))
    for axis, values in zip(AXES, variants):
        if len(values) > 1:
            results = _cross_axis_check(results, axis.name, values[0],
                                        oracle=axis.oracle, extra=axis.extra)
    return ConformanceReport(
        tier=tier, seed=seed, n_ranks=n_ranks, n_steps=n_steps,
        apps=apps, results=results, protocol=protocol,
        compact=str(compact),
    )
