"""The benchmark's three workloads, one closed-loop pass each.

Every workload runs its jobs one after another in a single process on the
sequential engine.  Inside a job every simulated rank issues its next MPI
call only after the previous one completed (the programs are blocking MPI
codes), so load is closed-loop: a slower simulator gets through less of it
per host second, never a longer queue.

* ``pingpong`` — OSU-latency ping-pong, 2 ranks on one Aries node, 1 KiB
  messages: a long MANA run with no checkpoint (the per-call interposition
  hot path), a short native run of the same program (overhead baseline and
  golden answer), and a short checkpoint/restart probe of that program.
* ``halo_ckpt`` — HPCG on 32 ranks over 4 Cori nodes: native, MANA, MANA
  with 3 checkpoints that keeps running, then a restart of the last image
  onto 2 InfiniBand/Open MPI nodes at 16 ranks per node.
* ``churn_restart`` — ``commchurn`` on 8 ranks over 2 Aries nodes: native,
  MANA (the golden answer), then a checkpoint at ~90% of the makespan and
  a restart onto InfiniBand/Open MPI, once with the full record log and
  once with the compacted one.

The seed only picks the checkpoint cut fractions (:func:`make_inputs`);
the programs receive those fractions and nothing else.
"""

from __future__ import annotations

import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import adapter

WORKLOADS = ("pingpong", "halo_ckpt", "churn_restart")

#: per workload, one (low, high) window per checkpoint cut, as fractions of
#: the uncheckpointed MANA makespan
CUT_WINDOWS = {
    "pingpong": ((0.3, 0.7),),
    "halo_ckpt": ((0.15, 0.25), (0.40, 0.50), (0.65, 0.75)),
    "churn_restart": ((0.88, 0.92),),
}

PINGPONG_BYTES = 1 << 10
PINGPONG_ITERS = 4000
#: iterations of the native baseline and of the checkpoint/restart probe
PINGPONG_SHORT = 500

HALO_STEPS, HALO_RANKS = 12, 32
CHURN_STEPS, CHURN_RANKS = 400, 8

@dataclass(frozen=True)
class Inputs:
    """Everything a workload pass receives: its checkpoint cut fractions."""

    workload: str
    cuts: tuple[float, ...]


def make_inputs(workload: str, seed: int) -> Inputs:
    """The same ``(workload, seed)`` always gives the same cut fractions."""
    rng = random.Random(f"{workload}:{seed}")
    return Inputs(workload, tuple(rng.uniform(lo, hi)
                                  for lo, hi in CUT_WINDOWS[workload]))


class Aborted(Exception):
    """An operation failed; the rest of the pass depends on it."""


@dataclass
class Pass:
    """Outcome of one workload pass: operations, simulated results, counts.

    Operations are runs, checkpoints, restarts and correctness checks.  A
    failed run, checkpoint or restart aborts the pass; a failed check is
    counted and the pass goes on.
    """

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: simulated-clock results (deterministic for given inputs)
    sim: dict = field(default_factory=dict)
    #: layer counters summed over every job of the pass
    counts: Counter = field(default_factory=Counter)
    ckpt_times: list = field(default_factory=list)
    restart_times: list = field(default_factory=list)
    #: log entries each restart replayed, in restart order
    replays: list = field(default_factory=list)

    def run(self, name: str, fn, *args):
        """One run/checkpoint/restart operation; failure aborts the pass."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            self._fail(name, exc)
            raise Aborted(name) from exc

    def check(self, name: str, problems: list) -> None:
        """One correctness check; ``problems`` empty means it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{name}: {'; '.join(map(str, problems))}")

    def _fail(self, name: str, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(
            f"{name}: {''.join(traceback.format_exception_only(exc)).strip()}")

    # ------------------------------------------------------------ counters

    def observe(self, job) -> None:
        """Add one job's always-on counters to the pass."""
        for key, value in adapter.job_counters(job).items():
            self.counts[key] += value

    def checkpointed(self, job, when: float):
        """Checkpoint ``job`` at virtual time ``when``; record the report."""
        ckpt, report = self.run("checkpoint", adapter.checkpoint_at, job, when)
        self.ckpt_times.append(report.total_time)
        c = self.counts
        c["checkpoints"] += 1
        c["rounds"] += report.rounds
        c["sim_quiesce_s"] += report.quiesce_wait
        c["sim_drain_s"] += report.drain_time
        c["sim_write_s"] += report.write_time
        c["image_bytes"] += adapter.image_bytes(ckpt)
        stats = adapter.compaction_stats(ckpt)
        if stats is not None:
            c["compact_examined"] += stats["examined"]
            c["compact_kept"] += stats["kept"]
        return ckpt

    def restarted(self, ckpt, cluster, app, ranks_per_node: int):
        """Restart ``ckpt`` and run it to completion; record the report."""
        job = self.run("restart", adapter.restart, ckpt, cluster, app,
                       ranks_per_node)
        self.run("restarted run", adapter.run_to_completion, job)
        report = adapter.restart_report(job)
        self.restart_times.append(report.total_time)
        self.replays.append(report.replayed_entries)
        self.counts["restarts"] += 1
        self.counts["replayed"] += report.replayed_entries
        self.counts["sim_replay_s"] += report.replay_time
        self.observe(job)
        return job

    def verify(self, name: str, fp: str, golden_fp: str, merged,
               golden_traffic):
        """Golden-state check of a finished job's fingerprint ``fp`` and
        message-conservation check of its traffic ``merged``."""
        self.check(f"{name} state", [] if fp == golden_fp
                   else [f"fingerprint {fp[:12]} != golden {golden_fp[:12]}"])
        self.check(f"{name} conservation",
                   adapter.conservation_errors(merged, golden_traffic))

    def finish(self, makespan: float, native_ratio: float) -> None:
        """Fill the simulated end-to-end results of the pass."""
        self.sim = {
            "sim_makespan_s": makespan,
            "sim_overhead_pct": 100.0 * (native_ratio - 1.0),
            "sim_ckpt_s": sum(self.ckpt_times) / len(self.ckpt_times),
            "sim_restart_s": sum(self.restart_times) / len(self.restart_times),
        }

    @property
    def messages(self) -> float:
        """Simulated MPI messages delivered: p2p receives plus collectives."""
        return self.counts["p2p_msgs"] + self.counts["collectives"]


# ------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Shape:
    """Where a workload's source jobs run: cluster, program and layout."""

    cluster: Callable[[], object]
    app: adapter.App
    ranks: int
    per_node: int

    def native(self):
        """A native job of the program, started (set-up stops here)."""
        return adapter.native_job(self.cluster(), self.app, self.ranks,
                                  self.per_node)

    def run_native(self):
        """Run the program natively; (job, simulated makespan)."""
        return adapter.run_native(self.cluster(), self.app, self.ranks,
                                  self.per_node)

    def launch(self, app=None, compact: bool = False):
        """Launch ``app`` (default: the program) under MANA, started."""
        return adapter.launch(self.cluster(), app or self.app, self.ranks,
                              self.per_node, compact)


def source_shape(workload: str) -> Shape:
    """The source jobs of ``workload``; its restarts run elsewhere."""
    if workload == "pingpong":
        return Shape(adapter.aries_node,
                     adapter.pingpong_app(PINGPONG_BYTES, PINGPONG_SHORT), 2, 2)
    if workload == "halo_ckpt":
        return Shape(lambda: adapter.cori_nodes(4),
                     adapter.mini_app("hpcg", HALO_STEPS, HALO_RANKS),
                     HALO_RANKS, 8)
    return Shape(lambda: adapter.aries_nodes(2),
                 adapter.mini_app("commchurn", CHURN_STEPS, CHURN_RANKS),
                 CHURN_RANKS, 4)


def pingpong(inputs: Inputs, p: Pass) -> None:
    """2-rank ping-pong: hot MANA loop, native baseline, C/R probe."""
    src = source_shape("pingpong")
    native, native_s = p.run("native run", src.run_native)
    p.observe(native)
    # the last payloads received are hashed too, so a restart that delivers
    # wrong data fails the state check, not only the message counts
    golden_fp, golden_traffic = (adapter.received_fingerprint(native),
                                 adapter.traffic(native))

    hot = adapter.pingpong_app(PINGPONG_BYTES, PINGPONG_ITERS)
    job = p.run("mana launch", src.launch, hot)
    makespan = p.run("mana run", adapter.run_to_completion, job)
    p.observe(job)
    sent = adapter.traffic(job)
    p.check("mana run messages",
            [] if sent.recv_messages == 2 * PINGPONG_ITERS
            else [f"{sent.recv_messages} received, expected {2 * PINGPONG_ITERS}"])
    p.verify("mana run", adapter.received_fingerprint(job), golden_fp, sent,
             None)

    probe = p.run("probe launch", src.launch)
    short_makespan = makespan * PINGPONG_SHORT / PINGPONG_ITERS
    ckpt = p.checkpointed(probe, inputs.cuts[0] * short_makespan)
    src_traffic = adapter.traffic(probe)
    p.observe(probe)
    job = p.restarted(ckpt, adapter.infiniband_nodes(1), src.app, 2)
    p.verify("probe restart", adapter.received_fingerprint(job), golden_fp,
             src_traffic + adapter.traffic(job), golden_traffic)

    per_call = (makespan / PINGPONG_ITERS) / (native_s / PINGPONG_SHORT)
    p.finish(makespan, per_call)


def halo_ckpt(inputs: Inputs, p: Pass) -> None:
    """HPCG 32 ranks: native, MANA, 3 checkpoints, cross-fabric restart."""
    src = source_shape("halo_ckpt")
    native, native_s = p.run("native run", src.run_native)
    p.observe(native)
    golden_fp, golden_traffic = (adapter.fingerprint(native),
                                 adapter.traffic(native))

    job = p.run("mana launch", src.launch)
    makespan = p.run("mana run", adapter.run_to_completion, job)
    p.observe(job)
    p.verify("mana run", adapter.fingerprint(job), golden_fp,
             adapter.traffic(job), golden_traffic)

    job = p.run("ckpt launch", src.launch)
    done = 0.0
    for cut in inputs.cuts:
        # the application is frozen while a checkpoint is written, so each
        # cut lands (cut - previous cut) of the makespan after the last one
        ckpt = p.checkpointed(job, adapter.now(job) + (cut - done) * makespan)
        done = cut
    src_traffic = adapter.traffic(job)
    p.run("checkpointed run", adapter.run_to_completion, job)
    p.observe(job)
    p.verify("checkpointed run", adapter.fingerprint(job), golden_fp,
             adapter.traffic(job), golden_traffic)

    job = p.restarted(ckpt, adapter.infiniband_nodes(2), src.app, 16)
    p.verify("restart", adapter.fingerprint(job), golden_fp,
             src_traffic + adapter.traffic(job), golden_traffic)
    p.finish(makespan, makespan / native_s)


def churn_restart(inputs: Inputs, p: Pass) -> None:
    """commchurn 8 ranks: restart from the full and the compacted log."""
    src = source_shape("churn_restart")
    native, native_s = p.run("native run", src.run_native)
    p.observe(native)

    # native handles differ from MANA's virtual ones, so the uncheckpointed
    # MANA run is the golden answer here
    job = p.run("mana launch", src.launch)
    makespan = p.run("mana run", adapter.run_to_completion, job)
    p.observe(job)
    golden_fp, golden_traffic = adapter.fingerprint(job), adapter.traffic(job)
    p.check("mana run conservation",
            adapter.conservation_errors(golden_traffic, None))

    for compact in (False, True):
        name = "compacted" if compact else "full"
        job = p.run(f"{name} launch", src.launch, None, compact)
        ckpt = p.checkpointed(job, inputs.cuts[0] * makespan)
        src_traffic = adapter.traffic(job)
        p.observe(job)
        job = p.restarted(ckpt, adapter.infiniband_nodes(2), src.app, 4)
        p.verify(f"{name} restart", adapter.fingerprint(job), golden_fp,
                 src_traffic + adapter.traffic(job), golden_traffic)
    p.finish(makespan, makespan / native_s)


RUNNERS = {"pingpong": pingpong, "halo_ckpt": halo_ckpt,
           "churn_restart": churn_restart}


def run_pass(inputs: Inputs) -> Pass:
    """One closed-loop pass of ``inputs.workload``; never raises."""
    p = Pass()
    try:
        RUNNERS[inputs.workload](inputs, p)
    except Aborted:
        pass
    except Exception as exc:  # noqa: BLE001 - a check itself broke
        p.attempted += 1
        p._fail("pass", exc)
    return p
