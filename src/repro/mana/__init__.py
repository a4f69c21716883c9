"""MANA: MPI-Agnostic Network-Agnostic transparent checkpointing.

This package is the paper's contribution, implemented in full against the
simulated substrate:

* :mod:`split_process` — the split-process runtime: one address space, a
  discardable lower half (MPI library + network driver) and a checkpointable
  upper half (application), with FS-register switch accounting and the
  ``sbrk`` interposition of §2.1;
* :mod:`virtualize` — virtual MPI handles, stable across restarts (§2.2);
* :mod:`record_replay` — the log of persistent MPI calls (communicator /
  group / topology / datatype creation) replayed into a fresh MPI library at
  restart (§2.2);
* :mod:`wrappers` — the interposed MPI API, including the two-phase
  collective wrapper (Algorithm 1) and p2p send/recv metadata recording;
* :mod:`protocol` — the rank-side state machine of Algorithm 2
  (``ready`` / ``in-phase-1`` / ``exit-phase-2``), and :class:`JobOptions`,
  the options a job's checkpoints carry and its restarts inherit;
* :mod:`coordinator` — the DMTCP-style checkpoint coordinator running
  Algorithm 2's coordinator side plus drain and write phases;
* :mod:`checkpoint_image` — upper-half-only checkpoint images;
* :mod:`job` — launching applications under MANA and restarting them on a
  different MPI implementation / interconnect / cluster / rank layout.

Public entry points: :func:`repro.mana.job.launch_mana` and
:func:`repro.mana.job.restart`.
"""

from repro.mana.checkpoint_image import CheckpointError, CheckpointImage, CheckpointSet
from repro.mana.coordinator import CheckpointReport, Coordinator
from repro.mana.job import ManaJob, launch_mana, restart
from repro.mana.protocol import CkptMsg, JobOptions, RankCkptState, WrapperPhase
from repro.mana.split_process import SplitProcess
from repro.mana.autockpt import young_daly_interval
from repro.mana.storage import describe_checkpoint, load_checkpoint, save_checkpoint
from repro.mana.virtualize import HandleKind, VirtualHandleTable, VirtualizationError
from repro.mana.wrappers import ManaApi

__all__ = [
    "CheckpointError",
    "CheckpointImage",
    "CheckpointReport",
    "CheckpointSet",
    "CkptMsg",
    "Coordinator",
    "HandleKind",
    "JobOptions",
    "ManaApi",
    "ManaJob",
    "RankCkptState",
    "SplitProcess",
    "VirtualHandleTable",
    "VirtualizationError",
    "WrapperPhase",
    "describe_checkpoint",
    "launch_mana",
    "load_checkpoint",
    "restart",
    "save_checkpoint",
    "young_daly_interval",
]
