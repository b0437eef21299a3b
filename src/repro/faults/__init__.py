"""``repro.faults`` — deterministic fault injection and resilience.

A chaos layer for the storage and link stack (ROADMAP: "as many
scenarios as you can imagine"), built on three rules:

* every fault schedule is a pure function of a seed (no wall clock, no
  hidden state) — see :mod:`~repro.faults.plan`;
* fault wrappers (:class:`FaultyDisk`, :class:`FaultyLink`,
  :class:`FaultyAsyncLink`) preserve the exact interfaces of the
  components they wrap, so the whole stack runs over them unchanged —
  every link fault, frame or socket, is one :class:`FaultPlan` draw;
* resilience policies (:class:`ResilientDisk`, the Executor protocol's
  sequence envelopes) consume the faults and are tested by exhaustive
  sweeps — :mod:`~repro.faults.soak`, the ``crash`` kind of
  :mod:`repro.sweep`, crashes a workload at *every* write index and
  proves recovery each time.
"""

from .disk import FaultyDisk
from .link import FaultyAsyncLink, FaultyLink, make_faulty_link
from .plan import FaultClock, FaultEvent, FaultPlan, FaultSpec
from .resilience import ResilientDisk
from .soak import CrashSweep, build_workload

__all__ = [
    "CrashSweep",
    "FaultClock",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultyAsyncLink",
    "FaultyDisk",
    "FaultyLink",
    "ResilientDisk",
    "build_workload",
    "make_faulty_link",
]
