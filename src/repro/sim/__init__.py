"""SESC-like cycle-level machine substrate for EMPROF validation.

Public surface:

* configs: :class:`MachineConfig`, :class:`CoreConfig`,
  :class:`CacheConfig`, :class:`MemoryConfig`, :class:`PowerConfig`
* the machine: :class:`Machine`, :func:`simulate`,
  :class:`SimulationResult`
* ground truth: :class:`GroundTruth`, :class:`MissRecord`,
  :class:`StallRecord`
* instruction builders live in :mod:`repro.sim.isa`
"""

from .._lazy import lazy_surface

# Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "Cache": "cache",
    "CacheHierarchy": "cache",
    "CacheConfig": "config",
    "CoreConfig": "config",
    "MachineConfig": "config",
    "MemoryConfig": "config",
    "PowerConfig": "config",
    "MainMemory": "dram",
    "MemoryResponse": "dram",
    "Machine": "machine",
    "SimulationResult": "machine",
    "simulate": "machine",
    "Pipeline": "pipeline",
    "PowerAccumulator": "power",
    "StridePrefetcher": "prefetcher",
    "Tlb": "tlb",
    "TraceWorkload": "tracefile",
    "record_workload": "tracefile",
    "save_trace": "tracefile",
    "GroundTruth": "trace",
    "MissRecord": "trace",
    "StallRecord": "trace",
    "MEMORY_CAUSES": "trace",
    "CAUSE_DATA_MEM": "trace",
    "CAUSE_IFETCH_MEM": "trace",
    "CAUSE_LLC_HIT": "trace",
    "CAUSE_MSHR_FULL": "trace",
    "CAUSE_RUNAHEAD": "trace",
    "CAUSE_STOREBUF": "trace",
    "L1": "cache",
    "LLC": "cache",
    "MEM": "cache",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_surface(__name__, _EXPORTS)
