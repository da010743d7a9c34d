"""tiersim: trace-driven simulator for a hardware-managed hybrid
fast/slow (DRAM + NVM) flat memory space."""

from .config import ConfigError, Policy, SimConfig, parse_size
from .core import MemoryRequest, ServiceOutcome, SimulationError, Simulator, run_trace
from .metering import MetadataCostReport, metadata_cost
from .oracle import oracle_run
from .trace import (Trace, TraceError, TraceRecord, WorkloadSpec, generate,
                    load_trace, parse_trace, write_trace)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "Policy", "SimConfig", "parse_size",
    "MemoryRequest", "ServiceOutcome", "SimulationError", "Simulator",
    "run_trace", "MetadataCostReport", "metadata_cost", "oracle_run",
    "Trace", "TraceError", "TraceRecord", "WorkloadSpec", "generate", "load_trace",
    "parse_trace", "write_trace",
]
