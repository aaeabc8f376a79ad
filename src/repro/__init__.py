"""repro -- reproduction of "Compositional memory systems for multimedia
communicating tasks" (Molnos et al., DATE 2005).

The package provides:

- a discrete-event simulation kernel (:mod:`repro.sim`),
- a memory-system substrate with the paper's set-index-translation
  cache partitioning (:mod:`repro.mem`),
- the CAKE multiprocessor tile model (:mod:`repro.cake`),
- an RTOS model with cache-allocation syscalls (:mod:`repro.rtos`),
- a YAPI-like Kahn-process-network runtime (:mod:`repro.kpn`),
- the two paper workloads (:mod:`repro.apps`),
- the paper's contribution -- miss-curve profiling, the MCKP/MILP
  partitioning optimizers, throughput/power models and the end-to-end
  compositional method (:mod:`repro.core`),
- declarative experiments -- scenario grids, the parallel sweep runner
  and the JSONL result store (:mod:`repro.exp`), and
- reporting helpers (:mod:`repro.analysis`).

Quickstart::

    from repro.cake import CakeConfig
    from repro.core import CompositionalMethod
    from repro.apps import two_jpeg_canny_workload

    method = CompositionalMethod(two_jpeg_canny_workload, CakeConfig())
    report = method.run()
    print(report.summary())
"""

import logging

__version__ = "1.0.0"

# Library logging stays silent until the application configures it.
logging.getLogger(__name__).addHandler(logging.NullHandler())

from repro.errors import (
    AddressError,
    ConfigurationError,
    MemoryModelError,
    NetworkError,
    OptimizationError,
    PartitionError,
    ReproError,
    SchedulingError,
    SimulationError,
)

__all__ = [
    "AddressError",
    "ConfigurationError",
    "MemoryModelError",
    "NetworkError",
    "OptimizationError",
    "PartitionError",
    "ReproError",
    "SchedulingError",
    "SimulationError",
    "__version__",
]
