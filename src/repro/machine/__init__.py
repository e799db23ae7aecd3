"""Cray X-MP machine model (the paper's measurement platform).

``instructions``
    Strip-mined vector loads/stores and port kinds.
``cpu``
    Per-CPU issue logic, chaining, background streams.
``scheduler``
    Machine loop coupling CPUs to the counted memory kernel.
``workloads``
    The Section IV triad and the unit-stride competitor program.
``xmp``
    The assembled 2-CPU, 16-bank, ``n_c = 4`` machine and the
    Fig. 10 experiment drivers.
"""

from .builder import VP200_SPEC, XMP_SPEC, MachineSpec, build_machine, run_on
from .cpu import CpuModel, CpuPort
from .experiments import DuelResult, contention_matrix, dueling_triads
from .instructions import VECTOR_LENGTH, PortKind, VectorInstruction
from .scheduler import MachineRunResult, MachineSimulation
from .timeline import port_utilisation, render_timeline
from .workloads import (
    TRIAD_IDIM,
    TRIAD_N,
    strided_background,
    triad_program,
    unit_stride_background,
)
from .loopgen import compile_loop, word_stride
from .kernels import (
    copy_program,
    daxpy_program,
    matrix_sweep_program,
    scale_program,
    sum_program,
)
from .xmp import (
    XMP_CONFIG,
    TriadResult,
    build_xmp,
    run_program,
    run_triad,
    triad_sweep,
)

__all__ = [
    "CpuModel",
    "MachineSpec",
    "DuelResult",
    "CpuPort",
    "MachineRunResult",
    "MachineSimulation",
    "PortKind",
    "TRIAD_IDIM",
    "TRIAD_N",
    "TriadResult",
    "VECTOR_LENGTH",
    "VP200_SPEC",
    "XMP_SPEC",
    "VectorInstruction",
    "XMP_CONFIG",
    "build_machine",
    "compile_loop",
    "build_xmp",
    "contention_matrix",
    "dueling_triads",
    "copy_program",
    "daxpy_program",
    "matrix_sweep_program",
    "port_utilisation",
    "run_on",
    "render_timeline",
    "run_program",
    "run_triad",
    "scale_program",
    "sum_program",
    "strided_background",
    "triad_program",
    "triad_sweep",
    "unit_stride_background",
    "word_stride",
]
