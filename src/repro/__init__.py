"""repro: a reproduction of Dally & Kajiya, "An Object Oriented
Architecture" (ISCA 1985) -- the Caltech Object Machine (COM).

The package implements the paper's four mechanisms and the full machine
around them:

* abstract instructions resolved through an instruction translation
  lookaside buffer (:mod:`repro.caches.itlb`);
* floating point virtual addresses (:mod:`repro.memory.fpa`);
* hardware-style context allocation and the context cache
  (:mod:`repro.core.context_cache`);
* three-level addressing (:mod:`repro.memory.mmu`);

plus the COM functional simulator (:mod:`repro.core.machine`), a
Smalltalk-subset compiler (:mod:`repro.smalltalk`), the Fith language
used for the paper's section-5 experiments (:mod:`repro.fith`) and the
experiment harness regenerating every figure and quantitative claim
(:mod:`repro.experiments`).

Quickstart::

    from repro import COMMachine, load_program
    machine = COMMachine()
    main = load_program(machine, '''
    main
        c2 = 6
        c3 = 7
        c4 = c2 * c3
        c0 = c4
        halt
    ''')
    machine.start(main)
    machine.run()
    print(machine.result())          # <small_integer 42>
    print(machine.cycles.snapshot())
"""

from repro.config import DEFAULT_CONFIG, SimConfig, make_com, make_fith
from repro.core.assembler import Assembler, load_program
from repro.core.encoding import Instruction
from repro.core.isa import Op, OpcodeTable
from repro.core.machine import COMMachine, CompiledMethod
from repro.core.operands import Operand
from repro.core.pipeline import CycleParams, pipeline_diagram
from repro.trace.columnar import Trace, TraceBuilder
from repro.memory.fpa import AddressFormat, FPAddress, address_format
from repro.memory.mmu import MMU
from repro.memory.tags import Tag, Word

__version__ = "1.2.0"

__all__ = [
    "Assembler",
    "AddressFormat",
    "COMMachine",
    "CompiledMethod",
    "CycleParams",
    "DEFAULT_CONFIG",
    "FPAddress",
    "Instruction",
    "MMU",
    "Op",
    "OpcodeTable",
    "Operand",
    "SimConfig",
    "Tag",
    "Trace",
    "TraceBuilder",
    "Word",
    "address_format",
    "load_program",
    "make_com",
    "make_fith",
    "pipeline_diagram",
    "__version__",
]
