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

__version__ = "1.2.0"

#: Each public name and the module that defines it.  ``import repro``
#: imports none of them: a ``repro`` command loads only the layers it
#: runs, and the first access to a name here imports its module.
_EXPORTS = {
    "Assembler": "repro.core.assembler",
    "AddressFormat": "repro.memory.fpa",
    "COMMachine": "repro.core.machine",
    "CompiledMethod": "repro.core.machine",
    "CycleParams": "repro.core.pipeline",
    "FPAddress": "repro.memory.fpa",
    "Instruction": "repro.core.encoding",
    "MMU": "repro.memory.mmu",
    "Op": "repro.core.isa",
    "OpcodeTable": "repro.core.isa",
    "Operand": "repro.core.operands",
    "Tag": "repro.memory.tags",
    "Trace": "repro.trace.columnar",
    "TraceBuilder": "repro.trace.columnar",
    "Word": "repro.memory.tags",
    "address_format": "repro.memory.fpa",
    "load_program": "repro.core.assembler",
    "pipeline_diagram": "repro.core.pipeline",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    """Import a public name's module on first access (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
