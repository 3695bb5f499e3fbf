"""A Smalltalk application on the COM: polymorphic shapes.

This is the workload class the paper's introduction motivates: late
binding everywhere (the same ``area`` selector dispatched across a
class hierarchy), with the ITLB keeping method lookup off the critical
path.  The script runs the program, then shows what the hardware did.

Run:  python examples/smalltalk_shapes.py
"""

from repro import COMMachine
from repro.smalltalk import compile_program

PROGRAM = """
class Shape extends Object
class Circle extends Shape fields: radius
class Square extends Shape fields: side
class Ring extends Circle fields: hole

Circle >> setRadius: r
    radius := r. ^self
Circle >> area
    ^radius * radius * 3

Square >> setSide: s
    side := s. ^self
Square >> area
    ^side * side

Ring >> setRadius: r hole: h
    radius := r. hole := h. ^self
Ring >> area
    "Inherited radius field; overridden area."
    ^(radius * radius * 3) - (hole * hole * 3)

main | shapes total i |
    shapes := Array new: 9.
    i := 0.
    [i < 9] whileTrue: [
        (i \\\\ 3) = 0 ifTrue: [
            shapes at: i put: (Circle new setRadius: i + 1)].
        (i \\\\ 3) = 1 ifTrue: [
            shapes at: i put: (Square new setSide: i + 1)].
        (i \\\\ 3) = 2 ifTrue: [
            shapes at: i put: (Ring new setRadius: i + 2 hole: 1)].
        i := i + 1
    ].
    total := 0.
    0 to: 8 do: [:k | total := total + (shapes at: k) area].
    ^total
"""


def main() -> None:
    machine = COMMachine()
    entry = compile_program(machine, PROGRAM)
    result = machine.run_program(entry)
    print(f"total area of 9 polymorphic shapes: {result.value}")

    print("\n-- abstract-instruction dispatch --")
    print(f"ITLB: {machine.itlb.stats}")
    print(f"full method lookups taken (ITLB misses): "
          f"{machine.registry.full_lookups}")
    selector_area = machine.opcodes.number_of("area")
    itlb_area_keys = [key for key, _ in machine.itlb._cache.items()
                      if key[0] == selector_area]
    print(f"distinct (area, receiver-class) ITLB entries: "
          f"{len(itlb_area_keys)}")
    for key in sorted(itlb_area_keys):
        cls = machine.registry.by_tag(key[1][0])
        print(f"  area x {cls.name}")

    print("\n-- the context machinery (section 2.3) --")
    print(f"activations: {machine.activation_count}, "
          f"LIFO fraction: {machine.recycler.stats.lifo_fraction:.0%}")
    print(f"context references: "
          f"{machine.profile.context_fraction:.1%} of data references")
    print(f"cycles/instruction: "
          f"{machine.cycles.cycles_per_instruction:.2f}")


if __name__ == "__main__":
    main()
