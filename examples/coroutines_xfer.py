"""General control transfer with XFER: a coroutine on the COM.

Section 5: "The contexts in COM support a general control transfer
similar to Lampson's XFER instruction.  This control transfer supports
block contexts in Smalltalk, process switch, and interrupts."

The program below builds a suspended computation: ``park`` publishes a
pointer to its own context (making it non-LIFO -- the context cache and
recycler must keep it alive), yields back to its caller with ``xfer``,
and is later resumed by a second ``xfer``, finally returning a value
through the ordinary result-pointer path.

Run:  python examples/coroutines_xfer.py
"""

from repro import COMMachine, load_program

PROGRAM = """
method Object >> park args=1
    ; c1 = a one-slot mailbox object.
    c3 = & c3            ; a capability for this very context
    c1 [ 0 ] = c3        ; publish it (this captures the context)
    c4 = c3 [ -5 ]       ; read our own RCP (word 0 of the context)
    xfer c4              ; yield to the caller
    ; ---- resumed here by a later xfer ----
    c0 = 42              ; deliver the answer through the result pointer
    ret 42

main
    c2 = #Array new: 1   ; the mailbox
    c3 = c2 park c2      ; call park; it yields before producing c3
    c4 = c2 [ 0 ]        ; fetch the parked context's capability
    xfer c4              ; resume it; its ret brings us back here
    c0 = c3
    halt
"""


def main() -> None:
    machine = COMMachine()
    entry = load_program(machine, PROGRAM)
    result = machine.run_program(entry)
    print(f"value delivered by the resumed coroutine: {result.value}")

    stats = machine.recycler.stats
    print("\n-- storage management consequences (section 2.3) --")
    print(f"contexts allocated:      {stats.allocated}")
    print(f"freed on the LIFO path:  {stats.freed_lifo}")
    print(f"non-LIFO (left for GC):  {stats.returned_non_lifo}")
    print("\nThe captured context could not be recycled on return; the")
    print("context cache kept it resident under its absolute address")
    print("(no invalidation needed -- the directory associates on")
    print("absolute addresses, section 2.3's advantage #2).")


if __name__ == "__main__":
    main()
