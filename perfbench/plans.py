"""The benchmark's fixed inputs and its output checks.

Everything the program is asked to do lives here: the sweep query set,
the scenario list, the experiment ids, and how the workload seed orders
them.  The seed permutes only the *order* in which sweep queries and
trace-build scenarios are issued; every generator and every claim is
deterministic, so the inputs themselves never change and the checks
against ``reference.json`` do not depend on order.  ``reproduce`` runs
the whole claim suite in its registry order and ignores the seed.
"""

import hashlib
import random
import re

#: The registered experiments, in suite order.
EXPERIMENTS = ("FIG-10", "FIG-11", "TAB-CALL", "TAB-CTX", "TAB-CCACHE",
               "TAB-ADDR", "TAB-3ADDR")

#: The registered trace scenarios, at their default parameters.
SCENARIOS = ("paper", "interleaved", "monomorphic", "gc-churn",
             "megamorphic", "deep-calls", "redefine-churn")

#: Traces whose icache query also asks for the fully-associative
#: column.  ``paper`` and ``interleaved`` are left out: on them the
#: column's sequential replay costs more than every other layer of the
#: sweep together.
_ICACHE_FULL = ("monomorphic", "gc-churn", "megamorphic", "deep-calls",
                "redefine-churn")


def sweep_queries():
    """``{trace: [(query id, SweepSpec fields)]}`` in canonical order.

    Paper grid, double-pass warm-up, paper semantics and the auto
    engine, as ``repro sweep`` runs by default; plus the paper ITLB at
    warm-up fraction 0.25 under both semantics versions.  OPT is left
    out: it costs seconds per paper sweep.
    """
    plan = {}
    for trace in SCENARIOS:
        plan[trace] = [
            (f"{trace}/itlb", {"cache": "itlb", "double_pass": True,
                               "include_full": True}),
            (f"{trace}/icache", {"cache": "icache", "double_pass": True,
                                 "include_full": trace in _ICACHE_FULL}),
        ]
    for semantics in ("paper", "v2"):
        plan["paper"].append(
            (f"paper/itlb-warmup-{semantics}",
             {"cache": "itlb", "double_pass": False,
              "warmup_fraction": 0.25, "semantics": semantics}))
    return plan


def sweep_order(seed):
    """The query plan with traces, and queries within each trace, in
    the order *seed* picks."""
    rng = random.Random(seed)
    plan = list(sweep_queries().items())
    rng.shuffle(plan)
    for _, queries in plan:
        rng.shuffle(queries)
    return plan


def scenario_order(seed):
    order = list(SCENARIOS)
    random.Random(seed).shuffle(order)
    return order


# -- what an iteration reports --------------------------------------------

def surface_ratios(surface):
    """Every cell of a surface as ``[assoc, size, hit ratio]``."""
    return [[str(assoc), size, surface.ratio(assoc, size)]
            for assoc in surface.counts
            for size in surface.counts[assoc]]


def trace_digest(trace):
    """Event counts and per-column SHA-256 digests of one trace."""
    def digest(column):
        return hashlib.sha256(column).hexdigest()[:24]
    return {
        "events": len(trace),
        "dispatched": trace.dispatched_count(),
        "addresses": digest(trace.addresses()),
        "opcodes": digest(trace.opcodes()),
        "receiver_classes": digest(trace.receiver_classes()),
        "dispatched_indices": digest(trace.dispatched_indices()),
    }


_HEADER = re.compile(r"^=== (\S+) ")
_ROW = re.compile(r"^  \[\s*(REPRODUCED|DIVERGES)\] (.*)$")
_MEASURED = "               measured: "


def parse_claims(text):
    """``[[experiment id, claim, measured, holds]]`` from the output of
    ``repro run``, in the order printed."""
    claims = []
    experiment = None
    lines = text.splitlines()
    for index, line in enumerate(lines):
        header = _HEADER.match(line)
        if header:
            experiment = header.group(1)
            continue
        row = _ROW.match(line)
        if row and index + 2 < len(lines) \
                and lines[index + 2].startswith(_MEASURED):
            claims.append([experiment, row.group(2),
                           lines[index + 2][len(_MEASURED):],
                           row.group(1) == "REPRODUCED"])
    return claims


# -- checks against the reference -----------------------------------------
#
# Each returns (attempted, failed, problems): one operation per claim,
# sweep query or trace.

def check_claims(claims, reference):
    expected = {(exp, claim): [measured, holds]
                for exp, claim, measured, holds in reference}
    problems = []
    seen = set()
    for exp, claim, measured, holds in claims:
        key = (exp, claim)
        if expected.get(key) != [measured, holds] or key in seen:
            problems.append(f"{exp}: {claim!r} measured {measured!r} "
                            f"holds={holds}")
        seen.add(key)
    missing = [key for key in expected if key not in seen]
    problems += [f"{exp}: {claim!r} missing" for exp, claim in missing]
    return len(expected), min(len(expected), len(problems)), problems


def check_sweep(output, reference, engine):
    problems = []
    for query, ratios in reference.items():
        answer = (output or {}).get(query)
        if answer is None:
            problems.append(f"{query}: no answer")
        elif answer["ratios"] != ratios:
            problems.append(f"{query}: hit ratios differ from the grid "
                            f"oracle")
        elif answer["engine"] != engine:
            problems.append(f"{query}: engine {answer['engine']} is not "
                            f"the stamped {engine}")
    return len(reference), len(problems), problems


def check_traces(output, reference):
    problems = []
    for name, expected in reference.items():
        actual = (output or {}).get(name)
        if actual is None:
            problems.append(f"{name}: missing")
        elif actual != expected:
            problems.append(f"{name}: content differs")
    return len(reference), len(problems), problems
