"""Golden digests of every registered trace scenario.

Generates each registered workload with ``WorkloadSpec.generate`` (no
trace store, so no cached payload can stand in for the generator), at
its default and at its ``--quick`` parameters, and compares with
``trace_digests.golden.json``:

* the event count and the dispatched count;
* the SHA-256 of ``Trace.to_bytes()``, which covers every column and
  the dispatched bitset.

Comparing two runs of the same code cannot catch a change that shifts
every trace the same way; this file can.  A generator speed-up must
leave it identical.  An intended change to a generator (which also
bumps its ``WorkloadSpec.version``) regenerates the file::

    PYTHONPATH=src python tests/test_trace_digests.py \\
        > tests/trace_digests.golden.json
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.workloads import specs

GOLDEN = Path(__file__).with_name("trace_digests.golden.json")


def _digest(trace):
    return {
        "events": len(trace),
        "dispatched": trace.dispatched_count(),
        "sha256": hashlib.sha256(trace.to_bytes()).hexdigest(),
    }


def collect():
    """``{workload: {"default"|"quick": {params, events, dispatched,
    sha256}}}`` for every registered scenario.  A scenario whose quick
    parameters equal its defaults is generated once."""
    records = {}
    for spec in specs():
        entry = {}
        digests = {}
        for mode in ("default", "quick"):
            params = spec.resolve(quick=mode == "quick")
            key = json.dumps(params, sort_keys=True)
            if key not in digests:
                digests[key] = _digest(spec.generate(params))
            entry[mode] = dict(params=params, **digests[key])
        records[spec.name] = entry
    return json.loads(json.dumps(records))


def test_trace_digests_match_golden():
    golden = json.loads(GOLDEN.read_text())
    measured = collect()
    assert sorted(measured) == sorted(golden)
    for name in golden:
        for mode in ("default", "quick"):
            assert measured[name][mode] == golden[name][mode], \
                f"{name} ({mode})"


if __name__ == "__main__":
    json.dump(collect(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
