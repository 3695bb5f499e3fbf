"""Compare two benchmark records written by ``run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's median on both sides, the change, and the bound
``BENCHMARK.json`` allows.  Refuses (exit 2) to compare records of
different workloads or tracing modes, or whose resolved sweep engine
differs: numbers from the numpy and the pure-python engine are not the
same measurement.
"""

import json
import sys
from pathlib import Path

from run import summary


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} {base[key]!r} vs "
                  f"{new[key]!r}", file=sys.stderr)
            return 2
    if base["env"]["engine"] != new["env"]["engine"]:
        print(f"refusing to compare: resolved sweep engine "
              f"{base['env']['engine']} vs {new['env']['engine']}",
              file=sys.stderr)
        return 2
    config = json.loads(Path("BENCHMARK.json").read_text())
    metrics = config["per_layer"] if base["trace"] else config["end_to_end"]
    print(f"workload {base['workload']}: {base['env']['git_rev'][:12]} "
          f"(seed {base['seed']}) -> {new['env']['git_rev'][:12]} "
          f"(seed {new['seed']})")
    print(f"  {'metric':<30}{'base':>14}{'new':>14}{'change':>9}"
          f"{'bound':>8}")
    for metric in metrics:
        name = metric["name"]
        before = summary(base["series"][name])[0]
        after = summary(new["series"][name])[0]
        change = (after - before) / before if before else 0.0
        bound = metric.get("bound")
        worse = change if metric["better"] == "lower" else -change
        verdict = ("" if bound is None
                   else "  WORSE" if worse > bound else "  ok")
        print(f"  {name:<30}{before:>14.6g}{after:>14.6g}{change:>9.1%}"
              f"{'' if bound is None else f'{bound:.0%}':>8}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
