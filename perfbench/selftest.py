"""Self-test of the stage benchmark on a cut-down input (about 30 s).

    python3 perfbench/selftest.py

Runs homogeneous-desk at m = 300 through the untraced and the traced
path and checks that each emits exactly the metrics BENCHMARK.json
names, with their units, and that a failed output check is counted and
turns the result incorrect.  Exits nonzero on the first mismatch.
"""

import dataclasses
import json
import math
import sys

import run as bench

# m = 300 is 5.1 % from the closed form; the check here only guards the
# plumbing, so its bound is loose
SMOKE = bench.Workload(("run", "homogeneous-desk", "--m", "300"),
                       max_rel_error=0.1)


def expect(cond, what):
    if not cond:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = bench.run_workload("selftest", SMOKE, 1.0, trace, seed=0)
        expect(result["correct"] and result["failed"] == 0,
               f"{key}: smoke run failed its output check: {result}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"{key}: emitted {got}, BENCHMARK.json names {want}")
        for name, metric in result["metrics"].items():
            value = metric["value"]
            expect(isinstance(value, (int, float)) and math.isfinite(value),
                   f"{key}: {name} = {value!r} is not a finite number")
        print(f"{key}: {len(got)} metrics ok")

    broken = dataclasses.replace(SMOKE, max_rel_error=1e-9)
    result, _ = bench.run_workload("selftest", broken, 1.0, True, seed=0)
    expect(not result["correct"] and result["failed"] == result["attempted"],
           f"a failed output check was not counted: {result}")
    print("failed check counted ok")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
