#!/usr/bin/env python3
"""Compare benchmark results files against the bounds in BENCHMARK.json.

  python3 benchmark/compare.py BASE.json NEW.json [BASE2.json NEW2.json ...]

Files pair up in order: base, new, base, new, ... For each workload and
end-to-end metric it prints each side's median and quartiles, the change
against the metric's bound, a verdict and the pairs the new side won. With
one pair the quartiles are over the reps inside each file; with several,
over the files' medians. Verdicts: better or worse when the change passes
the bound; unchanged within it; unresolved when either side's quartile
spread is wider than the bound, unless every new value beats every base
value. The gain column is the change of the median, positive when the new
side is better. Exits 1 when any verdict is worse.
"""

import json
import os
import statistics
import sys

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, new, bound, higher_is_better):
    """(verdict, signed gain) for two samples of one metric."""
    sign = 1.0 if higher_is_better else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    gain = sign * (n_med - b_med) / b_med + 0.0 if b_med else 0.0
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0,
                 (n_q3 - n_q1) / n_med if n_med else 0.0)
    if spread > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better", gain
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    if gain > bound:
        return "better", gain
    return "unchanged", gain


def main(paths):
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            runs.append(json.load(f)["workloads"])
    bases, news = runs[0::2], runs[1::2]

    print(f"{'workload':24} {'metric':22} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'gain':>8} {'bound':>6} "
          f"{'verdict':>10} won")
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                base_m = [run[workload]["end_to_end"][name] for run in bases]
                new_m = [run[workload]["end_to_end"][name] for run in news]
            except KeyError:
                continue
            if len(base_m) == 1:
                base, new = base_m[0]["reps"], new_m[0]["reps"]
            else:
                base = [m["value"] for m in base_m]
                new = [m["value"] for m in new_m]
            higher = metric["better"] == "higher"
            result, gain = verdict(base, new, metric["bound"], higher)
            worse |= result == "worse"
            sign = 1.0 if higher else -1.0
            won = sum(sign * n["value"] > sign * b["value"]
                      for b, n in zip(base_m, new_m))
            b_q1, b_med, b_q3 = quartiles(base)
            n_q1, n_med, n_q3 = quartiles(new)
            print(f"{workload:24} {name:22} "
                  f"{f'{b_med:.5g} [{b_q1:.4g}, {b_q3:.4g}]':>32} "
                  f"{f'{n_med:.5g} [{n_q1:.4g}, {n_q3:.4g}]':>32} "
                  f"{gain:+8.2%} {metric['bound']:6.0%} {result:>10} "
                  f"{won}/{len(base_m)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
