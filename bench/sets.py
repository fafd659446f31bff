#!/usr/bin/env python3
"""Run sets of benchmark runs and compare them.

Run from the repository root:

  python3 bench/sets.py run SET.json [--seeds 1-10] [--trace]
  python3 bench/sets.py show SET.json
  python3 bench/sets.py compare FIRST.json SECOND.json

`run` makes one run per workload of BENCHMARK.json and seed, each
`run_seconds` long, and saves every result line to SET.json. A run with a
failed request exits non-zero and stops `run`, so a saved set holds only
runs in which every request passed. `show` prints, per workload and
end-to-end metric, the median, the quartiles as statistics.quantiles(values, n=4)
gives them, and the spread (third minus first quartile, over the median)
against the metric's bound in BENCHMARK.json; for a traced set it prints
the per-layer medians. `compare` prints both sets' medians and how far the
second moved, in the worse direction, against the bound; for traced sets
it lists the per-layer values that differ between runs of the same seed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args):
    bench = json.load(open("BENCHMARK.json"))
    out = {"trace": args.trace, "runs": {}}
    for w in (w["name"] for w in bench["workloads"]):
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "1" if args.trace else "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            res["log"] = p.stderr.strip().splitlines()
            out["runs"].setdefault(w, {})[str(s)] = res
            print(w, s, {k: round(v["value"], 4) for k, v in res["metrics"].items()
                         if not args.trace}, file=sys.stderr)
            json.dump(out, open(args.set, "w"), indent=1)


def values(st, w, name):
    return [r["metrics"][name]["value"] for r in st["runs"][w].values()]


def show(args):
    bench = json.load(open("BENCHMARK.json"))
    st = json.load(open(args.set))
    metrics = bench["per_layer"] if st["trace"] else bench["end_to_end"]
    for w, rs in st["runs"].items():
        print(f"{w} ({len(rs)} runs)")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for m in metrics:
            vs = values(st, w, m["name"])
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0
            bound = m.get("bound")
            flag = "" if bound is None or m["name"] == "setup_s" or spread <= bound / 3 else \
                (" over 1/3 bound" if spread <= bound else " OVER BOUND")
            print(f"  {m['name']:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6s}{flag}")


def compare(args):
    bench = json.load(open("BENCHMARK.json"))
    a, b = json.load(open(args.first)), json.load(open(args.second))
    if a["trace"]:
        for w in a["runs"]:
            for s, ra in a["runs"][w].items():
                rb = b["runs"].get(w, {}).get(s)
                if rb is None:
                    continue
                diff = sorted(k for k in ra["metrics"] if ra["metrics"][k]["value"] != rb["metrics"][k]["value"])
                print(f"{w} seed {s}: differ: {', '.join(diff)}")
        return
    ok = True
    for w in a["runs"]:
        print(w)
        for m in bench["end_to_end"]:
            ma, mb = statistics.median(values(a, w, m["name"])), statistics.median(values(b, w, m["name"]))
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            bad = worse > m["bound"]
            ok = ok and not bad
            print(f"  {m['name']:20s} {ma:12.5g} {mb:12.5g} {worse:+8.2%} bound {m['bound']:.0%}"
                  f"{'  WORSE THAN BOUND' if bad else ''}")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("set")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", action="store_true")
    s = sub.add_parser("show")
    s.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    {"run": run, "show": show, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
