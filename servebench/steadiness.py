#!/usr/bin/env python3
"""Steadiness mode: run each workload k times and report, per metric, the
median, the quartiles and the spread (IQR / median) against its bound.

Runs the command named in BENCHMARK.json from the repository root, once per
seed (seed0, seed0+1, ...), with the arguments the benchmark contract fixes:

    python3 servebench/steadiness.py --runs 10
    python3 servebench/steadiness.py --runs 5 --workloads cut_storm --seed0 100
    python3 servebench/steadiness.py --runs 10 --save base.json
    python3 servebench/steadiness.py --runs 10 --against base.json

It reports the end-to-end metrics and judges each spread against its
bound, setup_s included. --save writes every value and the host facts;
--against compares medians with a saved file, and refuses when the host
facts differ: results from different hosts are not comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "available_parallelism", "cpu_model", "rustc")


def run_once(cmd, workload, seed, seconds):
    """Runs the benchmark once; returns (result, provenance) or exits."""
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"{workload} seed {seed}: outputs not correct")
    prov = {}
    for line in lines:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
    return result, prov


def spread(values):
    """(median, q1, q3, IQR/median), quartiles by statistics.quantiles(n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def host_facts(prov):
    return tuple(str(prov.get(k)) for k in HOST_KEYS)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save")
    parser.add_argument("--against")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    metrics = bench["end_to_end"]

    values = {}
    facts = set()
    for name in names:
        values[name] = {m["name"]: [] for m in metrics}
        for i in range(opts.runs):
            start = time.monotonic()
            result, prov = run_once(bench["command"], name, opts.seed0 + i, seconds)
            took = time.monotonic() - start
            facts.add(host_facts(prov))
            for m in metrics:
                values[name][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"  {name} seed {opts.seed0 + i} done in {took:.1f} s", file=sys.stderr)

    if len(facts) > 1:
        print("NOT COMPARABLE: host facts differ between runs:", sorted(facts))
    worst = "steady"
    for name in names:
        print(f"\n{name} ({opts.runs} runs, {seconds} s each)")
        print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            med, q1, q3, sp = spread(values[name][m["name"]])
            bound = m["bound"]
            if sp <= bound / 3:
                verdict = "steady"
            elif sp <= bound:
                verdict = "within bound"
                worst = "within bound" if worst == "steady" else worst
            else:
                verdict = "TOO NOISY"
                worst = "TOO NOISY"
            print(f"  {m['name']:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {sp:>8.4f} "
                  f"{bound:>6}  {verdict}")
    print(f"\noverall: {worst}")

    if opts.save:
        with open(opts.save, "w") as f:
            json.dump({"host": dict(zip(HOST_KEYS, sorted(facts)[0])),
                       "seconds": seconds, "values": values}, f, indent=1)
    if opts.against:
        with open(opts.against) as f:
            base = json.load(f)
        base_facts = tuple(str(base["host"].get(k)) for k in HOST_KEYS)
        if facts != {base_facts}:
            print(f"\nNOT COMPARABLE with {opts.against}: host facts differ "
                  f"({base_facts} vs {sorted(facts)})")
            return
        print(f"\nagainst {opts.against} (change of the median; + is worse)")
        for name in names:
            for m in metrics:
                old = base["values"].get(name, {}).get(m["name"])
                if not old:
                    continue
                a = statistics.median(old)
                b = statistics.median(values[name][m["name"]])
                if not a:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "REGRESSION" if worse > m["bound"] else ""
                print(f"  {name:<12} {m['name']:<32} {a:>12.6g} -> {b:<12.6g} {worse:+.4f} {flag}")


if __name__ == "__main__":
    main()
