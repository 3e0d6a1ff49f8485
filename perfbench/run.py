#!/usr/bin/env python3
"""End-to-end benchmark of the RSG: build, run one workload, check, report.

Run from the root of a checkout:

  python3 perfbench/run.py --workload compact --seed 1 --seconds 20 --trace 0

builds the libraries and the rsg_perfbench program from this tree (into
$CARGO_TARGET_DIR, default .bench_build), runs the workload, checks every
output digest against perfbench/pins.json and prints the metrics named in
BENCHMARK.json: the end-to-end ones with --trace 0, the per-layer ones with
--trace 1. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every output was correct.

Other modes (see perfbench/README.md):

  --steadiness [--runs N]   repeat each BENCHMARK.json workload with seeds
                            1..N and print median, quartiles and
                            spread/bound per metric
  --compare OTHER_ROOT      alternate runs of OTHER_ROOT (the parent commit)
                            and this tree with the same benchmark code and
                            seeds, and judge each metric
  --write-pins              recompute perfbench/pins.json from this tree
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
WORKLOADS = ["compact", "serve", "leaf_retarget"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=1):
    log("perfbench: " + message)
    sys.exit(code)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def check_tree(root):
    for needed in ("CMakeLists.txt", "src", "designs"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} missing under {root}: run from the root of an RSG checkout", 2)


def build(root, build_dir, source_dir=None):
    """Configures and builds rsg_perfbench; returns the binary's path."""
    args = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if source_dir is not None:
        args.append("-DRSG_SOURCE_DIR=" + os.path.abspath(source_dir))
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        args += ["-G", "Ninja"]
    for step in (args, ["cmake", "--build", build_dir, "--target", "rsg_perfbench",
                        "-j", str(min(4, os.cpu_count() or 1))]):
        done = subprocess.run(step, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "rsg_perfbench")


def run_binary(binary, args, cwd):
    """Runs rsg_perfbench and returns its report (the JSON on its last line)."""
    try:
        done = subprocess.run([binary] + args, cwd=cwd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"rsg_perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"rsg_perfbench printed no report (exit {done.returncode})")
    return json.loads(lines[-1])


def check_pins(report):
    """Counts every operation whose input's digest differs from its pin."""
    with open(os.path.join(BENCH_DIR, "pins.json")) as f:
        pins = json.load(f)
    failed = 0
    for key, output in sorted(report["outputs"].items()):
        pin = pins.get(key)
        if pin != output["digest"]:
            failed += output["count"]
            log(f"wrong output: {key}: digest {output['digest']}, pinned {pin}")
    return failed


def run_workload(root, binary, workload, seed, seconds, trace, designs=None):
    """One run: returns (correct, attempted, failed, report)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0",
            "--designs", designs or os.path.join(root, "designs")]
    trace_path = None
    if trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace_{workload}_seed{seed}.json")
        args += ["--trace-out", trace_path]
    report = run_binary(binary, args, root)
    for failure in report["failures"]:
        log("failure: " + failure)
    failed = report["failed"] + check_pins(report)
    report["trace_path"] = trace_path
    return failed == 0, report["attempted"], failed, report


def build_root(root):
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))


def contract_mode(root, opts):
    spec = load_spec(root)
    check_tree(root)
    binary = build(root, build_root(root))
    correct, attempted, failed, report = run_workload(root, binary, opts.workload, opts.seed,
                                                      opts.seconds, opts.trace)
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        got = report["metrics"].get(entry["name"])
        if got is None:
            fail(f"metric {entry['name']} missing from the {opts.workload} report")
        metrics[entry["name"]] = {"value": got["value"], "unit": entry["unit"]}
        note = f"  ({got['note']})" if got["note"] else ""
        print(f"{entry['name']:32s} {got['value']:16.6f} {entry['unit']}{note}")
    print(f"{'failed_ratio':32s} {failed / max(attempted, 1):16.6f} ratio")
    if opts.trace:
        print(report["self_time_table"], end="")
        print("chrome trace: " + os.path.relpath(report["trace_path"], root))
    else:
        print(f"{'input':40s} {'min_ms':>10s} {'median_ms':>10s} {'max_ms':>10s}")
        for key, (low, mid, high) in sorted(report["input_ms"].items()):
            print(f"{key:40s} {low:10.3f} {mid:10.3f} {high:10.3f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def steadiness_mode(root, opts):
    spec = load_spec(root)
    check_tree(root)
    binary = build(root, build_root(root))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for workload in workload_names(spec):
        values = {}
        for seed in range(1, opts.runs + 1):
            correct, _, _, report = run_workload(root, binary, workload, seed, opts.seconds, False)
            if not correct:
                fail(f"{workload} seed {seed}: wrong output")
            for name in bounds:
                values.setdefault(name, []).append(report["metrics"][name]["value"])
        results[workload] = values
        print(f"== {workload}: {opts.runs} runs, seeds 1..{opts.runs}, {opts.seconds} s each")
        print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'spread/bound':>12s}")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "" if s < bounds[name] / 3 else "  <-- not steady"
            print(f"{name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {bounds[name]:6.3f} "
                  f"{s / bounds[name]:12.3f}{flag}")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as f:
        json.dump(results, f, indent=1)
    return 0


def compare_mode(root, opts):
    """Alternating pairs of parent and change runs with the same seeds and benchmark code.

    Returns non-zero when the change failed more operations than the parent on
    any workload: its metrics are then not comparable, and no verdict is given.
    """
    spec = load_spec(root)
    check_tree(root)
    check_tree(opts.compare)
    binaries = {"parent": build(root, os.path.join(build_root(root), "compare-parent"), opts.compare),
                "change": build(root, os.path.join(build_root(root), "compare-change"), root)}
    designs = {"parent": os.path.join(os.path.abspath(opts.compare), "designs"),
               "change": os.path.join(root, "designs")}
    metrics = spec["end_to_end"]
    comparable = True
    for workload in workload_names(spec):
        runs = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        attempted = {"parent": 0, "change": 0}
        for pair in range(opts.pairs):
            seed = 1 + pair
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                correct, tried, wrong, report = run_workload(root, binaries[side], workload, seed,
                                                             opts.seconds, False, designs[side])
                if not correct:
                    log(f"{side} {workload} seed {seed}: {wrong} of {tried} operations failed")
                attempted[side] += tried
                failed[side] += wrong
                runs[side].append({m["name"]: report["metrics"][m["name"]]["value"]
                                   for m in metrics})
        print(f"== {workload}: {opts.pairs} pairs, {opts.seconds} s per run; failed "
              f"parent {failed['parent']}/{attempted['parent']}, "
              f"change {failed['change']}/{attempted['change']}")
        if failed["change"] > failed["parent"]:
            print("not comparable: wrong outputs (the change failed more operations than "
                  "the parent)")
            comparable = False
            continue
        print(f"{'metric':18s} {'parent q1/med/q3':>36s} {'change q1/med/q3':>36s} "
              f"{'wins':>6s}  verdict")
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
            wins = sum(1 for c, p in zip(change, parent) if better(c, p))
            worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
            if spread(parent) > m["bound"] and not all(better(c, p) for c in change for p in parent):
                verdict = "unresolved (parent spread above bound)"
            elif worse_by > m["bound"]:
                verdict = f"REGRESSION ({worse_by:+.1%} against bound {m['bound']:.0%})"
            elif (opts.pairs >= 10 and wins >= 0.9 * opts.pairs and abs(cm - pm) > (p3 - p1)
                  and better(cm, pm)):
                verdict = f"gain ({-worse_by:+.1%})"
            else:
                verdict = "no change"
            print(f"{name:18s} {p1:11.5g} {pm:11.5g} {p3:11.5g}  {c1:11.5g} {cm:11.5g} {c3:11.5g} "
                  f"{wins:3d}/{opts.pairs:<2d} {verdict}")
    return 0 if comparable else 1


def pins_mode(root):
    check_tree(root)
    binary = build(root, build_root(root))
    done = subprocess.run([binary, "--pins", "--designs", os.path.join(root, "designs")], cwd=root,
                          stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        fail("pin computation reported failed checks")
    with open(os.path.join(BENCH_DIR, "pins.json"), "w") as f:
        f.write(done.stdout)
    log("wrote " + os.path.join(BENCH_DIR, "pins.json"))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--compare", metavar="OTHER_ROOT")
    parser.add_argument("--write-pins", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--pairs", type=int, default=10)
    opts = parser.parse_args()
    root = os.getcwd()
    if opts.seconds is None and not opts.write_pins:
        opts.seconds = load_spec(root)["run_seconds"]
    if opts.write_pins:
        return pins_mode(root)
    if opts.steadiness:
        return steadiness_mode(root, opts)
    if opts.compare:
        return compare_mode(root, opts)
    if opts.workload is None:
        parser.error("--workload is required")
    return contract_mode(root, opts)


if __name__ == "__main__":
    sys.exit(main())
