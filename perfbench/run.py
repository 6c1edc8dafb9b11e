#!/usr/bin/env python3
"""The repository benchmark: host-time cost of the StopWatch simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_sharded --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 3 --seconds 20     # every workload, one table
    python3 perfbench/run.py --smoke                   # the benchmark's own smoke test

It builds perfbench/bench.exe with dune, computes the workload's reference
digest by a second route, then runs iterations -- each in a fresh process --
until --seconds have been spent. Every iteration's report digest must equal
the reference (and the digest recorded in perfbench/refs.json for that seed,
when there is one). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (medians over the run's iterations); with --trace 1 the
run alternates untraced and traced iterations and reports the per-layer
metrics, writing the traced spans to .perfbench-work/.

This measures the simulator (host time), never the modelled cloud.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("fig4_leak", "fleet_sharded", "ckpt_cycle")  # why: see BENCHMARK.json

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_s_per_s", "sim_s/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("engine.events", "count"),
    ("engine.events.net_deliver", "count"),
    ("engine.events.vmm_slice", "count"),
    ("engine.events.vmm_dom0", "count"),
    ("engine.events.disk_complete", "count"),
    ("engine.cancelled_frac", "ratio"),
    ("engine.queue_depth_max", "count"),
    ("engine.ns_per_event", "ns"),
    ("net.delivered", "count"),
    ("net.ingress.replicated", "count"),
    ("net.egress.forwarded", "count"),
    ("net.mcast.retransmit_frac", "ratio"),
    ("vmm.net_deliveries", "count"),
    ("vmm.slices", "count"),
    ("vmm.skew_blocks", "count"),
    ("vmm.divergences", "count"),
    ("disk.completed", "count"),
    ("conductor.windows", "count"),
    ("conductor.exchanged", "count"),
    ("conductor.exchanged_per_window", "ratio"),
    ("setup.parse_s", "s"),
    ("setup.prepare_s", "s"),
    ("ckpt.capture_s", "s"),
    ("ckpt.write_s", "s"),
    ("ckpt.read_s", "s"),
    ("ckpt.restore_s", "s"),
    ("ckpt.image_bytes", "bytes"),
    ("ckpt.images", "count"),
    ("ckpt.restores", "count"),
    ("leak.audit_s", "s"),
    ("leak.series", "count"),
    ("leak.verdicts", "count"),
    ("leak.samples", "count"),
    ("leak.baseline_flagged", "count"),
    ("leak.stopwatch_flagged", "count"),
    ("obs.finish_s", "s"),
    ("obs.export_s", "s"),
    ("gc.minor_words_per_event", "words"),
    ("gc.promoted_words", "words"),
    ("gc.major_collections", "count"),
    ("gc.top_heap_mb", "MB"),
    ("engine.dispatch_incl_s", "s"),
    ("net.deliver_incl_s", "s"),
    ("vmm.median_incl_s", "s"),
    ("disk.complete_incl_s", "s"),
    ("sim.run_s", "s"),
    ("residual_s", "s"),
    ("trace_overhead_frac", "ratio"),
]

# Per-layer timings read from an iteration's span totals.
SPAN_METRICS = {
    "setup.parse_s": "setup.parse",
    "setup.prepare_s": "setup.prepare",
    "ckpt.capture_s": "ckpt.capture",
    "ckpt.write_s": "ckpt.write",
    "ckpt.read_s": "ckpt.read",
    "ckpt.restore_s": "ckpt.restore",
    "leak.audit_s": "leak.audit",
    "obs.finish_s": "obs.finish",
    "obs.export_s": "obs.export",
    "sim.run_s": "sim.run",
}

MIN_ITERATIONS = 3
RUN_LIMIT_S = 170  # a run ends within 180 s of its build
BUILD_TIMEOUT_S = 850
WORK = ".perfbench-work"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE = 0.0  # children still running then are killed; set after the build


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def pin_to_one_cpu():
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_child(args, pinned=False):
    """Run bench.exe; return (exit code, stdout, peak RSS in MB).

    A pinned child sees one CPU, so a sharded cloud gets the sequential
    conductor driver: on a small shared host the two-domain gang's wall
    time swings by up to 2x from one iteration to the next, the sequential
    driver's by about 10%."""
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, "child-%d.out" % os.getpid())
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([EXE] + args, stdout=out,
                                preexec_fn=pin_to_one_cpu if pinned else None)
        timer = threading.Timer(max(5.0, DEADLINE - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        stdout = f.read()
    os.remove(out_path)
    return proc.returncode, stdout, usage.ru_maxrss / 1024.0


def parse_last_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def revision():
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    # An exported tree has no git metadata: name it by its sources instead.
    h = hashlib.md5()
    for top in ("dune-project", "lib", "bin", "examples", "perfbench"):
        for dirpath, dirnames, files in os.walk(top) if os.path.isdir(top) else [("", [], [top])]:
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-md5:" + h.hexdigest()


def build():
    for need in ("dune-project", "lib", os.path.join("examples", "fig4.scn"),
                 os.path.join("examples", "datacenter.scn")):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # No shared dune cache: the build reads and writes inside the checkout only.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, env=env)
    if r.returncode != 0:
        fail("build failed")


def recorded_digest(workload, seed, smoke):
    if smoke:
        return None
    with open(os.path.join(HERE, "refs.json")) as f:
        refs = json.load(f)
    return refs["digests"].get(workload, {}).get(str(seed))


class Run:
    """The checks and iteration records of one workload run."""

    def __init__(self, workload, seed, smoke):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.problems = []
        self.untraced, self.traced = [], []
        common = ["--workload", workload, "--seed", str(seed)]
        self.common = common + (["--smoke"] if smoke else [])
        code, out, _ = run_child(["reference"] + self.common)
        ref = parse_last_line(out) if code == 0 else None
        self.check("reference run", ref is not None)
        self.reference = ref["digest"] if ref else None
        for name, ok in (ref or {}).get("checks", {}).items():
            self.check(name, ok)
        self.recorded = recorded_digest(workload, seed, smoke)

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(name)

    def iterate(self, traced, counts=False):
        args = ["iter"] + self.common + ["--work", WORK]
        if traced:
            args.append("--trace")
        if counts:
            args.append("--counts")
        code, out, rss = run_child(args, pinned=True)
        it = parse_last_line(out) if code == 0 else None
        self.check("iteration exits 0", it is not None)
        if it is None:
            return None
        for name, ok in it["checks"].items():
            self.check(name, ok)
        self.check("digest equals reference", it["digest"] == self.reference)
        if self.recorded is not None:
            self.check("digest equals recorded", it["digest"] == self.recorded)
        it["peak_rss_mb"] = rss
        (self.traced if traced else self.untraced).append(it)
        return it


def measure(workload, seed, seconds, trace, smoke):
    run = Run(workload, seed, smoke)
    start = time.monotonic()
    n = 0
    while True:
        traced = trace and n % 2 == 1
        it = run.iterate(traced, counts=traced and not run.traced)
        n += 1
        elapsed = time.monotonic() - start
        done = len(run.untraced) >= (1 if smoke else MIN_ITERATIONS)
        if trace:
            done = done and len(run.traced) >= (1 if smoke else 2)
        per_iteration = elapsed / n
        if it is None or (done and elapsed + per_iteration > seconds):
            break
    return run


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(run):
    its = run.untraced
    return {
        "setup_s": median([it["times"]["setup"] for it in its]),
        "wall_s": median([it["wall_s"] for it in its]),
        "sim_s_per_s": median([it["sim_s"] / it["sim_call_s"] for it in its]),
        "peak_rss_mb": median([it["peak_rss_mb"] for it in its]),
    }


def per_layer(run):
    its = run.traced
    if not its:
        return {}
    # fig4 gathers its snapshot counters in one traced iteration only.
    counts = next((it["counts"] for it in its if "engine.events" in it["counts"]),
                  its[0]["counts"])
    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update({k: v for k, v in counts.items() if k in m})
    for name, span in SPAN_METRICS.items():
        m[name] = median([it["times"].get(span, 0.0) for it in its])
    for name in ("gc.promoted_words", "gc.major_collections", "gc.top_heap_mb"):
        m[name] = median([it["gc"][name] for it in its])
    events = counts.get("engine.events", 0.0)
    minor = median([it["gc"]["gc.minor_words"] for it in its])
    m["gc.minor_words_per_event"] = minor / events if events else 0.0
    m["engine.ns_per_event"] = m["sim.run_s"] * 1e9 / events if events else 0.0
    for name in ("engine.dispatch", "net.deliver", "vmm.median", "disk.complete"):
        m[name + "_incl_s"] = median([it["profile"].get(name + "_incl_s", 0.0) for it in its])
    m["residual_s"] = median([it["residual_s"] for it in its])
    untraced_wall = median([it["wall_s"] for it in run.untraced])
    traced_wall = median([it["wall_s"] for it in its])
    m["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    return m


def layer_shares(run):
    """Exclusive span time per name as a share of the traced iteration wall."""
    its = run.traced
    wall = median([it["wall_s"] for it in its])
    names = sorted({k for it in its for k in it["self_s"]})
    shares = [(k, median([it["self_s"].get(k, 0.0) for it in its])) for k in names]
    return [(k, v, v / wall if wall else 0.0) for k, v in sorted(shares, key=lambda x: -x[1])]


def write_spans(run):
    path = os.path.join(WORK, "spans-%s-seed%d.json" % (run.workload, run.seed))
    with open(path, "w") as f:
        json.dump([it["spans"] for it in run.traced], f)
    return path


def report(run, info, trace, why):
    e2e = end_to_end(run)
    attempted = max(1, run.attempted)
    drivers = sorted({it["conductor_driver"] for it in run.untraced + run.traced})
    print("workload %s seed %d: %d untraced + %d traced iterations, revision %s, "
          "nproc %s (each iteration pinned to one CPU), OCaml %s, conductor driver %s" % (
              run.workload, run.seed, len(run.untraced), len(run.traced), info["revision"],
              info["nproc"], info["ocaml"], "/".join(drivers)))
    print("  why: " + why)
    for name, unit in END_TO_END:
        print("  %-32s %14.6g %s" % (name, e2e[name], unit))
    print("  %-32s %14.6g %s  (%d of %d checks failed%s)" % (
        "failed_frac", run.failed / attempted, "ratio", run.failed, run.attempted,
        ": " + ", ".join(sorted(set(run.problems))) if run.problems else ""))
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if trace:
        layer = per_layer(run)
        for name, unit in PER_LAYER:
            print("  %-32s %14.6g %s" % (name, layer.get(name, 0.0), unit))
        print("  layer shares (exclusive span time / traced wall):")
        for name, secs, share in layer_shares(run):
            print("    %-28s %10.4f s %6.1f%%" % (name, secs, 100 * share))
        print("  spans written to " + write_spans(run))
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
    return {"correct": run.failed == 0 and run.attempted > 0,
            "attempted": attempted, "failed": run.failed, "metrics": metrics}


def smoke_test(info, bench, whys):
    """Each workload at its short size, traced and untraced: every check
    passes and every metric BENCHMARK.json names is printed with its unit."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    ours = dict(END_TO_END + PER_LAYER)
    ok = set(units.items()) <= set(ours.items())
    if not ok:
        print("smoke: BENCHMARK.json names metrics this script does not print: %s"
              % sorted(set(units.items()) - set(ours.items())), file=sys.stderr)
    for workload in WORKLOADS:
        run = measure(workload, 1, 0, True, True)
        result = report(run, info, True, whys[workload])
        printed = dict(END_TO_END)  # report() prints these on every run
        printed.update({k: v["unit"] for k, v in result["metrics"].items()})
        missing = sorted(k for k, u in units.items() if printed.get(k) != u)
        if not result["correct"] or missing:
            ok = False
            print("smoke: %s failed checks %s, missing metrics %s"
                  % (workload, sorted(set(run.problems)), missing), file=sys.stderr)
    print("perfbench smoke %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    build()
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_LIMIT_S * (1 if args.workload and not args.smoke else 3)
    code, out, _ = run_child(["info"])
    if code != 0:
        fail("bench.exe info failed")
    info = json.loads(out)
    info["revision"] = revision()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.smoke:
        return smoke_test(info, bench, whys)
    workloads = [args.workload] if args.workload else WORKLOADS
    for w in workloads:
        result = report(measure(w, args.seed, args.seconds, args.trace, False),
                        info, args.trace, whys[w])
        if args.workload:
            print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
