"""circpc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload study-vm --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; circpc is imported from its ``src``.
The timed phase repeats one pass of the workload's work for about
``--seconds`` and times it at reference speed (see ``workloads``).  With
``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` one pass runs untraced and one
traced, and the JSON holds the per-layer metrics.  A
``perfbench-record`` line before it carries the workload's own
throughput name, the measured pass times, the result fingerprints and
the machine.  Metric names and units are those of BENCHMARK.json.  Exit
status is 0 when every operation and correctness check passed, 1 when
one failed (the result is still printed), 2 when the run could not
start (no result is printed).
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(inputs.ROOT, ".perfbench_out")
SETUP_REPEATS = 5
# the throughput each workload reports as work_per_s
WORK_NAMES = {"study-vm": "fits_per_s", "prior-elicit": "priors_per_s"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def set_up(args, work):
    """Write the run's inputs from fresh interpreters, SETUP_REPEATS times.

    Each interpreter's wall time is scaled to reference speed by the
    speed probe it runs at its end, as the timed phase scales operations.
    Returns the median scaled and measured times and the self-test
    checks: every repeat writes identical bytes, and another seed writes
    different ones.
    """
    import workloads

    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", work]
    scaled, times, digests = [], [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        child = subprocess.run(cmd, check=True, cwd=inputs.ROOT, stdout=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * workloads.PROBE_REF_S / float(child.stdout.split()[-1]))
        digests.append(inputs.digest_dir(work))
    other = work + "-other-seed"
    inputs.make(args.workload, args.seed + 1, args.seconds, bool(args.trace), other)
    other_digest = inputs.digest_dir(other)
    shutil.rmtree(other)
    checks = [
        ("selftest.inputs_repeat", len(set(digests)) == 1,
         f"{len(set(digests))} distinct input digests over {SETUP_REPEATS} set-ups"),
        ("selftest.inputs_seed", other_digest != digests[0], "seed+1 digest differs"),
    ]
    return statistics.median(scaled), statistics.median(times), checks


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def traced_metrics(circpc, runner, plan, work, checks):
    """Untraced then traced run of the same work, and the layer metrics."""
    import layers
    from tracing import LAYERS, Tracer, analyse

    plain = runner(circpc, plan, work)
    tracer = Tracer()
    out = runner(circpc, plan, work, tracer)
    out["pass_digests"] = plain["pass_digests"] + out["pass_digests"]
    # the spans are measured times, so the one pass is compared as measured
    wall = out["pass_s"][0]
    overhead = wall - plain["pass_s"][0]
    self_s, calls, unattributed, problems = analyse(tracer.spans, wall)
    checks.append(("selftest.spans_nest", not problems, "; ".join(problems[:3]) or "ok"))
    checks.append(("selftest.self_time_sum", -1e-6 <= unattributed <= abs(overhead) + 0.01 * wall,
                   f"wall {wall:.4f} s, layer self sum {wall - unattributed:.4f} s, "
                   f"overhead {overhead:.4f} s"))
    m = {
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (plain["pass_s"][0], "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.unattributed_s": (unattributed, "s"),
    }
    # no traced boundary of a declared workload leads into special or cli;
    # layers.py times them from outside
    for layer in LAYERS:
        if layer not in ("special", "cli"):
            m[f"{layer}.self_frac"] = (self_s[layer] / wall, "ratio")
            m[f"{layer}.calls"] = (calls[layer], "count")
    m["harness.fits"] = (sum(1 for s in tracer.spans if s[0] == "circpc.harness.run_mcmc"), "count")
    m["harness.cells_failed"] = (sum(row[6] for row in out.get("rows", ())), "count")
    layer_metrics, layer_checks = layers.measure(circpc, plan["seed"], work)
    m.update(layer_metrics)
    checks.extend(layer_checks)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{plan['workload']}-{plan['seed']}.json"), "w") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return out, m


def main(argv=None):
    p = argparse.ArgumentParser(description="circpc benchmark")
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        circpc = inputs.import_circpc()
        with open(os.path.join(inputs.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    import oracles
    import workloads

    work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        setup_s, setup_wall_s, checks = set_up(args, work)
        with open(os.path.join(work, "plan.json")) as fh:
            plan = json.load(fh)
        runner = workloads.RUNNERS[args.workload]
        if args.trace:
            out, metrics = traced_metrics(circpc, runner, plan, work, checks)
        else:
            out = runner(circpc, plan, work)
            metrics = {
                "setup_s": (setup_s, "s"),
                "work_per_s": (out["work"] / out["ref_wall_s"], "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        digests = out["pass_digests"]
        checks.append(("selftest.passes_identical", None not in digests and len(set(digests)) == 1,
                       f"{len(set(digests))} distinct result digests over {len(digests)} passes"))
        checks.extend(oracles.CHECKS[args.workload](circpc, out))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    checks.append(("selftest.metric_set", emitted == declared and all(map(NAME_RE.match, emitted)),
                   f"missing {sorted(set(declared) - set(emitted))}, "
                   f"undeclared {sorted(set(emitted) - set(declared))}"))

    failed_checks = [(name, detail) for name, ok, detail in checks if not ok]
    attempted = out["attempted"] + len(checks)
    failed = out["failed"] + len(failed_checks)
    for name, detail in failed_checks:
        print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(out["pass_s"]),
        "setup_s": setup_s, "setup_wall_s": setup_wall_s, "ref_wall_s": out["ref_wall_s"], "pass_s": out["pass_s"],
        WORK_NAMES[args.workload]: out["work"] / out["ref_wall_s"],
        "failed_frac": failed / attempted,
        "checks": len(checks), "failed_checks": [name for name, _ in failed_checks],
        "fingerprints": out["fingerprints"], "machine": machine(),
    }
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
