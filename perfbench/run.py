#!/usr/bin/env python3
"""Repository benchmark: build the runner, run one workload, check every op
against recorded references and print the metrics as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zoo_sweep --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics from a traced run (spans written to
.bench_build/perfbench/trace/). --scale tiny runs the smoke-size workloads
of perfbench/test_perfbench.py. --record rewrites the references of one
workload and scale from the current code (every seed of the table).

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it record the environment (source digest, git SHA when there
is one, nproc, threads, compiler and flags, seed). Exit status: 0 when every
op matched, 3 when some op did not (the result line is still printed), 1 or
2 when the benchmark could not run (no result line).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"

WORKLOADS = ("zoo_sweep", "codec_roundtrip", "accel_cold", "lenet_train")

# Library-internal parallelism is pinned: 2 of the 4 cores nproc reports.
THREADS = 2

# Every --seed folds onto this many recorded input sets; the workload seed
# the runner sees (and the references are keyed by) is seed % SEED_TABLE.
# DEFAULT_SEED and HELDOUT_SEED are the two a performance claim must hold
# on (README.md).
SEED_TABLE = 16
DEFAULT_SEED = 1
HELDOUT_SEED = 11

# Knobs that change what the library computes. The benchmark sets
# NOCW_THREADS itself and refuses to start when any of these is inherited.
REFUSED_EXACT = ("NOCW_NOC_ENGINE",)
REFUSED_PREFIXES = ("NOCW_TRACE", "NOCW_TS_", "REPRO_")

# Tolerances for the outputs that depend on the nn float summation order
# (the runner reports them under "approx"). Everything else is exact.
# Zoo accuracy is top-5 agreement over 2 probes: one top-5 membership flip
# moves it by 1/(5*2) = 0.1. LeNet-5 outputs are downstream of training.
APPROX_TOL = {
    "zoo_sweep": {"accuracy": ("abs", 0.10)},
    "lenet_train": {
        "accuracy": ("abs", 0.03),
        "train_accuracy": ("abs", 0.03),
        "*": ("rel", 0.05),
    },
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_environment():
    for key in sorted(os.environ):
        if key in REFUSED_EXACT or key.startswith(REFUSED_PREFIXES):
            fail(f"refusing to run with {key}={os.environ[key]!r} set: it "
                 "changes the library's results; unset it")


def build():
    """Configure and (re)build the runner; output goes to build.log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "perfbench_runner",
              "-j", str(os.cpu_count() or 1)]]
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}", 1)
            if rc != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-15:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log})", 1)


def source_digest():
    """SHA-256 over the library and benchmark sources: a benchmark checkout
    need not be a git repository, so this identifies the code."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".inc", ".txt",
                                             ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_workload(workload, seed, seconds, trace, scale, trace_out=None):
    env = dict(os.environ)
    env["NOCW_THREADS"] = str(THREADS)
    env["NOCW_QUIET"] = "1"
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("runner exceeded 170 s and was stopped", 1)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"runner exited with status {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# References

def ref_path(refs_dir, workload, scale):
    return Path(refs_dir) / scale / f"{workload}.json"


def load_refs(refs_dir, workload, scale, input_seed):
    path = ref_path(refs_dir, workload, scale)
    if not path.exists():
        fail(f"no references at {path}", 1)
    table = json.loads(path.read_text())
    ops = table["seeds"].get(str(input_seed))
    if ops is None:
        fail(f"{path} has no references for input seed {input_seed}", 1)
    return {op["id"]: op for op in ops}


def within(workload, key, got, ref):
    tol = APPROX_TOL.get(workload, {})
    kind, limit = tol.get(key, tol.get("*", ("abs", 0.0)))
    if not (isinstance(got, (int, float)) and isinstance(ref, (int, float))):
        return False
    if kind == "abs":
        return abs(got - ref) <= limit
    return abs(got - ref) <= limit * abs(ref)


def op_matches(workload, op, ref):
    if ref is None or op["exact"].keys() != ref["exact"].keys() or \
            op["approx"].keys() != ref["approx"].keys():
        return False
    if any(op["exact"][k] != v for k, v in ref["exact"].items()):
        return False
    return all(within(workload, k, op["approx"][k], v)
               for k, v in ref["approx"].items())


def check_passes(workload, passes, refs):
    """Returns (attempted, failed, first mismatching op id or None)."""
    attempted = failed = 0
    first_bad = None
    for p in passes:
        seen = set()
        for op in p["ops"]:
            attempted += 1
            seen.add(op["id"])
            if not op_matches(workload, op, refs.get(op["id"])):
                failed += 1
                first_bad = first_bad or op["id"]
        # A reference op the pass never produced is a failed op too.
        for missing in refs.keys() - seen:
            attempted += 1
            failed += 1
            first_bad = first_bad or missing
    return attempted, failed, first_bad


def record(workload, scale, refs_dir):
    table = {
        "workload": workload,
        "scale": scale,
        "note": f"Per-op reference outputs, keyed by input seed "
                f"(--seed mod {SEED_TABLE}). Written by run.py --record.",
        "seeds": {},
    }
    for s in range(SEED_TABLE):
        out = run_workload(workload, s, 0, 0, scale)
        ops = out["passes"][0]["ops"]
        table["seeds"][str(s)] = ops
        print(f"recorded {workload}/{scale} seed {s}: {len(ops)} ops",
              file=sys.stderr)
    path = ref_path(refs_dir, workload, scale)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(format_refs(table))


def format_refs(table):
    """JSON with one op per line, so a re-recording diffs op by op."""
    seeds = table["seeds"]
    head = json.dumps({k: v for k, v in table.items() if k != "seeds"},
                      sort_keys=True)
    blocks = [f'"{s}": [\n' + ",\n".join(json.dumps(op, sort_keys=True)
                                         for op in ops) + "\n]"
              for s, ops in sorted(seeds.items(), key=lambda kv: int(kv[0]))]
    return head[:-1] + ', "seeds": {\n' + ",\n".join(blocks) + "\n}}\n"


# --------------------------------------------------------------------------
# Metrics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(out, attempted, failed):
    return {
        "run_s": median([p["wall_s"] for p in out["passes"]]),
        "setup_s": median(out["setup_s"]),
        "peak_rss_mb": out["peak_rss_mb"],
        "ok_rate": 1.0 - failed / attempted,
    }


# Spans whose total time per traced pass is reported as "<name>.ms".
PASS_SPANS = (
    "nn.forward_capturing", "nn.forward_tail", "nn.train_classifier",
    "nn.evaluate_top1", "core.compress", "core.decompress", "core.serialize",
    "core.deserialize", "accel.simulate", "accel.simulate_layer.conv",
    "accel.simulate_layer.depthwise", "accel.simulate_layer.dense",
    "accel.simulate_layer.pool", "accel.simulate_layer.other",
    "eval.prepare",
)
# Spans timed per set-up repetition.
SETUP_SPANS = ("nn.make_model", "accel.summarize")
MODULES = ("nn", "core", "accel", "eval")
CODEC_SPANS = ("core.compress", "core.decompress", "core.serialize",
               "core.deserialize")


def root_groups(events):
    """Per root span (a set-up repetition or a traced pass): total duration
    and summed args per span name, self time per module, and the root."""
    by_id = {e["args"]["id"]: e for e in events}
    child_us = {}
    for e in events:
        p = e["args"]["parent"]
        if p >= 0:
            child_us[p] = child_us.get(p, 0.0) + e["dur"]
    groups = {}
    for e in events:
        root = e
        while root["args"]["parent"] >= 0:
            root = by_id[root["args"]["parent"]]
        g = groups.setdefault(root["args"]["id"], {
            "root": root, "ms": {}, "args": {}, "self_ms": {}})
        name = e["name"]
        self_ms = (e["dur"] - child_us.get(e["args"]["id"], 0.0)) / 1000.0
        g["ms"][name] = g["ms"].get(name, 0.0) + e["dur"] / 1000.0
        module = name.split(".")[0]
        g["self_ms"][module] = g["self_ms"].get(module, 0.0) + self_ms
        for k, v in e["args"].items():
            if k not in ("id", "parent", "op", "layer"):
                key = (name, k)
                g["args"][key] = g["args"].get(key, 0.0) + v
    return list(groups.values())


def rate(g, name, arg, scale):
    ms = g["ms"].get(name, 0.0)
    return g["args"].get((name, arg), 0.0) / scale / (ms / 1000.0) if ms else 0.0


def per_layer(out, trace_file):
    events = [e for e in json.loads(Path(trace_file).read_text())
              ["traceEvents"] if e["ph"] == "X"]
    groups = root_groups(events)
    setups = [g for g in groups if g["root"]["name"] == "setup"]
    traced = [g for g in groups if g["root"]["name"] == "pass"]
    untraced = [p for p in out["passes"] if not p["traced"]]
    traced_out = [p for p in out["passes"] if p["traced"]]

    per_pass = []
    for g in traced:
        wall_ms = g["ms"]["pass"]
        m = {f"{n}.ms": g["ms"].get(n, 0.0) for n in PASS_SPANS}
        for mod in MODULES:
            m[f"{mod}.self.ms"] = g["self_ms"].get(mod, 0.0)
        m["trace.unattributed_ms"] = g["self_ms"].get("pass", 0.0)
        m["nn.forward_capturing.gmac_per_s"] = rate(
            g, "nn.forward_capturing", "macs", 1e9)
        m["nn.train.samples_per_s"] = rate(
            g, "nn.train_classifier", "samples", 1.0)
        m["core.compress.mweights_per_s"] = rate(
            g, "core.compress", "weights", 1e6)
        m["core.decompress.mweights_per_s"] = rate(
            g, "core.decompress", "weights", 1e6)
        m["accel.sim_mcycles_per_s"] = rate(
            g, "accel.simulate", "sim_cycles", 1e6)
        m["nn.forward_capturing.share"] = \
            g["ms"].get("nn.forward_capturing", 0.0) / wall_ms
        m["core.codec.share"] = \
            sum(g["ms"].get(n, 0.0) for n in CODEC_SPANS) / wall_ms
        m["accel.simulate.share"] = g["ms"].get("accel.simulate", 0.0) / wall_ms
        m["nn.train_classifier.share"] = \
            g["ms"].get("nn.train_classifier", 0.0) / wall_ms
        per_pass.append(m)

    metrics = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
    for n in SETUP_SPANS:
        metrics[f"{n}.ms"] = median([g["ms"].get(n, 0.0) for g in setups])

    # Work counts repeat exactly every pass; take them from a traced pass.
    ops = traced_out[0]["ops"]

    def op_sum(key):
        return sum(op["exact"].get(key, op["approx"].get(key, 0.0))
                   for op in ops)
    metrics["core.segments"] = op_sum("segments")
    metrics["core.compressed_bits"] = op_sum("compressed_bits")
    metrics["noc.flits"] = op_sum("flits")
    metrics["noc.comm_cycles"] = op_sum("comm_cycles")
    hits = traced_out[0]["cache_hits"]
    lookups = hits + traced_out[0]["cache_misses"]
    metrics["accel.phase_cache.hit_ratio"] = hits / lookups if lookups else 0.0

    metrics["util.cpu_s"] = median([p["cpu_s"] for p in untraced])
    metrics["util.parallel_efficiency"] = median(
        [p["cpu_s"] / (p["wall_s"] * out["threads"]) for p in untraced])
    metrics["trace.overhead_ms"] = 1000.0 * (
        median([p["wall_s"] for p in traced_out]) -
        median([p["wall_s"] for p in untraced]))
    return metrics


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--refs", default=str(HERE / "refs"),
                    help="reference directory (default perfbench/refs)")
    ap.add_argument("--record", action="store_true",
                    help="rewrite this workload's references and exit")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    check_environment()
    build()
    if args.record:
        record(args.workload, args.scale, args.refs)
        return 0

    input_seed = args.seed % SEED_TABLE
    refs = load_refs(args.refs, args.workload, args.scale, input_seed)
    trace_out = None
    if args.trace:
        trace_dir = BUILD / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_out = trace_dir / f"{args.workload}.{args.scale}.seed{args.seed}.json"
    out = run_workload(args.workload, input_seed, args.seconds, args.trace,
                     args.scale, trace_out)
    attempted, failed, first_bad = check_passes(args.workload, out["passes"],
                                                refs)

    print(f"source_digest={source_digest()} git_sha={git_sha()} "
          f"nproc={os.cpu_count()} threads={out['threads']} "
          f"compiler={out['compiler']} cxx_flags='{out['cxx_flags'].strip()}' "
          f"seed={args.seed} input_seed={input_seed} scale={args.scale} "
          f"passes={len(out['passes'])}")
    if trace_out:
        print(f"trace={trace_out.relative_to(ROOT)}")
    if first_bad:
        print(f"perfbench: {failed}/{attempted} ops differ from the "
              f"reference; first: {first_bad}", file=sys.stderr)

    if args.trace:
        values = per_layer(out, trace_out)
        kind = "per_layer"
    else:
        values = end_to_end(out, attempted, failed)
        kind = "end_to_end"
    units = declared_metrics(kind)
    missing = units.keys() - values.keys()
    if missing:
        fail(f"metrics not produced: {sorted(missing)}", 1)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
