"""The madic benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads (see BENCHMARK.json for why each
exists): certify, catalogue, cli_requests.  Each is a closed loop with one
client: the next operation starts when the previous one has returned.

Each run starts fresh processes.  Several set-up probes each import madic,
build the first round's inputs and warm up, and the median time from process
spawn to ready is `setup_s`.  The measuring process then runs whole rounds
of seeded operations until --seconds of wall time have passed, timing each
operation alone and checking its answer outside the timed region.  Between
operations a speed meter (speed.py) times a fixed reference task, and the
reported operation times are scaled to a nominal reference speed, so that
the host's speed drifting during and between runs does not show as a
change in madic; the unscaled figures are printed too.

--trace 0 prints the end-to-end metrics; --trace 1 re-runs the same rounds
with wrappers on every layer's public functions and prints the per-layer
metrics, writing the spans to .bench_out/.  Human-readable lines come first;
the last line of stdout is one JSON object: correct, attempted, failed,
metrics.  --known-faults adds the malformed requests madic is known to
mishandle to cli_requests; they count as failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_REF_S, SpeedMeter, scale_factors

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "catalogue", "cli_requests")
SETUP_SAMPLES = 9
TIMEOUT_S = 170
LAYERS = ("words", "patterns", "spaces", "reductions", "dense_types", "codec", "cli")


class BenchError(RuntimeError):
    pass


def spawn(args: argparse.Namespace, extra: list[str]) -> subprocess.Popen:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    if args.known_faults:
        cmd.append("--known-faults")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)


def wait_ready(proc: subprocess.Popen, started: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.poll()})")
    return perf_counter() - started


def setup_probe(args) -> float:
    started = perf_counter()
    proc = spawn(args, ["--setup-only"])
    try:
        took = wait_ready(proc, started)
        proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return took


def run_worker(args, extra: list[str]) -> tuple[float, dict]:
    started = perf_counter()
    proc = spawn(args, extra)
    try:
        took = wait_ready(proc, started)
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return took, json.loads(out.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    which percentile that is."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def timings(samples: dict, seconds: list[float]) -> tuple[float, float, float, float]:
    """ops_per_s (median over rounds), p50 and tail latency in ms, and the
    tail's percentile, from per-operation times."""
    by_round: dict = {}
    for round_no, s, ok in zip(samples["round"], seconds, samples["ok"]):
        done, took = by_round.get(round_no, (0, 0.0))
        by_round[round_no] = (done + ok, took + s)
    throughput = [done / took for done, took in by_round.values()]
    lat = [s * 1000 for s in seconds]
    tail_ms, pct = tail(lat)
    return statistics.median(throughput), statistics.median(lat), tail_ms, pct


def end_to_end(samples: dict, setup: list[float], setup_refs, rss_kb: int) -> tuple[dict, list[str]]:
    scale = scale_factors(samples["ref_s"])
    scaled = [s * scale[k] for s, k in zip(samples["s"], samples["seg"])]
    ops, p50, tail_ms, pct = timings(samples, scaled)
    raw_ops, raw_p50, raw_tail, _ = timings(samples, samples["s"])
    metrics = {
        "ops_per_s": (ops, "ops/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup) * NOMINAL_REF_S / statistics.median(setup_refs), "s"),
    }
    failed = len(samples["failures"])
    rounds = len(set(samples["round"]))
    lat = samples["s"]
    refs = samples["ref_s"]
    notes = [
        f"ops_per_s is the median over {rounds} rounds of correct ops per"
        " second of timed wall time, scaled by the speed meter",
        f"latency_tail_ms is p{pct:.1f} of {len(lat)} samples",
        f"times are scaled to a reference task time of {NOMINAL_REF_S * 1000:g} ms;"
        f" it took {statistics.median(refs) * 1000:.3f} ms (median of {len(refs)},"
        f" quartiles {', '.join(f'{q * 1000:.3f}' for q in statistics.quantiles(refs, n=4)[::2])})",
        f"unscaled: ops_per_s = {raw_ops:.6g} ops/s, latency_p50_ms = {raw_p50:.6g} ms,"
        f" latency_tail_ms = {raw_tail:.6g} ms",
        f"setup_s is the median of {len(setup)} fresh processes, scaled by the"
        f" reference task's median time beside them ({statistics.median(setup_refs) * 1000:.3f} ms);"
        " unscaled: " + ", ".join(f"{s:.3f}" for s in setup),
        f"error_rate = {failed / len(lat):.4f} ratio ({failed} of {len(lat)} failed)",
    ]
    return metrics, notes


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tr: dict) -> dict:
    wall = tr["wall_s"]
    sums = tr["sums"]
    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (tr["spans"][layer], "count")
        m[f"{layer}.self_s"] = (tr["self_s"][layer], "s")
        m[f"{layer}.share"] = (ratio(tr["self_s"][layer], wall), "ratio")
    m["words.branch_scan_letters"] = (sums.get("branch_scan_letters", 0), "letters")
    m["patterns.teeth_built"] = (sums.get("teeth_built", 0), "teeth")
    m["spaces.teeth_examined"] = (sums.get("teeth_examined", 0), "teeth")
    m["spaces.teeth_useful_ratio"] = (
        ratio(sums.get("teeth_useful", 0), sums.get("teeth_examined", 0)), "ratio")
    m["spaces.value_calls"] = (tr["value_calls"], "count")
    m["spaces.horizon_max"] = (tr["horizon_max"], "teeth")
    m["dense_types.canonical_calls"] = (tr["canonical_calls"], "count")
    m["dense_types.permute_calls"] = (tr["permute_calls"], "count")
    m["dense_types.distinct_ratio"] = (
        ratio(sums.get("types_found", 0), tr["canonical_calls"]), "ratio")
    m["reductions.searches"] = (tr["searches"], "count")
    m["reductions.found_ratio"] = (ratio(sums.get("found", 0), tr["searches"]), "ratio")
    m["reductions.incidence_calls"] = (tr["incidence_calls"], "count")
    m["reductions.exhausted_s"] = (sums.get("exhausted_s", 0.0), "s")
    m["codec.bytes_out"] = (sums.get("bytes_out", 0), "bytes")
    exits = [r.get("exit") for r in tr["records"]]
    m["cli.exit_0"] = (exits.count(0), "count")
    m["cli.exit_3"] = (exits.count(3), "count")
    m["cli.exit_4"] = (exits.count(4), "count")
    m["cli.uncaught"] = (exits.count("uncaught"), "count")
    m["trace.overhead_ratio"] = (ratio(wall, tr["untraced_s"]), "ratio")
    return m


def cost_curve(records: list[dict]) -> list[str]:
    """Median operation time by input size, from the traced operations."""
    keys = ("kind", "P", "lcm", "space", "comb", "n", "m", "f", "f_m", "max_k", "subcommand")
    groups: dict = {}
    for r in records:
        key = tuple((k, r[k]) for k in keys if k in r)
        groups.setdefault(key, []).append(r["s"] * 1000)
    lines = []
    for key in sorted(groups, key=lambda k: [(n, isinstance(v, str), v) for n, v in k]):
        xs = groups[key]
        tag = " ".join(f"{k}={v}" for k, v in key)
        lines.append(f"  {tag}: {len(xs)} ops, median {statistics.median(xs):.3f} ms")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--known-faults", action="store_true",
                    help="add the known mishandled inputs to cli_requests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "madic" / "__init__.py").is_file():
        print("error: run from the repository root; src/madic is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seconds > 60:
        print("error: --seconds must be in (0, 60]", file=sys.stderr)
        return 2

    try:
        # Set-up is an end-to-end metric; the traced run does not report it.
        # The parent is idle while a probe starts, so the reference task
        # runs in it just before each probe.
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        meter = SpeedMeter()
        meter.warm_up()
        setup = []
        for _ in range(probes):
            meter.sample()
            setup.append(setup_probe(args))
        meter.sample()
        took, res = run_worker(args, [])
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(took)

    samples = res["samples"]
    warm_failed = [r for r in res["warm_up"] if not r["ok"]]
    failures = samples["failures"]
    attempted = len(samples["s"])
    if args.trace:
        traced = res["trace"]["records"]
        attempted += len(traced)
        failures = failures + [r for r in traced if not r["ok"]]
        metrics = per_layer(res["trace"])
        notes = [f"spans written to {res['trace']['file']}", "cost by input size:"]
        notes += cost_curve(traced)
    else:
        metrics, notes = end_to_end(samples, setup, meter.ref_s, res["peak_rss_kb"])

    print(f"workload {args.workload}, seed {args.seed}, closed loop, one client")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in notes:
        print(line)
    for r in (warm_failed + failures)[:20]:
        print(f"FAILED {r['kind']} {r.get('subcommand', '')}: {r['error']}")
    print(json.dumps({
        "correct": not failures and not warm_failed,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
