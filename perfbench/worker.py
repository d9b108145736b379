"""One benchmark process: set up, then measure one workload.

Run by run.py, never by hand.  It prints `ready` once madic is imported,
the first round's inputs exist and the warm-up is done -- the parent times
set-up up to that line -- and, unless --setup-only, one JSON line with the
measured samples and the speed meter's reference timings at the end.

With --trace 1 the same rounds are run twice: untraced, then traced with
the layer wrappers installed, so the trace overhead is the ratio of the two
over identical operations.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)
from speed import SpeedMeter  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT_DIR = ROOT / ".bench_out"


def make_workload(name: str, seed: int, known_faults: bool):
    if name == "certify":
        return workloads.Certify(seed)
    if name == "catalogue":
        return workloads.Catalogue(seed)
    if name == "cli_requests":
        workdir = OUT_DIR / f"cli-{seed}-{os.getpid()}"
        return workloads.CliRequests(seed, workdir, known_faults)
    raise SystemExit(f"unknown workload {name!r}")


def run_op(op, op_id: int, tracer: Tracer | None = None) -> dict:
    """Time one operation, then check it outside the timed region."""
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = perf_counter()
    try:
        result = op.run()
        error = None
    except Exception as exc:  # every escape is a failed operation
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    if error is None:
        error = op.check(result)
    rec = {"id": op_id, "kind": op.kind, "s": dt, "ok": error is None, **op.tags}
    if error is not None:
        rec["error"] = error
    if op.kind == "request":
        rec["exit"] = result[0] if isinstance(result, tuple) else "uncaught"
    return rec


class Samples:
    """Untraced results as columns -- round, seconds, ok, speed-meter
    segment -- plus the full record of each failure, so that the process's
    peak memory, a reported metric, hardly grows with the number of
    operations.  After each operation the meter takes a reference sample
    when one is due."""

    def __init__(self, meter: SpeedMeter) -> None:
        self.meter = meter
        self.round = array("i")
        self.s = array("d")
        self.ok = array("b")
        self.seg = array("i")
        self.failures: list[dict] = []

    def add(self, round_no: int, rec: dict) -> None:
        self.round.append(round_no)
        self.s.append(rec["s"])
        self.ok.append(rec["ok"])
        self.seg.append(self.meter.segment)
        if not rec["ok"]:
            self.failures.append(rec)
        self.meter.tick()

    def to_json(self) -> dict:
        cols = {k: list(getattr(self, k)) for k in ("round", "s", "ok", "seg")}
        return {**cols, "ref_s": list(self.meter.ref_s), "failures": self.failures}


def measure(wl, rounds, seconds: float, sink, tracer=None) -> list[int]:
    """Run whole rounds, numbered from 0, until `seconds` of wall time pass;
    with `rounds` given, run exactly those instead.  Each operation's record
    goes to sink(round, record); returns the rounds run."""
    done = []
    ids = itertools.count()
    start = perf_counter()
    numbers = iter(rounds) if rounds is not None else itertools.count()
    for round_no in numbers:
        for op in wl.round(round_no):
            sink(round_no, run_op(op, next(ids), tracer))
        done.append(round_no)
        if rounds is None and perf_counter() - start >= seconds:
            break
    return done


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--known-faults", action="store_true")
    args = ap.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    wl = make_workload(args.workload, args.seed, args.known_faults)
    try:
        wl.round(0)  # the first round's inputs are part of set-up
        warm = [run_op(op, -1) for op in wl.warm_up()]
        print("ready", flush=True)
        if args.setup_only:
            return 0

        seconds = args.seconds / 2 if args.trace else args.seconds
        meter = SpeedMeter()
        meter.warm_up()
        samples = Samples(meter)
        rounds = measure(wl, None, seconds, samples.add)
        meter.sample()  # closes the last segment
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out = {"warm_up": warm, "samples": samples.to_json(), "peak_rss_kb": peak_rss_kb}
        if args.trace:
            out["trace"] = traced(wl, rounds, sum(samples.s), args)
    finally:
        wl.close()
    print(json.dumps(out), flush=True)
    return 0


def traced(wl, rounds, untraced_s: float, args) -> dict:
    """Replay the untraced rounds with the layer wrappers installed."""
    records: list[dict] = []
    tracer = Tracer()
    tracer.install()
    try:
        measure(wl, rounds, 0, lambda r, rec: records.append({**rec, "round": r}), tracer)
    finally:
        tracer.uninstall()
    wall = sum(r["s"] for r in records)
    self_s, spans = tracer.layer_self_times()
    path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(path, records)
    return {
        "records": records,
        "wall_s": wall,
        "untraced_s": untraced_s,
        "self_s": dict(zip(tracer.layer_names, self_s)),
        "spans": dict(zip(tracer.layer_names, spans)),
        "sums": dict(tracer.sums),
        "horizon_max": tracer.horizon_max,
        "value_calls": tracer.calls_of("spaces.partition_value")
        + tracer.calls_of("spaces.scattered_value"),
        "canonical_calls": tracer.calls_of("dense_types.canonical_form"),
        "permute_calls": tracer.calls_of("dense_types.permute_type"),
        "searches": tracer.calls_of("reductions.search_reduction"),
        "incidence_calls": tracer.cross_calls("reductions", "words.incidence"),
        "file": str(path.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())
