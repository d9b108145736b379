"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Run from the repository root.  It checks that:
  * each workload, run briefly with --trace 0 and --trace 1, prints every
    metric BENCHMARK.json names, with its unit, and a correct result;
  * a deliberately wrong answer from each kind of operation is counted as
    a failed operation;
  * the known mishandled cli inputs count as failures (--known-faults);
  * the speed meter's scale is 1 at the nominal reference speed and
    halves an operation's time when the host runs at half speed;
  * run.py exits non-zero, printing no result, where madic is absent.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from worker import OUT_DIR, run_op  # noqa: E402


def bench(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def check_metrics(spec: dict) -> None:
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = bench("--workload", wl, "--seed", "7", "--seconds", "1", "--trace", trace)
            assert proc.returncode == 0, f"{wl} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, f"{wl}: {proc.stdout[-2000:]}"
            want = {m["name"]: m["unit"] for m in names}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{wl} trace {trace}: metrics {sorted(got)} != {sorted(want)}"
            for name, unit in want.items():
                assert f"{name} = " in proc.stdout and unit in proc.stdout
            print(f"ok   {wl} --trace {trace}: {len(want)} metrics, {result['attempted']} ops")


def wrong(op, corrupt) -> dict:
    """Run an operation whose answer is replaced by a corrupted one."""
    run = op.run
    return run_op(dataclasses.replace(op, run=lambda: corrupt(run())), 0)


def flip_first_limit(result):
    reports, descs = result
    first = dataclasses.replace(reports[0], limit_value=1 - reports[0].limit_value)
    return [first] + list(reports[1:]), descs


def drop_a_type(result):
    types, out = result
    return types[:-1], out


def swap_letter_words(found):
    e = found.e
    return dataclasses.replace(found, e=(e[1], e[0]) + e[2:])


def check_wrong_answers() -> None:
    rng = workloads.random.Random(3)
    cases = [
        ("certify", workloads.certify_op(rng, 6, "partition3", "split", (1,)), flip_first_limit),
    ]
    cat = workloads.Catalogue(0)
    cases.append(("enumerate", cat.enumerate_op(3), drop_a_type))
    # f = g restricted to two colours on two letters: the witness's two
    # letter words realise f(0,1) and f(1,0) differently, so swapping them
    # must break f = g o eps.
    g = workloads.M.spaces.PartitionTable(2, ((0, 1), (2, 2)))
    f = workloads.M.spaces.PartitionTable(2, ((0, 1), (2, 2)))
    search = workloads.Op(
        "search", {}, lambda: workloads.M.reductions.search_reduction(f, g, 2),
        lambda r: workloads.oracles.check_witness(f.values, g.values, r),
    )
    cases.append(("search", search, swap_letter_words))
    cli = workloads.CliRequests(0, OUT_DIR / "selftest-cli")
    try:
        for k, (shape, _) in enumerate(cli.ROUND):
            shape = cli.MALFORMED[0] if shape == "malformed" else shape
            op = cli.request(rng, shape, k)
            cases.append((shape, op, lambda r: (r[0], r[1] + " ", r[2])))
            cases.append((shape + " exit", op, lambda r: (r[0] + 1, r[1], r[2])))
        for k, (label, op, corrupt) in enumerate(cases):
            honest = run_op(op, 0)
            assert honest["ok"], f"{label}: honest answer rejected: {honest.get('error')}"
            rec = wrong(op, corrupt)
            assert not rec["ok"], f"{label}: a wrong answer was accepted"
        print(f"ok   {len(cases)} wrong answers counted as failures")
        for k, shape in enumerate(cli.KNOWN_FAULTS):
            rec = run_op(cli.request(rng, shape, 200 + k), 0)
            assert not rec["ok"], f"known fault {shape} passed its check"
            print(f"ok   known fault {shape} fails: {rec['error']}")
    finally:
        cli.close()
    proc = bench("--workload", "cli_requests", "--seed", "1", "--seconds", "1", "--known-faults")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] > 0 and not result["correct"], result
    print(f"ok   --known-faults: {result['failed']} of {result['attempted']} failed")


def check_speed_scale() -> None:
    nominal = speed.NOMINAL_REF_S
    assert speed.scale_factors([nominal] * 4) == [1.0] * 4
    # One noisy sample does not move the smoothed scale.
    assert speed.scale_factors([2 * nominal, 9 * nominal] + [2 * nominal] * 4)[1] == 0.5
    print("ok   speed meter scale")


def check_without_madic() -> None:
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0 and "{" not in proc.stdout, proc.stdout
        print(f"ok   without madic: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    check_speed_scale()
    check_wrong_answers()
    check_without_madic()
    check_metrics(spec)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
