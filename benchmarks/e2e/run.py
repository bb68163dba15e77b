"""The end-to-end benchmark of record (see README.md beside this file).

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed 7]
        [--rounds 7 | --seconds S] [--segment-s 5] [--trace 0|1]
    python3 benchmarks/e2e/run.py --compare A B | --baseline DIR

A run is ``rounds`` rounds; a round runs each selected workload once, in
a fresh process (``e2e_round.py``), order reversed on odd rounds, so a
slow minute of the host touches a minority of every workload's rounds.
Each timing is converted, by the reference-loop reading taken beside it,
to the speed recorded in ``baseline.json``, and the run's value of a
metric is the median over rounds.  Every metric is printed as
``<workload>/<metric> <value> <unit>``; the last line is one JSON object
for the driver; the exit code is non-zero on a wrong answer or a failed
path proof.  ``--seconds`` is the measured time per workload: it sets the
number of rounds at ``--segment-s`` seconds each.  ``--trace 1`` runs the
traced pass and the layer probes instead and prints the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import e2e_compare
from e2e_compare import quartiles, spread
from e2e_ref import at_reference, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

ROUNDS, SEGMENT_S, SETUP_CYCLES, SEED = 7, 5.0, 9, 7
ROUND_TIMEOUT_S = 150


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(args: list[str]) -> dict:
    """Run ``e2e_round.py`` in a fresh process; returns its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, str(HERE / "e2e_round.py"), *args], env=env,
        stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"round {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_info() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "commit": commit}


def rescale(record: dict, reference: dict) -> dict:
    """One round's end-to-end metrics at reference speed."""
    phases = reference[record["workload"]]
    latency_ms = at_reference(record["latencies_ms"], record["local_ref_ms"],
                              phases["segment"], record["timer_ms"])
    setup_ms = at_reference(np.asarray(record["setup_cycles_s"]) * 1e3,
                            record["setup_ref_ms"], phases["setup"])
    # A closed loop's rate is per second of client busy time; the open
    # loop runs at a fixed rate, so its served rate is reported as it was.
    busy_s = (float(latency_ms.sum()) / 1e3 if record["loop"] == "closed"
              else record["elapsed_s"])
    return {
        "request_p50_ms": float(np.percentile(latency_ms, 50)),
        "request_tail_ms": float(np.percentile(latency_ms,
                                               record["tail_percentile"])),
        "throughput_per_s": (record["attempted"] - record["failed"]) / busy_s,
        "setup_s": float(np.median(setup_ms)) / 1e3,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def summarise(records: list[dict], reference: dict) -> dict:
    """Median over rounds of every end-to-end metric of one workload."""
    scaled = [rescale(r, reference) for r in records]
    refs = [memory for r in records for _, memory in r["local_ref_ms"]]
    failures = [f"round {r['round']}: {name}" for r in records
                for name, ok in {**r["checks"], **r["proofs"]}.items()
                if not ok]
    return {
        "metrics": {name: statistics.median(s[name] for s in scaled)
                    for name in scaled[0]},
        "quartiles": {name: quartiles([s[name] for s in scaled])
                      for name in scaled[0]},
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "samples_per_round": [len(r["latencies_ms"]) for r in records],
        "tail_percentile": records[0]["tail_percentile"],
        "ref_kind": records[0]["ref_kind"],
        "ref_ms": statistics.median(refs),
        "ref_spread": spread(refs),
        "failures": failures,
        "rounds": records,
    }


def finish(spec_metrics: list[dict], per_workload: dict, correct: bool,
           attempted: int, failed: int) -> int:
    """Print every metric by name with its unit, then the driver's line."""
    units = {m["name"]: m["unit"] for m in spec_metrics}
    out = {}
    for workload, values in per_workload.items():
        if set(values) != set(units):
            raise SystemExit(
                f"{workload}: metrics differ from BENCHMARK.json: "
                f"{sorted(set(values) ^ set(units))}")
        for name in units:
            print(f"{workload}/{name} {values[name]!r} {units[name]}")
            key = name if len(per_workload) == 1 else f"{workload}/{name}"
            out[key] = {"value": values[name], "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def run_end_to_end(args, spec, workloads) -> int:
    reference = load_reference()
    records: dict[str, list] = {w: [] for w in workloads}
    for rnd in range(args.rounds):
        for workload in (workloads if rnd % 2 == 0 else workloads[::-1]):
            child = ["--workload", workload, "--seed", str(args.seed),
                     "--round", str(rnd), "--segment-s", str(args.segment_s),
                     "--setup-cycles", str(args.setup_cycles),
                     "--shape", args.shape]
            if args.inject_wrong_answer:
                child.append("--inject-wrong-answer")
            records[workload].append(run_child(child))
    summary = {w: summarise(records[w], reference) for w in workloads}
    for workload, s in summary.items():
        print(f"{workload}: attempted {s['attempted']} succeeded "
              f"{s['attempted'] - s['failed']} failed {s['failed']}; "
              f"p{s['tail_percentile']} tail over {s['samples_per_round']} "
              f"samples per round; {s['ref_kind']} memory loop "
              f"{s['ref_ms']:.3f} ms (spread {s['ref_spread']:.3f})")
        for failure in s["failures"]:
            print(f"{workload}: FAILED {failure}")
    name = f"result-{workloads[0]}.json" if len(workloads) == 1 else "result.json"
    write_json(args.out / name, {
        "host": {**host_info(), "numpy": records[workloads[0]][0]["numpy"]},
        "seed": args.seed, "rounds": args.rounds, "segment_s": args.segment_s,
        "setup_cycles": args.setup_cycles, "shape": args.shape,
        "reference": reference, "workloads": summary,
    })
    return finish(
        spec["end_to_end"], {w: s["metrics"] for w, s in summary.items()},
        correct=not any(s["failures"] for s in summary.values()),
        attempted=sum(s["attempted"] for s in summary.values()),
        failed=sum(s["failed"] for s in summary.values()),
    )


def run_traced(args, spec, workloads) -> int:
    per_workload, correct, attempted, failed = {}, True, 0, 0
    for workload in workloads:
        record = run_child(["--workload", workload, "--seed", str(args.seed),
                            "--segment-s", str(args.seconds or args.segment_s),
                            "--shape", args.shape, "--traced"])
        write_json(args.out / f"trace-{workload}.json", record)
        for line in record["stage_table"]:
            print(f"{workload}: {line}")
        for name, ok in record["checks"].items():
            if not ok:
                correct = False
                print(f"{workload}: FAILED {name}")
        per_workload[workload] = record["per_layer"]
        attempted += record["attempted"]
        failed += record["failed"]
    return finish(spec["per_layer"], per_workload, correct, attempted, failed)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all four, interleaved")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--segment-s", type=float, default=SEGMENT_S)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload (sets --rounds)")
    parser.add_argument("--setup-cycles", type=int, default=SETUP_CYCLES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("base", "tiny"), default="base",
                        help="'tiny' is the tier-1 smoke's size")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt one answer: the command must fail")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path,
                        help="two result files or directories of them")
    parser.add_argument("--baseline", metavar="DIR", type=Path,
                        help="re-record baseline.json from the runs under DIR")
    args = parser.parse_args(argv)
    if args.compare:
        return e2e_compare.compare(spec, *args.compare)
    if args.baseline:
        return e2e_compare.record_baseline(
            spec, args.baseline, HERE / "baseline.json", rescale)
    if args.seconds is not None:
        args.segment_s = min(args.segment_s, args.seconds)
        args.rounds = max(1, round(args.seconds / args.segment_s))
    workloads = args.workload or names
    started = time.perf_counter()
    run = run_traced if args.trace else run_end_to_end
    code = run(args, spec, workloads)
    print(f"wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
