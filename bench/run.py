"""Benchmark of the sqlbench pipeline: prompt -> predict (replay) -> eval -> report.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 15 --trace 0

Run from a checkout: the program is imported from its src/ directory.
Each run

1. generates the workload from the seed in a separate process (generate.py),
   so the generator's memory is not counted, and checks it is deterministic;
2. builds every test suite the workload needs from an empty suite cache,
   several times, with `sqlbench suite` (set-up);
3. drives the real CLI in this process, single-threaded, through closed-loop
   passes (each stage starts when the one before it ends) until --seconds
   have passed, and checks every pass for correctness.

With --trace 0 it prints the end-to-end metrics; their times are scaled to
reference machine speed by calibration slices timed between stages
(speed.py), and the raw figures are printed next to them. With --trace 1 it
runs one untraced pass as the reference, wraps the public functions of each
sqlbench module (layers.py), and prints the per-layer metrics of the traced
passes; the spans go to .bench_out/<workload>.trace.jsonl. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

Only flags documented in the README are passed; the two settings the README
has no flag for (eval timeout, prompt token budget) go through its --config.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import METRICS, Probe, summarize
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-small", "suite-large", "prompt-wide")
SETUP_REPEATS = 3
SETUP_SLICES = 3  # speed slices before and after each set-up
STAGE_SLICES = 2  # speed slices before each stage of a pass
MIN_PASSES = 2
STAGES = ("prompt", "predict", "eval", "report")
IMPLIES = (("ts", "ex"), ("ex", "valid"))


def load_cli():
    """Import sqlbench.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sqlbench" / "cli.py").is_file():
        raise SystemExit(f"error: no sqlbench sources under {src}")
    sys.path.insert(0, str(src))
    import sqlbench.cli
    if Path(sqlbench.cli.__file__).resolve().parent != (src / "sqlbench").resolve():
        raise SystemExit(f"error: sqlbench was imported from {sqlbench.cli.__file__}")
    return sqlbench.cli


def call(cli, argv: list) -> tuple[int, float]:
    """Run one CLI command in this process; return its exit code and wall time."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([str(a) for a in argv])
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:  # a crashing stage fails its examples; the run goes on
        traceback.print_exc()
        code = 1
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"stage {argv[0]} exited {code}:\n{sink.getvalue()[-2000:]}", file=sys.stderr)
    return code, elapsed


def generate(workload: str, seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "generate.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: workload generation failed:\n{proc.stderr}")
    return json.loads((out / "workload.json").read_text())


def setup(cli, wl: dict, data: Path, cache: Path) -> float:
    """Build every suite the workload needs, from an empty cache."""
    shutil.rmtree(cache, ignore_errors=True)
    start = time.perf_counter()
    for db_id in wl["databases"]:
        code, _ = call(cli, ["suite", "--db", data / wl["db_root"] / db_id / f"{db_id}.sqlite",
                             "--suite-k", wl["suite_k"], "--suite-seed", 0, "--cache", cache])
        if code != 0:
            raise SystemExit(f"error: suite build failed for {db_id}")
    return time.perf_counter() - start


def read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def run_pass(cli, wl: dict, data: Path, cache: Path, out: Path, speed: Speedometer) -> dict:
    """Carry every prompt spec through prompt, predict and eval, then report on
    all, timing a speed slice before each stage and after the last."""
    first = speed.mark()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stage_s = dict.fromkeys(STAGES, 0.0)
    bench, db_root = data / wl["benchmark"], data / wl["db_root"]
    configs = {stage: ["--config", data / f] for stage, f in wl["configs"].items()}
    runs = []
    for spec in wl["specs"]:
        base = out / spec["name"]
        prompts = Path(f"{base}.prompts.jsonl")
        preds = Path(f"{base}.predictions.jsonl")
        outcomes = Path(f"{base}.outcomes.jsonl")
        shots = ["--shots", spec["shots"], "--train", data / wl["train"]] if spec["shots"] else []
        steps = [
            ("prompt", ["prompt", "--benchmark", bench, "--db-root", db_root,
                        "--prompt", spec["prompt"], *shots, *configs.get("prompt", []),
                        "--out", prompts]),
            ("predict", ["predict", "--prompts", prompts, "--backend", "replay",
                         "--replay-file", data / spec["replay"], "--out", preds]),
            ("eval", ["eval", "--benchmark", bench, "--db-root", db_root,
                      "--predictions", preds, "--suite-k", wl["suite_k"], "--suite-seed", 0,
                      "--cache", cache, *configs.get("eval", []), "--out", outcomes]),
        ]
        ok = True
        for stage, argv in steps:
            speed.sample(STAGE_SLICES)
            code, secs = call(cli, argv)
            stage_s[stage] += secs
            if code != 0:
                ok = False
                break
        runs.append({"spec": spec["name"], "ok": ok, "prompts": len(read_jsonl(prompts)),
                     "outcomes": read_jsonl(outcomes) if ok else []})
    report = out / "report.json"
    speed.sample(STAGE_SLICES)
    code, secs = call(cli, ["report", "metrics", "--runs",
                            *(f"{out / r['spec']}.outcomes.jsonl" for r in runs if r["ok"]),
                            "--format", "json", "--out", report])
    stage_s["report"] += secs
    speed.sample(STAGE_SLICES)
    rows = json.loads(report.read_text()) if code == 0 else None
    return {"stage_s": stage_s, "runs": runs, "report": rows, "factor": speed.factor(first)}


def check_pass(result: dict, labels: dict, n_examples: int) -> tuple[int, int, list[str], str]:
    """Correctness gate for one pass: (attempted, failed, problems, outcome digest).

    An example fails when it has no outcome, breaks TS => EX => VA, or
    contradicts the label planted by construction. The report must show
    TS <= EX <= VA on every row."""
    attempted = failed = 0
    problems = []
    digest = hashlib.sha256()
    for run in result["runs"]:
        expected = labels[run["spec"]]
        attempted += n_examples
        by_id = {o["example_id"]: o for o in run["outcomes"]}
        for example_id, label in expected.items():
            o = by_id.get(example_id)
            bad = None
            if o is None:
                bad = "no outcome"
            elif any(o[a] and not o[b] for a, b in IMPLIES):
                bad = f"breaks TS => EX => VA: {o}"
            else:
                wrong = [k for k in ("valid", "ex", "ts") if k in label and o[k] != label[k]]
                if wrong:
                    bad = f"{label['kind']} expected {wrong} = {[label[k] for k in wrong]}: {o}"
            if bad:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"{run['spec']}/{example_id}: {bad}")
        digest.update(run["spec"].encode())
        for o in run["outcomes"]:
            line = {k: v for k, v in o.items() if k != "timing_ms"}
            digest.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    rows = result["report"]
    if rows is None or len(rows) != sum(r["ok"] for r in result["runs"]):
        failed = attempted
        problems.append(f"report metrics failed or lost runs: {rows}")
    else:
        for row in rows:
            if not row["ts_pct"] <= row["ex_pct"] <= row["va_pct"]:
                failed += row["n_evaluated"]
                problems.append(f"report row breaks TS <= EX <= VA: {row}")
    return attempted, failed, problems, digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sqlbench pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_cli()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(cli, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(cli, args, work: Path) -> int:
    data, cache = work / "data", work / "cache"
    wl = generate(args.workload, args.seed, data)
    labels = json.loads((data / wl["labels"]).read_text())
    n_examples = wl["sizes"]["examples"]
    print(f"workload {args.workload} seed {args.seed}: content hash {wl['content_hash']}")
    print(f"sizes: {json.dumps(wl['sizes'])}")

    probe = Probe() if args.trace else None

    def phase(kind):
        return probe.phase(kind) if probe else contextlib.nullcontext()

    speed = Speedometer(work / "speed")
    setups = []  # (raw seconds, speed factor)
    for _ in range(SETUP_REPEATS):
        first = speed.mark()
        speed.sample(SETUP_SLICES)
        with phase("setup"):
            raw = setup(cli, wl, data, cache)
        speed.sample(SETUP_SLICES)
        setups.append((raw, speed.factor(first)))

    passes, checks = [], []
    reference = None
    if probe:  # the untraced reference pass for overhead and outcome digest
        reference = run_pass(cli, wl, data, cache, work / "pass", speed)
        checks.append(check_pass(reference, labels, n_examples))
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        with phase("pass"):
            result = run_pass(cli, wl, data, cache, work / "pass", speed)
        passes.append(result)
        checks.append(check_pass(result, labels, n_examples))

    attempted = sum(c[0] for c in checks)
    failed = sum(c[1] for c in checks)
    digests = {c[3] for c in checks}
    problems = [p for c in checks for p in c[2]]
    if len(digests) > 1:
        problems.append(f"outcome digest differs between passes: {sorted(digests)}")
    eps = [sum(len(r["outcomes"]) for r in p["runs"]) / sum(p["stage_s"].values())
           for p in passes]
    factors = [p["factor"] for p in passes]

    if probe:
        if probe.missing:
            print(f"warning: not traced, not found: {sorted(probe.missing)}", file=sys.stderr)
        metrics, unstable = summarize(probe, [sum(r["prompts"] for r in p["runs"])
                                              for p in passes], wl["sizes"]["source_rows"])
        if unstable:
            problems.append(f"counts differ between passes: {unstable}")
        ref_eps = (sum(len(r["outcomes"]) for r in reference["runs"])
                   / sum(reference["stage_s"].values()))
        metrics["bench.examples_per_s_traced"] = statistics.median(eps)
        metrics["bench.trace_overhead"] = ref_eps / statistics.median(eps)
        metrics["bench.machine_speed"] = statistics.median(factors)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        probe.tracer.write(out_dir / f"{args.workload}.trace.jsonl")
        units = {name: unit for name, unit, _, _ in METRICS}
        result_metrics = {name: {"value": metrics.get(name, 0.0), "unit": units[name]}
                          for name in units}
        print(f"traced passes: {len(passes)}, untraced reference examples_per_s "
              f"{ref_eps:.2f}, traced {statistics.median(eps):.2f}")
    else:
        # end-to-end times at reference speed: raw time x the pass's speed factor
        latencies = sorted(o["timing_ms"] * p["factor"]
                           for p in passes for r in p["runs"] for o in r["outcomes"])
        raw_latencies = [o["timing_ms"] for p in passes for r in p["runs"] for o in r["outcomes"]]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n = len(latencies)
        values = {
            "setup_s": (statistics.median(raw * f for raw, f in setups), "s",
                        f"median of {len(setups)} cold builds; raw "
                        f"{[round(raw, 3) for raw, _ in setups]} s at speed "
                        f"{[round(f, 3) for _, f in setups]}"),
            "examples_per_s": (statistics.median(e / f for e, f in zip(eps, factors)), "1/s",
                               f"median of {len(passes)} passes of "
                               f"{sum(len(r['outcomes']) for r in passes[0]['runs'])} examples; "
                               f"raw {[round(e, 2) for e in eps]} at speed "
                               f"{[round(f, 3) for f in factors]}"),
            "eval_p50_ms": (statistics.median(latencies), "ms",
                            f"n={n}; raw {statistics.median(raw_latencies):.4g} ms"),
            "eval_p90_ms": (statistics.quantiles(latencies, n=10)[-1], "ms",
                            f"n={n}, {n // 10} beyond it; raw "
                            f"{statistics.quantiles(raw_latencies, n=10)[-1]:.4g} ms"),
            "peak_rss_mb": (rss_mb, "MB", "peak RSS of this process; generator excluded"),
        }
        for name, (value, unit, note) in values.items():
            print(f"{name} = {value:.6g} {unit} ({note})")
        result_metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in values.items()}
    for name, secs in passes[-1]["stage_s"].items():
        print(f"stage {name}: {secs:.3f} s (last pass)")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"outcome digest: {' '.join(sorted(digests))}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
