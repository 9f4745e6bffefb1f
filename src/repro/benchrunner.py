"""Machine-readable perf trajectory: run the kernel benches, write
``BENCH_<sha>.json``.

Each entry records median ns per kernel plus end-to-end throughput
sections (attack stepping, compiled replay, sweeps, train steps,
distill epochs, edge inference, served mixed workloads) so successive
PRs can be compared mechanically::

    make bench                    # or: repro-bench / python benchmarks/run_bench.py
    cat BENCH_ab12cd3.json

``docs/BENCHMARKS.md`` documents the full schema, the two measurement
protocols (subprocess-isolated vs in-process arms) and how to compare
entries across PRs honestly (absolute medians, not just ratios).

Only the self-contained benches run by default (the pipeline-backed
edge-engine benches train paper-scale models on first use; pass
``--all`` to include them).  Attack workloads are benchmarked in
float32 — the deployment dtype — via the bench suite's session fixture.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

#: benches that need no trained pipeline; keep in sync with bench_kernels.py
FAST_BENCH_FILTER = ("conv2d or fake_quant or compiled_replay "
                     "or eager_forward or attack_step or attack_sweep "
                     "or train_step or distill_epoch "
                     "or edge_infer or serve_throughput "
                     "or float_coalesce or rowrep_gemm or net_serving")


def repo_root() -> Path:
    """Repo root: the directory holding ``benchmarks/`` (cwd-based with a
    fallback to the source checkout this module lives in)."""
    for cand in (Path.cwd(), Path(__file__).resolve().parents[2]):
        if (cand / "benchmarks" / "bench_kernels.py").is_file():
            return cand
    raise SystemExit("cannot locate benchmarks/bench_kernels.py; "
                     "run from the repository root")


def git_sha(root: Path) -> str:
    """Short HEAD sha, with ``-dirty`` when the working tree differs —
    a trajectory entry must not be attributed to a commit whose tree
    was not the code measured."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=root, capture_output=True, text=True, timeout=10)
        sha = out.stdout.strip()
        if out.returncode != 0 or not sha:
            return "nosha"
        # tracked files only, matching `git describe --dirty` semantics
        status = subprocess.run(["git", "status", "--porcelain", "-uno"],
                                cwd=root, capture_output=True, text=True,
                                timeout=10)
        if status.returncode == 0 and status.stdout.strip():
            sha += "-dirty"
        return sha
    except Exception:
        return "nosha"


def run_benches(root: Path, select: Optional[str], json_path: Path,
                extra_args: Optional[list] = None) -> int:
    cmd = [sys.executable, "-m", "pytest", "benchmarks/bench_kernels.py",
           "--benchmark-only", "-q", "--benchmark-json", str(json_path)]
    if select:
        cmd += ["-k", select]
    if extra_args:
        cmd += extra_args
    return subprocess.run(cmd, cwd=root).returncode


def summarize(raw: dict, sha: str) -> dict:
    """Reduce the pytest-benchmark JSON to the trajectory schema."""
    kernels = {}
    attack = {}
    replay = {}
    sweep = {}
    train = {}
    distill = {}
    edge = {}
    serve = {}
    float_coalesce = {}
    rowrep_gemm = {}
    net_serving = {}
    for bench in raw.get("benchmarks", []):
        name = bench["name"].split("[")[0].removeprefix("test_")
        if "[" in bench["name"]:        # parametrized: keep the variant tag
            name += ":" + bench["name"].split("[", 1)[1].rstrip("]")
        median_ns = bench["stats"]["median"] * 1e9
        kernels[name] = median_ns
        extra = bench.get("extra_info") or {}
        if "diva_steps_per_sec" in extra:
            attack = {
                "diva_steps_per_sec": extra["diva_steps_per_sec"],
                "pgd_steps_per_sec": extra["pgd_steps_per_sec"],
                "diva_step_ns": extra["diva_step_ns"],
                "lane_steps": extra.get("lane_steps", 0),
                "planned_mib": extra.get("planned_mib", 0),
                "unplanned_mib": extra.get("unplanned_mib", 0),
            }
        if "sweep_speedup" in extra:
            sweep = {
                "grid_points": extra["grid_points"],
                "sweep_ms": extra["sweep_ms"],
                "sequential_ms": extra["sequential_ms"],
                "speedup": extra["sweep_speedup"],
            }
        if "train_step_speedup" in extra:
            train[extra["model"]] = {
                "eager_step_ms": extra["eager_step_ms"],
                "compiled_step_ms": extra["compiled_step_ms"],
                "speedup": extra["train_step_speedup"],
                "batch": extra["batch"],
            }
        if "distill_epoch_speedup" in extra:
            distill = {
                "eager_epoch_ms": extra["eager_epoch_ms"],
                "compiled_epoch_ms": extra["compiled_epoch_ms"],
                "speedup": extra["distill_epoch_speedup"],
                "images": extra["images"],
            }
        if "serve_throughput_speedup" in extra:
            serve = {
                "jobs": extra["serve_jobs"],
                "rows": extra["serve_rows"],
                "sequential_ms": extra["serve_sequential_ms"],
                "serve_ms": extra["serve_ms"],
                "speedup": extra["serve_throughput_speedup"],
                "dispatches": extra["serve_dispatches"],
                "coalesced_dispatches": extra["serve_coalesced"],
            }
        if "float_coalesce_speedup" in extra:
            float_coalesce = {
                "jobs": extra["float_jobs"],
                "rows": extra["float_rows"],
                "sequential_ms": extra["float_sequential_ms"],
                "coalesced_ms": extra["float_coalesced_ms"],
                "integer_reference_ms": extra["float_integer_ms"],
                "speedup": extra["float_coalesce_speedup"],
            }
        if "net_boundary_overhead_pct" in extra:
            net_serving = {
                "jobs": extra["net_jobs"],
                "rows": extra["net_rows"],
                "inproc_ms": extra["net_inproc_ms"],
                "loopback_ms": extra["net_loopback_ms"],
                "boundary_overhead_pct": extra["net_boundary_overhead_pct"],
                "chaos_retried": extra["net_chaos_retried"],
                "chaos_deduped": extra["net_chaos_deduped"],
                "chaos_ok": extra["net_chaos_ok"],
            }
        if "rowrep_overhead_pct" in extra:
            rowrep_gemm = {
                "rows": extra["rowrep_rows"],
                "raw_ns": extra["rowrep_raw_ns"],
                "rr_ns": extra["rowrep_rr_ns"],
                "overhead_pct": extra["rowrep_overhead_pct"],
            }
        if "edge_infer_speedup" in extra:
            edge = {
                "model": extra["model"],
                "eager_ms": extra["edge_eager_ms"],
                "compiled_ms": extra["edge_compiled_ms"],
                "speedup": extra["edge_infer_speedup"],
                "batch": extra["batch"],
            }
    eager = kernels.get("eager_forward_reference")
    compiled = kernels.get("compiled_replay_vs_eager_forward")
    if eager and compiled:
        replay = {
            "eager_forward_ns": eager,
            "compiled_replay_ns": compiled,
            "speedup": eager / compiled,
        }
    return {
        "sha": sha,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "dtype": "float32",
        "kernels_median_ns": kernels,
        "attack": attack,
        "compiled_replay": replay,
        "sweep_vs_sequential": sweep,
        "train_step": train,
        "distill_epoch": distill,
        "edge_infer": edge,
        "serve_throughput": serve,
        "float_coalesce": float_coalesce,
        "rowrep_gemm": rowrep_gemm,
        "net_serving": net_serving,
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="run the kernel benches and write BENCH_<sha>.json")
    parser.add_argument("--all", action="store_true",
                        help="include the pipeline-backed benches "
                             "(trains paper-scale models on first use)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: BENCH_<sha>.json in the "
                             "repo root)")
    args, passthrough = parser.parse_known_args(argv)

    root = repo_root()
    sha = git_sha(root)
    with tempfile.TemporaryDirectory() as td:
        json_path = Path(td) / "bench.json"
        rc = run_benches(root, None if args.all else FAST_BENCH_FILTER,
                         json_path, passthrough)
        if rc != 0:
            return rc
        raw = json.loads(json_path.read_text())
    summary = summarize(raw, sha)
    out = args.out or (root / f"BENCH_{sha}.json")
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if summary["attack"]:
        print(f"  DIVA {summary['attack']['diva_steps_per_sec']:.1f} steps/s, "
              f"PGD {summary['attack']['pgd_steps_per_sec']:.1f} steps/s")
    if summary["compiled_replay"]:
        print(f"  compiled replay {summary['compiled_replay']['speedup']:.2f}x "
              "vs eager forward")
    if summary["sweep_vs_sequential"]:
        s = summary["sweep_vs_sequential"]
        print(f"  {s['grid_points']}-point sweep {s['speedup']:.2f}x vs "
              "sequential per-config attacks")
    for model, t in summary["train_step"].items():
        print(f"  {model} train step {t['speedup']:.2f}x compiled vs eager "
              f"({t['eager_step_ms']:.1f} -> {t['compiled_step_ms']:.1f} ms)")
    if summary["distill_epoch"]:
        d = summary["distill_epoch"]
        print(f"  distill epoch {d['speedup']:.2f}x compiled vs eager")
    if summary["edge_infer"]:
        e = summary["edge_infer"]
        print(f"  edge inference ({e['model']} int8, batch {e['batch']}) "
              f"{e['speedup']:.2f}x compiled vs eager "
              f"({e['eager_ms']:.1f} -> {e['compiled_ms']:.1f} ms)")
    if summary["serve_throughput"]:
        s = summary["serve_throughput"]
        print(f"  serve throughput ({s['jobs']} mixed jobs, {s['rows']} "
              f"rows) {s['speedup']:.2f}x coalesced vs sequential "
              f"({s['sequential_ms']:.1f} -> {s['serve_ms']:.1f} ms)")
    if summary["float_coalesce"]:
        f = summary["float_coalesce"]
        print(f"  float coalescing ({f['jobs']} predict jobs, {f['rows']} "
              f"rows) {f['speedup']:.2f}x vs sequential "
              f"({f['sequential_ms']:.1f} -> {f['coalesced_ms']:.1f} ms; "
              f"int8 reference {f['integer_reference_ms']:.1f} ms)")
    if summary["rowrep_gemm"]:
        r = summary["rowrep_gemm"]
        print(f"  row-reproducible GEMM overhead "
              f"{r['overhead_pct']:+.1f}% vs raw BLAS "
              f"({r['rows']} rows, full blocks)")
    if summary["net_serving"]:
        n = summary["net_serving"]
        print(f"  net serving boundary {n['boundary_overhead_pct']:+.1f}% "
              f"vs in-process ({n['inproc_ms']:.1f} -> "
              f"{n['loopback_ms']:.1f} ms, {n['jobs']} jobs; chaos "
              f"{n['chaos_retried']} retried / {n['chaos_deduped']} deduped, "
              f"all {n['chaos_ok']} ok bit-identical)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
