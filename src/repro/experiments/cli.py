"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    repro-exp table1                 # Table 1 at paper-scale config
    repro-exp fig6 --smoke           # Fig 6 at the tiny test scale
    repro-exp all                    # the full grid (minutes on CPU)
    repro-exp serve --smoke          # replay a recorded mixed workload
                                     # through the serving layer and
                                     # verify bit-parity vs sequential
    repro-exp serve --net --smoke    # same workload through the full
                                     # socket boundary (loopback server
                                     # + retrying client), bit-parity
    repro-exp serve --listen 7433    # standalone server (SIGTERM drains)
    repro-exp serve --connect HOST:PORT --smoke   # drive a remote server
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from typing import Callable, Dict

from ..nn import set_default_dtype
from .config import ExperimentConfig
from .pipeline import Pipeline


def _registry() -> Dict[str, Callable]:
    from . import (exp_ablations, exp_distilled, exp_dssim, exp_fig1,
                   exp_fig2, exp_fig4, exp_fig6, exp_fig7, exp_fig8,
                   exp_fig10, exp_sec54, exp_sec55, exp_table1, exp_table2,
                   exp_targeted)
    return {
        "table1": exp_table1.run,
        "fig1": exp_fig1.run,
        "fig2": exp_fig2.run,
        "fig4": exp_fig4.run,
        "fig6": exp_fig6.run,
        "fig6d": exp_fig6.run_steps,
        "table2": exp_table2.run,
        "fig7": exp_fig7.run,
        "dssim": exp_dssim.run,
        "sec54": exp_sec54.run,
        "sec55": exp_sec55.run,
        "fig8": exp_fig8.run,
        "fig10": exp_fig10.run,
        "targeted": exp_targeted.run,
        "ablation-bits": exp_ablations.run_bits,
        "ablation-eps": exp_ablations.run_eps,
        "ablation-keep-best": exp_ablations.run_keep_best,
        "ablation-per-channel": exp_ablations.run_per_channel,
        "distilled": exp_distilled.run,
    }


def _net_breakdown(counts, shed, retried, deduped) -> str:
    """The per-outcome line every networked mode prints: how each job
    ended, plus how hard the wire had to work to get there."""
    return (f"ok={counts.get('ok', 0)} failed={counts.get('failed', 0)} "
            f"rejected={counts.get('rejected', 0)} shed={shed} "
            f"deadline-degraded={counts.get('deadline-degraded', 0)} "
            f"retried={retried} deduped={deduped}")


def _serve_listen(args, spec) -> int:
    """Standalone server: bind, print the port, serve until a shutdown
    op or SIGINT/SIGTERM — both of which drain gracefully (accepted
    jobs finish and flush; new submits are refused with a structured
    ``rejected``)."""
    from ..serve import ServeSession
    from ..serve.net import ServeServer

    session = ServeSession(capacity=args.capacity,
                           default_deadline_s=(args.deadline_ms / 1e3
                                               if args.deadline_ms else None))
    server = ServeServer(session, spec=spec, port=args.listen,
                         journal_path=args.journal)
    if server.recovered_completed or server.recovered_incomplete:
        print(f"  recovered  {server.recovered_completed} completed, "
              f"{server.recovered_incomplete} interrupted (resubmitted) "
              f"from {args.journal}")

    def _drain_signal(signum, frame):
        print(f"\n[signal {signum}: draining before shutdown]")
        server._shutdown_requested = True

    signal.signal(signal.SIGINT, _drain_signal)
    signal.signal(signal.SIGTERM, _drain_signal)
    print(f"=== serve: listening on {server.host}:{server.port} "
          f"(workload spec {spec['name']}, journal "
          f"{args.journal or 'off'}) ===", flush=True)
    server.serve_forever()
    stats = server.stats
    print(f"  served     accepted={stats['accepted']} "
          f"deduped={stats['deduped']} "
          f"rejected-draining={stats['rejected_draining']}")
    counts = stats["outcome_counts"]
    print(f"  outcomes   {_net_breakdown(counts, 0, 0, stats['deduped'])}")
    return 0


def _serve_connect(args, spec) -> int:
    """Client mode: materialize the workload locally, replay it through
    a remote server at ``--rate``x the recorded arrivals, hold every job
    to the replay oracle (:func:`~repro.serve.workload.check_replay`:
    ``ok`` results byte-identical to the in-process solo run, degraded
    ones shaped like it, failures structured), and print the
    per-outcome breakdown."""
    from ..serve import ServeError, build_workload
    from ..serve.net import ServeClient, replay_net
    from ..serve.workload import check_replay, replay_sequential

    host, _, port = args.connect.rpartition(":")
    workload = build_workload(spec)
    client = ServeClient(host or "127.0.0.1", int(port),
                         attempt_timeout_s=5.0, retry_seed=args.seed)
    try:
        if not client.health():
            print("  server unhealthy", file=sys.stderr)
            return 1
        out = replay_net(workload, client, rate=args.rate)
        try:
            deduped = int(client.server_stats().get("deduped", 0))
        except ServeError:
            deduped = 0
    finally:
        client.close()
    reference = replay_sequential(workload)["results"]
    try:
        check_replay(workload, reference, out)
    except AssertionError as exc:
        print(f"  PARITY FAILURE: {exc}", file=sys.stderr)
        return 1
    print(f"  parity OK: every ok job bit-identical to its solo run")
    print(f"  outcomes   {_net_breakdown(out['outcome_counts'], out['shed'], out['client']['retries'], deduped)}")
    print(f"  wire       {out['client']['frames_sent']} frames sent, "
          f"{out['client']['reconnects']} connects, "
          f"{out['seconds'] * 1e3:.1f} ms")
    return 0


def _serve_net_loopback(args, spec) -> int:
    """Loopback smoke for the socket boundary: server + retrying client
    in one process on a shared manual clock, optionally under seeded
    network chaos, with the full bit-parity gate."""
    from ..serve import (assign_arrivals, build_workload,
                         default_net_chaos_specs)
    from ..serve.net import verify_net_parity

    if not any(rec.get("arrival_offset_s") for rec in spec["jobs"]):
        assign_arrivals(spec, rate_hz=50.0, tenants=4)
    fault_specs = (default_net_chaos_specs() if args.net_faults else None)
    out = verify_net_parity(build_workload(spec), fault_specs=fault_specs,
                            seed=args.net_fault_seed, rate=args.rate,
                            capacity=args.capacity,
                            journal_path=args.journal,
                            deadline_s=(args.deadline_ms / 1e3
                                        if args.deadline_ms else None))
    gate = ("chaos OK: every ok job bit-identical under seeded network "
            f"faults (seed {args.net_fault_seed})" if args.net_faults
            else "parity OK: every ok job bit-identical over the wire")
    print(f"  {gate}")
    print(f"  outcomes   {_net_breakdown(out['outcome_counts'], out['shed'], out['retried'], out['deduped'])}")
    if args.net_faults:
        fired = sum(n for kinds in out["faults_fired"].values()
                    for n in kinds.values())
        print(f"  faults     {fired} frame faults across "
              f"{len(out['faults_fired'])} points; "
              f"{out['client']['reconnects']} reconnects, "
              f"{out['client']['protocol_errors']} protocol errors")
    print(f"  load gen   {out['jobs']} jobs / {out['rows']} rows at "
          f"{args.rate:.0f}x recorded arrivals "
          f"({out['clock_s'] * 1e3:.1f} ms simulated)")
    return 0


def _run_serve(args) -> int:
    """Replay a recorded mixed workload sequentially and through a
    :class:`~repro.serve.ServeSession`, assert bit-parity, and print
    the aggregate throughput comparison.

    With ``--faults`` the replay instead runs under the deterministic
    chaos injector (:mod:`repro.serve.faults`): every non-rejected,
    non-deadline job must still come out bit-identical to its solo run,
    and the per-outcome breakdown is printed.  ``--net`` moves the same
    gate across the socket boundary (loopback server + retrying
    client), ``--listen``/``--connect`` split it across processes.
    """
    from ..serve import (build_workload, load_workload, mixed_workload_spec,
                         verify_parity)
    spec = (load_workload(args.workload) if args.workload
            else mixed_workload_spec(scale=1 if args.smoke else 2,
                                     seed=args.seed))
    if args.listen is not None:
        return _serve_listen(args, spec)
    if args.connect is not None:
        return _serve_connect(args, spec)
    if args.net:
        return _serve_net_loopback(args, spec)
    print(f"=== serve: workload {spec['name']} "
          f"({len(spec['jobs'])} jobs) ===")
    t0 = time.time()
    if args.faults:
        from ..serve import chaos_replay
        out = chaos_replay(build_workload(spec), capacity=args.capacity,
                           seed=args.fault_seed,
                           deadline_s=(args.deadline_ms / 1e3
                                       if args.deadline_ms else None))
        print(f"  chaos OK: every surviving job bit-identical, every "
              f"refusal structured (fault seed {args.fault_seed})")
        breakdown = ", ".join(f"{k}={v}" for k, v in
                              sorted(out["outcome_counts"].items()))
        print(f"  outcomes   {breakdown}  ({out['rows']} rows, "
              f"{out['jobs']} jobs)")
        fired = sum(n for kinds in out["faults_fired"].values()
                    for n in kinds.values())
        print(f"  faults     {fired} fired across "
              f"{len(out['faults_fired'])} points; "
              f"{out['retry_dispatches']} ladder retries, "
              f"{out['quarantine']['trips']} quarantine trips, "
              f"{out['quarantine']['heals']} heals")
        print(f"  admission  {out['admission']['accepted']} accepted / "
              f"{out['admission']['rejected']} rejected / "
              f"{out['admission']['shed']} shed")
    else:
        out = verify_parity(build_workload(spec), capacity=args.capacity)
        print(f"  parity OK: every job bit-identical to its solo run")
        print(f"  sequential {out['sequential_s'] * 1e3:8.1f} ms  "
              f"({out['rows']} rows, {out['jobs']} jobs)")
        print(f"  served     {out['serve_s'] * 1e3:8.1f} ms  "
              f"({out['dispatches']} dispatches, "
              f"{out['coalesced_dispatches']} coalesced)")
        print(f"  aggregate throughput {out['throughput_ratio']:.2f}x; "
              f"plan cache {out['plan_cache']['hits']} hits / "
              f"{out['plan_cache']['misses']} misses")
    print(f"[serve done in {time.time() - t0:.1f}s]")
    return 0


def main(argv=None) -> int:
    registry = _registry()
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(registry) + ["all", "report", "serve"],
                        help="which table/figure to regenerate, 'report' "
                             "to rebuild EXPERIMENTS.md from existing "
                             "results, or 'serve' to replay a recorded "
                             "mixed workload through the serving layer")
    parser.add_argument("--smoke", action="store_true",
                        help="run at the tiny test scale (fast, inaccurate)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", default=None, metavar="PATH",
                        help="serve: JSON workload spec to replay "
                             "(default: the built-in mixed workload)")
    parser.add_argument("--capacity", type=int, default=64,
                        help="serve: scheduler slot capacity")
    parser.add_argument("--faults", action="store_true",
                        help="serve: replay under the deterministic chaos "
                             "fault injector and print the per-outcome "
                             "breakdown")
    parser.add_argument("--fault-seed", type=int,
                        default=int(os.environ.get("REPRO_FAULT_SEED", "0")),
                        help="serve: seed for --faults (default: "
                             "$REPRO_FAULT_SEED or 0)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="serve: per-job deadline in milliseconds for "
                             "--faults replays (manual-clock time)")
    parser.add_argument("--net", action="store_true",
                        help="serve: replay through the full socket "
                             "boundary (loopback server + retrying "
                             "client) with the bit-parity gate")
    parser.add_argument("--net-faults", action="store_true",
                        help="serve: with --net, inject seeded network "
                             "frame faults (drop/duplicate/delay/"
                             "truncate) on every client send/recv")
    parser.add_argument("--net-fault-seed", type=int,
                        default=int(os.environ.get("REPRO_FAULT_SEED", "0")),
                        help="serve: seed for --net-faults and the "
                             "client retry jitter (default: "
                             "$REPRO_FAULT_SEED or 0)")
    parser.add_argument("--listen", type=int, default=None, metavar="PORT",
                        help="serve: run a standalone socket server for "
                             "the workload spec (0 picks a free port); "
                             "SIGINT/SIGTERM drain gracefully")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="serve: replay the workload through a "
                             "remote server and verify bit-parity "
                             "against the local solo run")
    parser.add_argument("--rate", type=float, default=10.0,
                        help="serve: arrival-process acceleration for "
                             "--net/--connect replays (10 = 10x the "
                             "recorded trace)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="serve: write-ahead journal for --listen/"
                             "--net (crash recovery + idempotent "
                             "re-reporting)")
    args = parser.parse_args(argv)

    if args.experiment == "report":
        from .report import write_report
        print(f"wrote {write_report()}")
        return 0
    if args.experiment == "serve":
        # the experiments run at cfg.dtype, which their Pipeline pins;
        # serve builds none and replays at deployment precision
        set_default_dtype("float32")
        return _run_serve(args)

    base = (ExperimentConfig.smoke() if args.smoke
            else ExperimentConfig.paper_scale())
    import dataclasses
    cfg = dataclasses.replace(base, seed=args.seed)
    pipe = Pipeline(cfg)

    names = sorted(registry) if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.time()
        print(f"=== {name} ===")
        registry[name](cfg, pipeline=pipe)
        print(f"[{name} done in {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
