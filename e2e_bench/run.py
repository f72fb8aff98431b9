#!/usr/bin/env python3
"""Campaign benchmark of the mobile-adversary CONGEST compilers.

One run measures one workload (a campaign file under workloads/) and prints,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics:

    python3 e2e_bench/run.py --workload byz_clique_adv --seed 3 \
        --seconds 20 --trace 0

Run it from the root of a checkout.  It builds the library, mc_campaign and
the harness from source with CMake (into $CARGO_TARGET_DIR, default
.bench_build), runs the harness, then re-runs the same points through
mc_campaign and checks every trial against that record.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics of a second, traced pass and checks
that it gives the same outputs as the untraced pass and that its layer
self-times add up to its wall time.

    python3 e2e_bench/run.py --report [--seed N] [--seconds S]
        runs every workload in both modes, prints each metric with its unit
        and sample count, and writes the record BENCH_e2e.json.
    python3 e2e_bench/run.py --self-test
        the same code path on tiny campaigns: checks the metric names and
        that the correctness gate passes good trials and rejects a negative
        control.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# seeds_per_point is the width of each point's seed axis: --seed N shifts
# the trial seeds by N * seeds_per_point, so distinct benchmark seeds run
# disjoint trial seeds.  Graph seeds (gseed) never move.
WORKLOADS = {
    "byz_clique_adv": {
        "campaign": "byz_clique_adv.campaign",
        "seeds_per_point": 1,
        "setup_reps": 31,
    },
    "expander_20k": {
        "campaign": "expander_20k.campaign",
        "seeds_per_point": 1,
        "setup_reps": 11,
    },
    "rewind_secure_mix": {
        "campaign": "rewind_secure_mix.campaign",
        "seeds_per_point": 8,
        "setup_reps": 21,
    },
}

# What each per-layer metric should move, on which workload.  BENCHMARK.json
# has a fixed key set, so the mapping lives here and in the --report record.
LAYER_MAP = {
    "graph.build_ms": "setup_s on expander_20k",
    "graph.edges": "setup_s on expander_20k",
    "compile.build_ms": "setup_s and peak_rss_mb on expander_20k",
    "compile.preprocess_ms": "setup_s on expander_20k",
    "compile.pk_bytes": "setup_s and peak_rss_mb on expander_20k",
    "compile.send_ms": "compiled_rounds_per_s and round_ms_* on "
                       "byz_clique_adv and rewind_secure_mix",
    "compile.receive_ms": "compiled_rounds_per_s and round_ms_* on "
                          "expander_20k",
    "adv.act_ms": "round_ms_tail on byz_clique_adv (zero on expander_20k)",
    "adv.corruptions": "round_ms_tail on byz_clique_adv (zero on "
                       "expander_20k)",
    "sim.engine_self_ms": "round_ms_p50 on expander_20k",
    "sim.phase.*_ms": "compiled_rounds_per_s and round_ms_* per workload",
    "sim.send_words": "compiled_rounds_per_s per workload",
    "sim.adversary_snapshot_words": "round_ms_tail on byz_clique_adv",
    "exp.reference_ms": "setup_s and trial_ms_p50 on rewind_secure_mix",
    "exp.expect_cache_hits": "setup_s on rewind_secure_mix",
    "exp.precompute_hits": "setup_s and trial_ms_p50 on rewind_secure_mix",
    "exp.precompute_misses": "setup_s and trial_ms_p50 on rewind_secure_mix",
    "obs.trace_overhead": "none (cost of the traced run itself)",
    "reconcile.residual_share": "none (share of traced wall no layer "
                                "claims)",
}
UNMEASURED = {
    "coding, gf, sketch, hash": "no boundary reachable from outside during "
                                "a trial; their time stays inside "
                                "compile.send_ms / compile.receive_ms",
    "net": "the udp_lossy workload (smoke_udp over 4 loopback ranks) was "
           "left out: per-trial wall varied about +-20% and one run took "
           "~36 s, too slow and too noisy for this benchmark's bounds",
}

# Layer self-times of the traced pass must sum to its wall within this
# share of the wall; the remainder is printed as the residual.
RECONCILE_TOLERANCE = 0.10
EXACT_KEYS = ("fingerprint", "rounds", "normalized_rounds", "messages",
              "max_congestion", "corruptions")
MC_KEYS = ("fingerprint", "rounds", "messages", "max_congestion",
           "corruptions")
PHASES = ("clear", "send", "account", "adversary", "exchange", "receive")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def fail(msg):
    print(f"e2e_bench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "e2e_bench"


def run_logged(cmd, log, timeout):
    with open(log, "ab") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build():
    """Configures (once) and builds the harness and mc_campaign."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {BENCH.name}/ "
             "(run from the root of a full checkout)")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    if not (out / "CMakeCache.txt").is_file():
        if run_logged(["cmake", "-S", str(BENCH), "-B", str(out)], log,
                      600) != 0:
            fail(f"cmake configure failed, see {log}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", str(out), "-j", jobs, "--target",
                   "e2e_harness", "mc_campaign"], log, 840) != 0:
        fail(f"build failed, see {log}")
    return out / "e2e_harness", out / "mobile_congest" / "mc_campaign"


# --- statistics -------------------------------------------------------------

def percentile(xs, p):
    """Nearest-rank percentile."""
    s = sorted(xs)
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 100)) - 1))
    return s[k]


def tail_level(samples):
    """Highest ladder percentile with at least 10 samples beyond it."""
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


# --- correctness gate -------------------------------------------------------

def gate(points, passes, reference):
    """Returns (attempted, failed, problems).

    A trial fails when it is not ok or carries an error, when a byzantine
    trial shows no corruption (a vacuous pass), when its outputs or counts
    differ from mc_campaign's row for the same point, or when another pass
    of the same point (traced or not) gave different outputs or counts."""
    problems = []
    bad = set()
    first = passes[0]["trials"]
    for pi, p in enumerate(passes):
        for i, (pt, t) in enumerate(zip(points, p["trials"])):
            why = []
            if not t["ok"] or t["error"]:
                why.append(f"ok={t['ok']} error={t['error']!r}")
            if pt["byzantine"] and t["corruptions"] <= 0:
                why.append("byzantine trial without corruptions")
            ref = reference.get(pt["id"])
            if ref is None:
                why.append("no mc_campaign row")
            else:
                diff = [k for k in MC_KEYS if ref[k] != t[k]]
                if diff:
                    why.append(f"differs from mc_campaign in {diff}")
            diff = [k for k in EXACT_KEYS if first[i][k] != t[k]]
            if diff:
                why.append(f"pass {pi} differs from pass 0 in {diff}")
            if why:
                bad.add((pi, i))
                problems.append(f"{pt['id']}: {'; '.join(why)}")
    attempted = sum(len(p["trials"]) for p in passes)
    return attempted, len(bad), problems


def load_reference(mc, campaign, offset, workdir):
    out = workdir / "reference.jsonl"
    cmd = [str(mc), "--fresh", "--threads", "4", "--seed", str(offset),
           "--out", str(out), str(campaign)]
    if run_logged(cmd, workdir / "mc_campaign.log", 170) != 0:
        fail(f"mc_campaign failed, see {workdir / 'mc_campaign.log'}")
    rows = {}
    for line in out.read_text().splitlines():
        row = json.loads(line)
        rows[row["point"]] = row
    return rows


# --- metrics ----------------------------------------------------------------

def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(doc):
    """Every pass repeats the same trials, and each trial the same rounds,
    so a trial's (and a round's) host time is its fastest repetition over
    the run's passes before any sum or percentile is taken.  Slow spells of
    a shared host only ever add time; the minimum over repetitions spread
    across the measuring window is the program's own cost."""
    points, passes = doc["points"], doc["passes"]
    first = passes[0]["trials"]
    n_trials = len(first) * len(passes)

    def per_trial(f):
        return [min(f(p["trials"][i]) for p in passes)
                for i in range(len(first))]

    wall = per_trial(lambda t: t["wall_ms"])
    busy = per_trial(lambda t: t["wall_ms"] - t["factory_ms"])
    gaps = [min(g) for g in zip(*(p["round_gaps_ms"] for p in passes))]
    n_gaps = len(gaps) * len(passes)
    level = tail_level(len(gaps))
    factory_ms = median([sum(t["factory_ms"] for t in p["trials"])
                         for p in passes])
    ok = sum(1 for p in passes for t in p["trials"]
             if t["ok"] and not t["error"])
    payload = sum(pt["payload_rounds"] for pt in points)
    rounds = sum(t["rounds"] for t in first)
    return {
        "setup_s": metric((median(doc["setup_ms"]) + factory_ms) / 1000.0,
                          "s", len(doc["setup_ms"])),
        "compiled_rounds_per_s": metric(rounds / sum(busy) * 1000.0, "1/s",
                                        n_trials),
        "round_ms_p50": metric(median(gaps), "ms", n_gaps),
        "round_ms_tail": metric(percentile(gaps, level), "ms", n_gaps)
        | {"percentile": level},
        "trial_ms_p50": metric(median(wall), "ms", n_trials),
        "peak_rss_mb": metric(doc["peak_rss_kb"] / 1024.0, "MB", 1),
        "ok_fraction": metric(ok / n_trials, "ratio", n_trials),
        "round_overhead": metric(rounds / payload, "ratio", len(first)),
        "normalized_rounds": metric(
            sum(t["normalized_rounds"] for t in first), "count", len(first)),
        "messages": metric(sum(t["messages"] for t in first), "count",
                           len(first)),
        "max_congestion": metric(sum(t["max_congestion"] for t in first),
                                 "count", len(first)),
    }


def per_layer(doc):
    tr = doc["traced"]
    tp = tr["pass"]["trials"]
    untraced = doc["passes"][0]["trials"]
    n = len(tp)
    phase = {ph: sum(t["phase_ms"][ph] for t in tp) for ph in PHASES}
    graph_ms = tr["build_graph_ms"] + tr["trial_graph_ms"]
    compile_ms = tr["build_compile_ms"] + tr["trial_algo_ms"] + \
        tr["make_node_ms"]
    adv_ms = tr["act_ms"] + tr["build_adv_ms"] + tr["adv_factory_ms"]
    engine_self = sum(phase.values()) - tr["send_ms"] - tr["receive_ms"] - \
        tr["act_ms"]
    reference_ms = tr["build_ms"] - tr["build_graph_ms"] - \
        tr["build_compile_ms"] - tr["build_adv_ms"]
    layers = graph_ms + compile_ms + tr["send_ms"] + tr["receive_ms"] + \
        adv_ms + engine_self + reference_ms
    residual = tr["wall_ms"] - layers

    def per_round(trials):
        busy = sum(t["wall_ms"] - t["factory_ms"] for t in trials)
        return busy / sum(t["rounds"] for t in trials)

    m = {
        "graph.build_ms": metric(graph_ms, "ms", n),
        "graph.edges": metric(sum(p["edges"] for p in doc["points"]),
                              "count", n),
        "compile.build_ms": metric(compile_ms, "ms", n),
        "compile.preprocess_ms": metric(tr["preprocess_ms"], "ms", n),
        "compile.pk_bytes": metric(tr["pk_bytes"], "bytes", 1),
        "compile.send_ms": metric(tr["send_ms"], "ms", n),
        "compile.receive_ms": metric(tr["receive_ms"], "ms", n),
        "adv.act_ms": metric(tr["act_ms"], "ms", n),
        "adv.corruptions": metric(tr["corruptions"], "count", n),
        "sim.engine_self_ms": metric(engine_self, "ms", n),
    }
    for ph in PHASES:
        m[f"sim.phase.{ph}_ms"] = metric(phase[ph], "ms", n)
    m.update({
        "sim.send_words": metric(tr["send_words"], "count", n),
        "sim.adversary_snapshot_words": metric(tr["snapshot_words"],
                                               "count", n),
        "exp.reference_ms": metric(reference_ms, "ms", n),
        "exp.expect_cache_hits": metric(tr["expect_cache_hits"], "count", n),
        "exp.precompute_hits": metric(tr["precompute_hits"], "count", n),
        "exp.precompute_misses": metric(tr["precompute_misses"], "count", n),
        "obs.trace_overhead": metric(per_round(tp) / per_round(untraced),
                                     "x", n),
        "reconcile.residual_share": metric(residual / tr["wall_ms"], "ratio",
                                           n),
    })
    recon = {"wall_ms": tr["wall_ms"], "layers_ms": layers,
             "residual_ms": residual, "tolerance": RECONCILE_TOLERANCE,
             "dropped_trace_events": tr["dropped_events"]}
    return m, recon


# --- one run ----------------------------------------------------------------

def run_workload(name, seed, seconds, trace, campaign=None, quiet=False):
    """Runs one workload; returns (result dict, details dict)."""
    harness, mc = build()
    spec = WORKLOADS.get(name, {"seeds_per_point": 1, "setup_reps": 3})
    campaign = campaign or BENCH / "workloads" / spec["campaign"]
    offset = seed * spec["seeds_per_point"]
    workdir = build_dir() / "runs" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = workdir / "harness.json"
        cmd = [str(harness), "--campaign", str(campaign), "--seed-offset",
               str(offset), "--seconds", str(seconds), "--setup-reps",
               str(spec["setup_reps"]), "--traced", str(trace),
               "--out", str(out)]
        if run_logged(cmd, workdir / "harness.log", 170) != 0:
            fail(f"harness failed:\n{(workdir / 'harness.log').read_text()}")
        doc = json.loads(out.read_text())
        reference = load_reference(mc, campaign, offset, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = list(doc["passes"])
    if trace:
        passes.append(doc["traced"]["pass"])
    attempted, failed, problems = gate(doc["points"], passes, reference)
    details = {"problems": problems}
    if trace:
        metrics, recon = per_layer(doc)
        details["reconcile"] = recon
        if abs(recon["residual_ms"]) > RECONCILE_TOLERANCE * recon["wall_ms"]:
            problems.append(
                f"layers do not reconcile: residual {recon['residual_ms']:.1f}"
                f" ms of {recon['wall_ms']:.1f} ms wall")
    else:
        metrics = end_to_end(doc)
    correct = not problems
    failed = max(failed, 0 if correct else 1)
    if not quiet:
        for p in problems[:20]:
            print(f"GATE {p}", file=sys.stderr)
        describe(name, metrics, details)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }
    return result, {"metrics": metrics, **details}


def describe(name, metrics, details):
    print(f"# workload {name}")
    for key, m in metrics.items():
        extra = f" p{m['percentile']}" if "percentile" in m else ""
        print(f"  {key:32s} {m['value']:>16.6g} {m['unit']:6s}"
              f" n={m['samples']}{extra}")
    rec = details.get("reconcile")
    if rec:
        print(f"  reconcile: layers {rec['layers_ms']:.1f} ms of wall "
              f"{rec['wall_ms']:.1f} ms, residual {rec['residual_ms']:.1f} ms"
              f" (tolerance {rec['tolerance']:.0%})")


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(seed, seconds):
    record = {"seed": seed, "seconds": seconds, "layer_map": LAYER_MAP,
              "unmeasured": UNMEASURED,
              "reconcile_tolerance": RECONCILE_TOLERANCE, "workloads": {}}
    why = {w["name"]: w["why"] for w in declared()["workloads"]}
    ok = True
    for name in WORKLOADS:
        entry = {"why": why[name], "correct": True}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, details = run_workload(name, seed, seconds, trace)
            entry["correct"] &= result["correct"]
            entry[key] = details["metrics"]
            if "reconcile" in details:
                entry["reconcile"] = details["reconcile"]
        ok &= entry["correct"]
        record["workloads"][name] = entry
    path = ROOT / "BENCH_e2e.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# record written to {path.name}")
    return 0 if ok else 1


def self_test():
    """Tiny campaigns through the same code path as a real run."""
    want = {0: [m["name"] for m in declared()["end_to_end"]],
            1: [m["name"] for m in declared()["per_layer"]]}
    tiny = BENCH / "workloads" / "selftest.campaign"
    negative = BENCH / "workloads" / "selftest_negative.campaign"
    errors = []
    for trace in (0, 1):
        result, _ = run_workload("selftest", 0, 1, trace, tiny, quiet=True)
        got = sorted(result["metrics"])
        if got != sorted(want[trace]):
            errors.append(f"trace {trace}: metrics {got} != declared "
                          f"{sorted(want[trace])}")
        if not result["correct"] or result["failed"]:
            errors.append(f"trace {trace}: gate rejected good trials")
    result, details = run_workload("selftest_negative", 0, 1, 0, negative,
                                   quiet=True)
    if result["correct"] or not result["failed"]:
        errors.append("gate accepted a negative control")
    if not any("ok=False" in p for p in details["problems"]):
        errors.append("negative control not reported as ok=false")

    # Each kind of violation the gate knows, on a synthetic record.
    good = {"fingerprint": "0x1", "rounds": 5, "normalized_rounds": 5,
            "messages": 9, "max_congestion": 2, "corruptions": 3, "ok": True,
            "error": ""}

    def caught(trial, ref=None, second=None):
        passes = [{"trials": [trial]}] + ([{"trials": [second]}]
                                          if second else [])
        point = {"id": "p", "byzantine": True}
        return gate([point], passes, {"p": ref or trial})[1] > 0

    expect = {
        "good trial passes": not caught(good),
        "ok=false fails": caught(dict(good, ok=False)),
        "plane error fails": caught(dict(good, error="barrier timeout")),
        "vacuous byzantine pass fails": caught(dict(good, corruptions=0)),
        "mc_campaign mismatch fails": caught(good, dict(good,
                                                        fingerprint="0x2")),
        "traced/untraced mismatch fails": caught(good, good,
                                                 dict(good, messages=10)),
    }
    errors += [f"gate: expected '{k}'" for k, v in expect.items() if not v]
    for e in errors:
        print(f"SELF-TEST FAIL {e}")
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.self_test:
        return self_test()
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    t0 = time.monotonic()
    result, _ = run_workload(args.workload, args.seed, args.seconds,
                             args.trace)
    print(f"# {time.monotonic() - t0:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
