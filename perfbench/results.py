"""Output checks and metrics for one raw harness result.

The harness (perfbench_harness) writes every repetition's raw samples and
decisions as JSON; this module checks the decisions and turns the samples
into the reported metrics. Every percentile is taken from raw samples
(nearest rank) and carries its sample count.
"""

import hashlib
import math
import statistics

SIM_WORKLOADS = ("sim-exact-160", "sim-hyper-5k")
SWARM_WORKLOAD = "schedd-swarm"
WORKLOADS = SIM_WORKLOADS + (SWARM_WORKLOAD,)

# name -> unit, in print order. The names and units match BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "round_p50_ms": "ms",
    "rounds_per_s": "1/s",
}

PER_LAYER = {
    "fit.calls": "count",
    "fit.evaluations": "count",
    "fit.evals_per_call": "count",
    "fit.busy_s": "s",
    "fit.ms_per_call": "ms",
    "fit.accept_ratio": "ratio",
    "fit.rmsle_mean": "1",
    "agent.reports": "count",
    "agent.refresh_s": "s",
    "ga.busy_s": "s",
    "ga.fitness_evals": "count",
    "ga.evals_per_s": "1/s",
    "ga.eval_cache_hit_rate": "ratio",
    "sched.calls": "count",
    "sched.busy_s": "s",
    "sched.call_p50_ms": "ms",
    "sched.call_p99_ms": "ms",
    "sched.table_s": "s",
    "sched.table_cache_hit_rate": "ratio",
    "sched.fallback_rounds": "count",
    "sched.jobs_per_call": "count",
    "sim.self_s": "s",
    "sim.engine_events": "count",
    "sim.avg_jct_h": "h",
    "sim.jct_p90_h": "h",
    "pool.tasks": "count",
    "pool.task_busy_s": "s",
    "pool.cpu_per_wall": "ratio",
    "workload.trace_gen_s": "s",
    "service.round_busy_ms_p50": "ms",
    "service.ingest_busy_ms_p50": "ms",
    "service.overhead_ms_p50": "ms",
    "service.report_p50_ms": "ms",
    "service.report_p99_ms": "ms",
    "service.checkpoints": "count",
    "service.checkpoint_bytes": "bytes",
    "service.nacks": "count",
    "service.shed": "count",
    "service.retries": "count",
    "trace.overhead_s": "s",
}

# The disjoint time layers compared for "largest layer" in the ledger.
TIME_LAYERS = ("fit.busy_s", "ga.busy_s", "sched.table_s", "sim.self_s")


class Sampled(float):
    """A metric value computed from raw samples, remembering how many."""

    def __new__(cls, value, count):
        obj = super().__new__(cls, value)
        obj.count = count
        return obj


def percentile(samples, q):
    """Nearest-rank percentile of raw samples (q in [0, 1]), with its count."""
    if not samples:
        return Sampled(0.0, 0)
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return Sampled(ordered[rank - 1], len(ordered))


def median(samples):
    if not samples:
        return Sampled(0.0, 0)
    return Sampled(statistics.median(samples), len(samples))


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def sim_digest(jobs):
    """Digest of every job's finish time (exact bits) and restart count."""
    return _digest(f"{job[0]},{float(job[3]).hex()},{job[4]}" for job in sorted(jobs))


def swarm_digest(allocation):
    """Digest of the final allocation cells [tenant, job, node, gpus]."""
    return _digest(",".join(str(v) for v in cell) for cell in sorted(allocation))


def plain_reps(raw):
    return [rep for rep in raw["reps"] if not rep["traced"]]


def traced_rep(raw):
    return next((rep for rep in raw["reps"] if rep["traced"]), None)


# --- output checks ---------------------------------------------------------


def check(raw):
    """Returns (errors, digest, attempted, failed) for a raw result."""
    if not raw.get("reps"):
        return ["no repetitions recorded"], "", 0, 0
    check_workload = _check_swarm if raw["workload"] == SWARM_WORKLOAD else _check_sim
    errors, digest, attempted, failed = check_workload(raw)
    traced = traced_rep(raw)
    if traced and traced["ledger"]["trace_dropped"]:
        errors.append(f"the trace recorder dropped {traced['ledger']['trace_dropped']} spans")
    return errors, digest, attempted, failed


def _check_sim(raw):
    errors = []
    cluster_gpus = raw["cluster_gpus"]
    digests = []
    attempted = failed = 0
    for i, rep in enumerate(raw["reps"]):
        trace_ids = rep["trace_ids"]
        jobs = rep["jobs"]
        attempted += len(trace_ids)
        result_ids = sorted(job[0] for job in jobs)
        if len(set(trace_ids)) != len(trace_ids) or result_ids != sorted(trace_ids):
            errors.append(f"rep {i}: result jobs do not account for every trace job")
        failed += len(trace_ids) - sum(1 for job in jobs if job[5])
        for job_id, submit, start, finish, _, completed in jobs:
            if completed and not submit <= start <= finish:
                errors.append(
                    f"rep {i}: job {job_id} has submit {submit} start {start} finish {finish}"
                )
                break
        for time_s, total, used in rep["timeline"]:
            if not 0 <= used <= total <= cluster_gpus:
                errors.append(
                    f"rep {i}: timeline sample at {time_s} s uses {used} of {total} GPUs "
                    f"(cluster has {cluster_gpus})"
                )
                break
        digests.append(sim_digest(jobs))
    if len(set(digests)) != 1:
        errors.append(f"decision digests differ across repetitions: {digests}")
    return errors, digests[0], attempted, failed


def _check_swarm(raw):
    errors = []
    expected_rounds = raw["tenants"] * raw["epochs"]
    capacity = raw["gpus_per_node"]
    digests = []
    attempted = failed = 0
    for i, rep in enumerate(raw["reps"]):
        attempted += rep["requests"]
        failed += rep["client"]["nacks"] + rep["client"]["timeouts"]
        if rep["rounds_ok"] != expected_rounds or rep["daemon"]["rounds"] != expected_rounds:
            errors.append(
                f"rep {i}: {rep['rounds_ok']} rounds completed, daemon executed "
                f"{rep['daemon']['rounds']}, expected {expected_rounds}"
            )
        for key in ("bad_frames", "malformed", "errors"):
            if rep["daemon"][key] != 0:
                errors.append(f"rep {i}: daemon counted {rep['daemon'][key]} {key}")
        if any(u > capacity for u in rep["max_node_usage"]):
            errors.append(f"rep {i}: a round's decisions exceed the {capacity}-GPU node capacity")
        if any(n > raw["nodes"] for n in rep["max_row_len"]) or any(
            m < 0 for m in rep["min_entry"]
        ):
            errors.append(f"rep {i}: a decision row does not fit the tenant's cluster")
        usage = {}
        for tenant, _, node, gpus in rep["allocation"]:
            usage[(tenant, node)] = usage.get((tenant, node), 0) + gpus
        if any(total > capacity for total in usage.values()):
            errors.append(f"rep {i}: the final allocation exceeds a node's capacity")
        digests.append(swarm_digest(rep["allocation"]))
    if len(set(digests)) != 1:
        errors.append(f"final-allocation digests differ across repetitions: {digests}")
    return errors, digests[0], attempted, failed


# --- end-to-end metrics ------------------------------------------------------


def end_to_end(raw):
    """Every END_TO_END metric over the untraced repetitions."""
    reps = plain_reps(raw)
    rounds = [ms for rep in reps for ms in rep["round_ms"]]
    if raw["workload"] == SWARM_WORKLOAD:
        # The swarm's unit of work is one closed-loop epoch, hundreds per
        # repetition: its times are the median epoch over the whole run, so a
        # host stall that hits a minority of epochs does not move them.
        epoch_s = median([ms / 1e3 for rep in reps for ms in rep["epoch_ms"]])
        run_s = Sampled(epoch_s * raw["epochs"], epoch_s.count)
        rounds_per_s = Sampled(raw["tenants"] / epoch_s, epoch_s.count)
    else:
        run_s = median([rep["run_s"] for rep in reps])
        rounds_per_s = median([len(rep["round_ms"]) / rep["run_s"] for rep in reps])
    return {
        "setup_s": median(raw["setup_s"]),
        "run_s": run_s,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "round_p50_ms": percentile(rounds, 0.50),
        "rounds_per_s": rounds_per_s,
    }


def unbounded(raw):
    """Figures printed beside the metrics without a bound: round tail
    latency, and schedule quality or client report latency."""
    reps = plain_reps(raw)
    rounds = [ms for rep in reps for ms in rep["round_ms"]]
    figures = {"round_p99_ms": (percentile(rounds, 0.99), "ms")}
    if raw["workload"] == SWARM_WORKLOAD:
        reports = [ms for rep in reps for ms in rep["report_ms"]]
        figures["report_p50_ms"] = (percentile(reports, 0.50), "ms")
        figures["report_p99_ms"] = (percentile(reports, 0.99), "ms")
    else:
        figures["avg_jct_h"] = (_avg_jct_h(reps[0]), "h")
        figures["jct_p90_h"] = (_jct_p90_h(reps[0]), "h")
    return figures


def _jcts_h(rep):
    return [(job[3] - job[1]) / 3600.0 for job in rep["jobs"] if job[5]]


def _avg_jct_h(rep):
    jcts = _jcts_h(rep)
    return Sampled(sum(jcts) / len(jcts) if jcts else 0.0, len(jcts))


def _jct_p90_h(rep):
    return percentile(_jcts_h(rep), 0.90)


# --- per-layer ledger --------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def ledger(raw):
    """Every PER_LAYER metric from the traced repetition (and its plain twin)."""
    rep = traced_rep(raw)
    plain = plain_reps(raw)[0]
    book = rep["ledger"]
    spans = book["spans"]
    registry = book["registry"]
    counters = registry["counters"]
    gauges = registry["gauges"]
    histograms = registry["histograms"]

    def span_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def counter(name):
        return counters.get(name, 0)

    def hist(name):
        return histograms.get(name, {"count": 0, "sum": 0.0})

    run_s = rep["run_s"]
    is_sim = raw["workload"] in SIM_WORKLOADS
    m = {}

    fit_calls = counter("fit.calls")
    fit_busy = span_s("fit_throughput")
    agent_fits = counter("agent.fits")
    rmsle = hist("fit.rmsle")
    m["fit.calls"] = fit_calls
    m["fit.evaluations"] = counter("fit.evaluations")
    m["fit.evals_per_call"] = _ratio(counter("fit.evaluations"), fit_calls)
    m["fit.busy_s"] = fit_busy
    m["fit.ms_per_call"] = 1e3 * _ratio(fit_busy, fit_calls)
    m["fit.accept_ratio"] = _ratio(agent_fits - counter("agent.fits_rejected"), agent_fits)
    m["fit.rmsle_mean"] = Sampled(_ratio(rmsle["sum"], rmsle["count"]), rmsle["count"])
    m["agent.reports"] = counter("agent.reports")
    m["agent.refresh_s"] = span_s("sim.refresh_reports")

    ga_busy = span_s("ga_round")
    m["ga.busy_s"] = ga_busy
    m["ga.fitness_evals"] = counter("ga.fitness_evals")
    m["ga.evals_per_s"] = _ratio(counter("ga.fitness_evals"), ga_busy)
    m["ga.eval_cache_hit_rate"] = gauges.get("sched.eval_cache.hit_rate", 0.0)

    # The scheduling layer as its caller sees it: the Scheduler decorator in
    # the simulator, the daemon's PolluxSched rounds in the swarm.
    calls = rep["sched_call_ms"] if is_sim else book["sched_round_ms"]
    jobs_seen = rep["sched_jobs_seen"] if is_sim else raw["jobs_per_tenant"] * len(calls)
    m["sched.calls"] = len(calls)
    m["sched.busy_s"] = sum(calls) / 1e3
    m["sched.call_p50_ms"] = percentile(calls, 0.50)
    m["sched.call_p99_ms"] = percentile(calls, 0.99)
    m["sched.table_s"] = span_s("sched_round") - ga_busy
    m["sched.table_cache_hit_rate"] = gauges.get("sched.table_cache.hit_rate", 0.0)
    m["sched.fallback_rounds"] = counter("sched.fallback_rounds")
    m["sched.jobs_per_call"] = _ratio(jobs_seen, len(calls))

    m["sim.self_s"] = run_s - m["sched.busy_s"] - m["agent.refresh_s"] if is_sim else 0.0
    m["sim.engine_events"] = counter("sim.engine.events")
    m["sim.avg_jct_h"] = _avg_jct_h(rep) if is_sim else 0.0
    m["sim.jct_p90_h"] = _jct_p90_h(rep) if is_sim else 0.0

    m["pool.tasks"] = counter("threadpool.tasks")
    m["pool.task_busy_s"] = hist("threadpool.task_latency_s")["sum"]
    m["pool.cpu_per_wall"] = _ratio(rep["cpu_s"], run_s)

    m["workload.trace_gen_s"] = rep.get("trace_gen_s", 0.0)

    if is_sim:
        for name in PER_LAYER:
            if name.startswith("service."):
                m[name] = 0.0
    else:
        overhead = [c - d for c, d in zip(rep["round_ms"], rep["daemon_round_ms"])]
        m["service.round_busy_ms_p50"] = percentile(rep["daemon_round_ms"], 0.50)
        m["service.ingest_busy_ms_p50"] = percentile(rep["daemon_ingest_ms"], 0.50)
        m["service.overhead_ms_p50"] = percentile(overhead, 0.50)
        m["service.report_p50_ms"] = percentile(rep["report_ms"], 0.50)
        m["service.report_p99_ms"] = percentile(rep["report_ms"], 0.99)
        m["service.checkpoints"] = rep["daemon"]["checkpoints"]
        m["service.checkpoint_bytes"] = rep["daemon"]["snapshot_bytes"]
        m["service.nacks"] = rep["client"]["nacks"]
        m["service.shed"] = rep["daemon"]["sheds"]
        m["service.retries"] = rep["client"]["retries"]

    m["trace.overhead_s"] = run_s - plain["run_s"]
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    return m


def largest_layer(layer_metrics):
    return max(TIME_LAYERS, key=lambda name: layer_metrics[name])
