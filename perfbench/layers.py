"""The package's layers as the traced run sees them, and the per-layer metrics.

Layers are the package's modules.  ``traced_command`` runs in a child
interpreter: it wraps each layer's public functions, runs the workload's CLI
command as the root span ``cli.main``, and then runs probes for layers that
command does not reach (each probe under its own root, so it never counts
toward the command's traced wall time).  ``per_layer_metrics`` turns that
profile into the metrics named in BENCHMARK.json.

Which end-to-end metric each layer metric should move, and where:

- engine.*: steps_per_s on mc-logistic and stream-checkpoints.
- environments.next_feature_us, .outcome_us: steps_per_s on mc-logistic.
- environments.load_s, .load_us_per_row, .replay_step_us: wall_s and
  peak_rss_mb on replay-news only; replay_match_frac should stay near 0.5.
- policy.*, models.*: steps_per_s on mc-logistic.
- inference.sandwich_us, .wald_us: wall_s on stream-checkpoints only.
- value.oracle_s: a fixed part of wall_s on mc-logistic.
- experiments.emit_us, .checkpoint_share: wall_s on stream-checkpoints.
- experiments.pool_efficiency: steps_per_s on mc-logistic.
"""
from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

PACKAGE = "banditsgd"
ROOT = "cli.main"
LAYERS = ("engine", "environments", "policy", "models", "inference", "value", "experiments")

# (module, qualified name, replication-id argument) -- one span per call.
SPANS = (
    ("experiments", "build_config", None),
    ("experiments", "run_single", None),
    ("experiments", "run_monte_carlo", None),
    ("experiments", "run_replication", 1),
    ("experiments", "oracle_truth_value", None),
    ("experiments", "emit_report", None),
    ("engine", "run_stream", None),
    ("environments", "load_replay_log", None),
    ("inference", "sandwich_covariance", None),
    ("inference", "wald_report", None),
    ("value", "oracle_value", None),
)
# (module, qualified name) -- per-step or per-checkpoint calls, aggregated.
COUNTED = (
    ("environments", "SyntheticEnvironment.next_feature"),
    ("environments", "SyntheticEnvironment.outcome"),
    ("environments", "ReplayEnvironment.next_feature"),
    ("environments", "ReplayEnvironment.outcome"),
    ("environments", "ReplayCursor.step"),
    ("policy", "RngStream.uniform"),
    ("models", "LinearModel.mean_from_index"),
    ("models", "LogisticModel.mean_from_index"),
    ("value", "ValueAccumulator.add_scalars"),
    ("value", "value_estimate"),
    ("value", "raw_value_variance"),
    ("value", "value_variance"),
    ("value", "value_standard_error"),
    ("inference", "value_report_row"),
)
# Work done per checkpoint: inference, the value summary, and report emission.
CHECKPOINT_FUNCS = ("sandwich_covariance", "wald_report", "value_report_row",
                    "value_estimate", "raw_value_variance", "value_variance",
                    "value_standard_error", "emit_report")

PROBE_REPLICATIONS = 5
PROBE_ENGINE_ROUNDS = 3
PROBE_WALD_CALLS = 20


# ---------------------------------------------------------------------------
# Child side: runs with the package importable.
# ---------------------------------------------------------------------------

def _install(tracer) -> None:
    import importlib
    for module in {m for m, *_ in SPANS + COUNTED}:
        importlib.import_module(f"{PACKAGE}.{module}")
    importlib.import_module(f"{PACKAGE}.cli")
    for module, name, rid_arg in SPANS:
        tracer.wrap(PACKAGE, module, name, module, per_step=False, rid_arg=rid_arg)
    for module, name in COUNTED:
        tracer.wrap(PACKAGE, module, name, module, per_step=True)


def _engine_probe(bs, cfg, horizon: int) -> dict:
    """Untraced µs per step of run_stream with the accumulators on and off."""
    settings = {"full": (True, True), "bare": (False, False),
                "inference_only": (True, False), "value_only": (False, True)}
    times: dict[str, list[float]] = {k: [] for k in settings}
    for _ in range(PROBE_ENGINE_ROUNDS):
        for key, (inference, value) in settings.items():
            rng = bs.RngStream(cfg.seed)
            env = bs.SyntheticEnvironment(cfg.synthetic_config(), rng)
            t0 = perf_counter()
            bs.run_stream(env, cfg.model_family(), cfg.learning_schedule(),
                          cfg.exploration_schedule(), rng, horizon,
                          collect_inference=inference, collect_value=value)
            times[key].append((perf_counter() - t0) / horizon * 1e6)
    return {k: statistics.median(v) for k, v in times.items()}


def _replay_probe(bs, cfg, work: Path, seed: int, rows: int) -> dict:
    """Load and replay a generated log drawn from the workload's own model."""
    import numpy as np
    import workloads as W
    gen = np.random.default_rng([seed, 3])
    log = work / "probe_log.csv"
    W.write_replay_log(log, *W.uniform_log(gen, cfg.model, cfg.beta0_array(),
                                           rows, False))
    from banditsgd import environments
    cursor = environments.ReplayCursor(environments.load_replay_log(str(log)))
    rng = bs.RngStream(cfg.seed)
    bs.run_stream(environments.ReplayEnvironment(cursor), cfg.model_family(),
                  cfg.learning_schedule(), cfg.exploration_schedule(), rng, rows)
    return {"rows": rows, "match_frac": cursor.matched / cursor.consumed}


def _oracle_probe(cfg) -> dict:
    from banditsgd import experiments
    experiments.oracle_truth_value(cfg)
    return {}


def _replication_probe(cfg, horizon: int) -> dict:
    from dataclasses import replace
    from banditsgd import experiments
    probe = replace(cfg, horizon=min(cfg.horizon, horizon),
                    checkpoints=None, replay_log=None)
    for rep in range(PROBE_REPLICATIONS):
        experiments.run_replication(probe, rep)
    return {}


def _inference_probe(bs, cfg, horizon: int) -> dict:
    from banditsgd import inference
    rng = bs.RngStream(cfg.seed)
    env = bs.SyntheticEnvironment(cfg.synthetic_config(), rng)
    res = bs.run_stream(env, cfg.model_family(), cfg.learning_schedule(),
                        cfg.exploration_schedule(), rng, horizon)
    for _ in range(PROBE_WALD_CALLS):
        cov = inference.sandwich_covariance(res.plugin)
        inference.wald_report(res.state.bar_beta, cov, level=cfg.level)
    return {}


def traced_command(job: dict, cfg) -> dict:
    """Traced run of the job's command plus the probes; writes the span file.

    ``cfg`` is the package's config object for the command's flags.
    """
    import banditsgd as bs
    from banditsgd import cli
    from tracer import Tracer
    work = Path(job["result"]).parent
    rows, horizon = job["probe"]["rows"], job["probe"]["horizon"]
    tracer = Tracer()
    _install(tracer)
    # (root, function whose absence from the command calls for the probe, probe)
    probes_wanted = (
        ("replay", "load_replay_log",
         lambda: _replay_probe(bs, cfg, work, job["seed"], rows)),
        ("oracle", "oracle_truth_value", lambda: _oracle_probe(cfg)),
        ("replication", "run_replication", lambda: _replication_probe(cfg, horizon)),
        ("inference", "wald_report", lambda: _inference_probe(bs, cfg, horizon)),
    )
    probes = {}
    try:
        rc, _ = tracer.root(ROOT, cli.main, job["argv"])
        main = tracer.summary(ROOT)
        for name, needed, probe in probes_wanted:
            if needed in main["funcs"]:
                continue
            try:
                info = tracer.root(f"probe.{name}", probe)[0]
            except (AttributeError, ImportError, TypeError) as exc:
                # The probed function is gone or changed in this version.
                tracer.missing.append(f"probe.{name}: {type(exc).__name__}: {exc}")
                continue
            probes[name] = dict(tracer.summary(f"probe.{name}"), **info)
    finally:
        tracer.restore()
    tracer.write(job["spans"], workload=job["workload"], seed=job["seed"], argv=job["argv"])
    try:
        engine = _engine_probe(bs, cfg, horizon)
    except (AttributeError, ImportError, TypeError) as exc:
        tracer.missing.append(f"probe.engine: {type(exc).__name__}: {exc}")
        engine = {}
    return {"rc": rc, "main": main, "probes": probes, "engine": engine,
            "missing": tracer.missing}


# ---------------------------------------------------------------------------
# Parent side: metrics from the child's profile.
# ---------------------------------------------------------------------------

def _funcs(summary: dict, suffix: str) -> tuple[int, float, float, list]:
    """Count, total, self and span durations of the names ending in ``suffix``."""
    count = total = self_time = 0
    durations: list[float] = []
    for name, f in summary["funcs"].items():
        if name == suffix or name.endswith("." + suffix):
            count += f["count"]
            total += f["total"]
            self_time += f["self"]
            durations += f["durations"]
    return count, total, self_time, durations


def _mean_us(summary: dict, suffix: str) -> float | None:
    count, total, _, _ = _funcs(summary, suffix)
    return total / count * 1e6 if count else None


def _pick(profile: dict, probe: str, fn):
    """``fn`` on the command's own profile, else on the named probe's."""
    value = fn(profile["main"])
    if value is None and probe in profile["probes"]:
        value = fn(profile["probes"][probe])
    return value if value is not None else 0.0


def per_layer_metrics(profile: dict, steps: int, load_rows: int,
                      match_frac: float | None) -> dict[str, float]:
    """Per-layer metrics from one traced command (``steps`` decision steps)."""
    main = profile["main"]
    duration = main["duration"]
    eng = {k: profile["engine"].get(k, 0.0)
           for k in ("full", "bare", "inference_only", "value_only")}
    steps = max(steps, 1)

    def per_step(suffix):
        return _funcs(main, suffix)[0] / steps

    def load_total(summary):
        count, total, _, _ = _funcs(summary, "load_replay_log")
        return total if count else None

    replay_probe = profile["probes"].get("replay", {})
    rows = load_rows if "load_replay_log" in main["funcs"] else replay_probe.get("rows", 1)
    load_s = _pick(profile, "replay", load_total)

    def replication_quantile(q):
        def fn(summary):
            durations = sorted(_funcs(summary, "run_replication")[3])
            if not durations:
                return None
            return durations[min(len(durations) - 1, int(q * len(durations)))]
        return fn

    def oracle(summary):
        count, total, _, _ = _funcs(summary, "oracle_truth_value")
        return total if count else None

    metrics = {
        "engine.step_us": eng["full"],
        "engine.bare_us": eng["bare"],
        "engine.inference_us": eng["inference_only"] - eng["bare"],
        "engine.value_us": eng["value_only"] - eng["bare"],
        "engine.self_us": _funcs(main, "run_stream")[2] / steps * 1e6,
        "environments.next_feature_us": _mean_us(main, "next_feature") or 0.0,
        "environments.outcome_us": _mean_us(main, "outcome") or 0.0,
        "environments.load_s": load_s,
        "environments.load_us_per_row": load_s / max(rows, 1) * 1e6,
        "environments.replay_step_us": _pick(profile, "replay",
                                             lambda s: _mean_us(s, "ReplayCursor.step")),
        "environments.replay_match_frac": match_frac if match_frac is not None
        else replay_probe.get("match_frac", 0.0),
        "policy.uniform_us": _mean_us(main, "uniform") or 0.0,
        "policy.uniform_per_step": per_step("uniform"),
        "models.link_us": _mean_us(main, "mean_from_index") or 0.0,
        "models.link_per_step": per_step("mean_from_index"),
        "inference.sandwich_us": _pick(profile, "inference",
                                       lambda s: _mean_us(s, "sandwich_covariance")),
        "inference.wald_us": _pick(profile, "inference",
                                   lambda s: _mean_us(s, "wald_report")),
        "value.oracle_s": _pick(profile, "oracle", oracle),
        "experiments.emit_us": _mean_us(main, "emit_report") or 0.0,
        "experiments.checkpoint_share":
            sum(_funcs(main, n)[2] for n in CHECKPOINT_FUNCS) / duration,
        "experiments.replication_s_p50": _pick(profile, "replication",
                                               replication_quantile(0.5)),
        "experiments.replication_s_p90": _pick(profile, "replication",
                                               replication_quantile(0.9)),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = main["layer_self"].get(layer, 0.0)
    metrics["tracing.self_coverage"] = sum(
        main["layer_self"].get(layer, 0.0) for layer in LAYERS) / duration
    return metrics
