"""Experiment orchestration: configs, single runs, Monte Carlo suites, tuning.

A configuration is one flat record of plain values, loadable from a
``key = value`` text file, with every knob a command-line flag can override.
Replication ``i`` of a suite draws its randomness from the stream seeded with
``seed XOR splitmix64(i)``, so suites are reproducible, replications are
independent, and parallel and serial execution produce identical results.
"""
from __future__ import annotations

import csv
import math
import typing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache, partial
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .engine import _batch_capacity, _run_synthetic, run_stream
from .environments import (ReplayCursor, ReplayLogError, SyntheticConfig, _log_record,
                           load_replay_log)
from .inference import _parameter_names, checkpoint_reports, normal_quantile
from .models import _FAMILIES, _HESSIAN_VARIANTS, make_model
from .policy import RngStream, derive_seed
from .types import ExplorationSchedule, InferenceReport, LearningSchedule
from .value import oracle_value

DEFAULT_BETA0_P3 = (0.3, -0.1, 0.7, 0.8, 0.5, -0.4)
DEFAULT_CHECKPOINT_GRID = (1_000, 10_000, 100_000)
# Replication index space is far below this; keeps the oracle stream disjoint.
_ORACLE_STREAM_INDEX = 2 ** 48


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """Every knob of an experiment, flat and serializable."""

    model: str = "linear"
    p: int = 3
    beta0: tuple[float, ...] | None = None
    sigma2: float = 0.01
    alpha: float = 0.5
    gamma: float = 0.501
    eps: str = "fixed:0.2"
    burn_in: int = 50
    horizon: int = 10_000
    reps: int = 1000
    seed: int = 20090501
    checkpoints: tuple[int, ...] | None = None
    hessian: str = "exact"
    aipw: bool = False
    ridge: bool = False
    level: float = 0.95
    workers: int = 1
    value_skip_burn_in: bool = False
    oracle_draws: int = 1_000_000
    replay_log: str | None = None
    trace: str | None = None
    out: str = "results"
    format: str = "csv"

    def validate(self) -> "ExperimentConfig":
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be {' or '.join(map(repr, allowed))}, "
                                  f"got {getattr(self, name)!r}")
        if not 0.0 < self.level < 1.0:
            raise ConfigError("confidence level must lie in (0, 1)")
        for name, kind in _KINDS.items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name, least in _LOWER_BOUNDS:
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        # Replay builds no synthetic truth, so it needs no beta0.
        if self.beta0 is not None or self.replay_log is None:
            beta0 = self.beta0_array()
            if beta0.shape[0] != 2 * self.p:
                raise ConfigError(f"beta0 has length {beta0.shape[0]}, expected {2 * self.p}")
            if not np.isfinite(beta0).all():
                raise ConfigError(f"beta0 entries must be finite, got {self.beta0!r}")
        for t in self.checkpoints or ():
            if not float(t).is_integer():
                raise ConfigError(f"checkpoint {t!r} is not a whole step")
        for t in self.effective_checkpoints():
            if not 1 <= t <= self.horizon:
                raise ConfigError(f"checkpoint {t} outside [1, {self.horizon}]")
        self.exploration_schedule()
        self.learning_schedule()
        return self

    def beta0_array(self) -> np.ndarray:
        if self.beta0 is not None:
            return np.asarray(self.beta0, dtype=np.float64)
        if self.p == 3:
            return np.asarray(DEFAULT_BETA0_P3)
        raise ConfigError("beta0 is required when p != 3")

    def effective_checkpoints(self) -> tuple[int, ...]:
        if self.checkpoints is not None:
            return tuple(sorted(set(int(t) for t in self.checkpoints)))
        # Default reporting grid, always including the final step so that a
        # short run still produces a report.
        grid = set(t for t in DEFAULT_CHECKPOINT_GRID if 1 <= t <= self.horizon)
        grid.add(self.horizon)
        return tuple(sorted(grid))

    def learning_schedule(self) -> LearningSchedule:
        return LearningSchedule(alpha=self.alpha, gamma=self.gamma)

    def exploration_schedule(self) -> ExplorationSchedule:
        return parse_eps_spec(self.eps, self.burn_in)

    def model_family(self):
        return make_model(self.model, self.p)

    def synthetic_config(self) -> SyntheticConfig:
        return SyntheticConfig(self.model_family(), self.beta0_array(), sigma2=self.sigma2)


def parse_eps_spec(spec: str, burn_in: int) -> ExplorationSchedule:
    """Parse ``fixed:F`` or ``decay:EXPONENT,FLOOR``."""
    try:
        kind, _, rest = spec.partition(":")
        if kind == "fixed":
            return ExplorationSchedule.fixed(float(rest), burn_in=burn_in)
        if kind == "decay":
            exp_s, floor_s = rest.split(",")
            return ExplorationSchedule.decaying(float(exp_s), float(floor_s), burn_in=burn_in)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad exploration spec {spec!r}: {exc}") from None
    raise ConfigError(f"bad exploration spec {spec!r}; use fixed:F or decay:EXP,FLOOR")


# ---------------------------------------------------------------------------
# Config file handling.
# ---------------------------------------------------------------------------

# Each field's type, with None dropped from an optional field's.
_KINDS = {name: typing.get_args(hint)[0] if type(None) in typing.get_args(hint) else hint
          for name, hint in typing.get_type_hints(ExperimentConfig).items()}
_CHOICES = {"model": tuple(_FAMILIES), "format": ("csv", "json"), "hessian": _HESSIAN_VARIANTS}
_LOWER_BOUNDS = (("p", 1), ("horizon", 1), ("reps", 1), ("workers", 1), ("oracle_draws", 1),
                 ("seed", 0), ("burn_in", 0), ("sigma2", 0))


def _coerce(key: str, raw: str):
    """Parse one config value given as text (a config file line or a flag)."""
    raw = raw.strip()
    kind = _KINDS[key]
    if key == "hessian" and raw == "paper":
        return "outer"  # the paper's name for the outer-product form
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if kind in (int, float):
            return kind(raw)
        if kind is not str:  # tuple[float, ...] or tuple[int, ...]
            return tuple(map(typing.get_args(kind)[0], raw.split(",")))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return raw


def load_config_file(path) -> dict:
    """Read a flat ``key = value`` config file (# starts a comment)."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _KINDS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _coerce(key, raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, then config-file values, then explicit overrides."""
    cfg = ExperimentConfig()
    for source in (file_values or {}), (overrides or {}):
        clean = {k: v for k, v in source.items() if v is not None}
        if clean:
            cfg = replace(cfg, **clean)
    return cfg.validate()


# ---------------------------------------------------------------------------
# Single runs.
# ---------------------------------------------------------------------------

@dataclass
class SingleRunOutput:
    reports: dict[int, InferenceReport]
    paths: list[Path]
    steps: int
    total_reward: float
    replay_stats: dict | None = None


def _step_losses(model, act, y, ubar) -> np.ndarray:
    """Loss of the pre-step average on each step of an ``on_steps`` block."""
    mu = model.mean_from_index_array(np.where(act, ubar[..., 1], ubar[..., 0]))
    return model.loss_from_mean(mu, y)


def _trace_steps(fh, model):
    """``on_steps`` hook of one stream writing the per-step trace CSV to the
    open file ``fh``."""
    writer = csv.writer(fh)
    writer.writerow(["step", "eps", "pi", "action", "reward", "loss"])

    def on_steps(t, act, greedy, y, eps, ubar):
        pi = np.where(greedy[:, 0], 1.0 - eps / 2.0, eps / 2.0)
        loss = _step_losses(model, act, y, ubar)
        writer.writerows(zip(t.tolist(), map(repr, eps.tolist()), map(repr, pi.tolist()),
                             act[:, 0].tolist(), map(repr, y[:, 0].tolist()),
                             map(repr, loss[:, 0].tolist())))
    return on_steps


def _synthetic(config: ExperimentConfig, reps, **kwargs):
    """The configured synthetic streams of ``(rep, seed)`` pairs as one batch."""
    return _run_synthetic(config.synthetic_config(), config.learning_schedule(),
                          config.exploration_schedule(), [seed for _, seed in reps],
                          config.horizon, hessian=config.hessian, aipw=config.aipw,
                          checkpoints=config.effective_checkpoints(),
                          skip_value_burn_in=config.value_skip_burn_in, **kwargs)


def run_single(config: ExperimentConfig) -> SingleRunOutput:
    """One seeded stream; writes one report file per checkpoint."""
    config.validate()
    cursor = None
    if config.replay_log is not None:
        log = load_replay_log(config.replay_log)
        if (n := log.x.shape[1]) != config.p:
            raise ConfigError(f"replay log rows have {n} features, but p is {config.p}")
        # Checked before the first step, since the seed decides which entries match.
        check = config.model_family().validate_reward
        for i, y in enumerate(log.reward.tolist()):
            try:
                check(y)
            except ValueError as exc:
                raise ReplayLogError(f"row {_log_record(config.replay_log, i)[0]}: {exc}") \
                    from None
        cursor = ReplayCursor(log)
    if config.trace is not None:
        Path(config.trace).parent.mkdir(parents=True, exist_ok=True)
    trace = nullcontext() if config.trace is None else open(config.trace, "w", newline="")
    with trace as fh:
        on_steps = None if fh is None else _trace_steps(fh, config.model_family())
        if cursor is None:
            (result,) = _synthetic(config, [(0, config.seed)], on_steps=on_steps)
        else:
            rng = RngStream(config.seed)
            result = run_stream(
                cursor, config.model_family(), config.learning_schedule(),
                config.exploration_schedule(), rng, config.horizon, hessian=config.hessian,
                aipw=config.aipw, skip_value_burn_in=config.value_skip_burn_in,
                checkpoints=config.effective_checkpoints(), on_steps=on_steps)
    reports = checkpoint_reports(result.checkpoints, config.level,
                                 ridge=config.ridge)
    out_dir = Path(config.out)
    paths = [emit_report(report, config.format, out_dir / f"report_t{t}.{config.format}")
             for t, report in reports.items()]
    replay_stats = None
    if cursor is not None:
        replay_stats = {
            "entries": len(cursor.log), "consumed": cursor.consumed,
            "matched": cursor.matched, "skipped": cursor.skipped,
            "matched_fraction": cursor.matched / cursor.consumed if cursor.consumed else math.nan,
        }
        stats_path = out_dir / f"replay_stats.{config.format}"
        paths.append(emit_report(replay_stats, config.format, stats_path))
    return SingleRunOutput(reports=reports, paths=paths, steps=result.steps,
                           total_reward=result.total_reward,
                           replay_stats=replay_stats)


# ---------------------------------------------------------------------------
# Monte Carlo suites.
# ---------------------------------------------------------------------------

@dataclass
class RepResult:
    rep: int
    seed: int
    reports: dict[int, InferenceReport] = field(default_factory=dict)
    error: str | None = None


def _mc_batch(job, collect_inference: bool = True) -> list[RepResult]:
    """The ``RepResult`` of each ``(rep, seed)`` pair of a ``(config, pairs)``
    job; a failure to report is recorded in the replication's ``error``."""
    config, reps = job
    streams = _synthetic(config, reps, collect_inference=collect_inference)
    out = []
    for (rep, seed), stream in zip(reps, streams):
        result = RepResult(rep=rep, seed=seed)
        try:
            result.reports = checkpoint_reports(stream.checkpoints, config.level,
                                                ridge=config.ridge)
        except Exception as exc:  # noqa: BLE001 - failures are recorded, not fatal
            result.error = f"{type(exc).__name__}: {exc}"
        out.append(result)
    return out


def run_replication(config: ExperimentConfig, rep: int, rep_seed: int | None = None,
                    collect_inference: bool = True) -> RepResult:
    """One Monte Carlo replication with its own derived random stream."""
    seed_r = derive_seed(config.seed, rep) if rep_seed is None else rep_seed
    return _mc_batch((config, [(rep, seed_r)]), collect_inference)[0]


def _map_jobs(worker, jobs, workers: int):
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(worker, jobs))


def _launch(batch_fn, configs, rep_seeds=None) -> list[list]:
    """Every config's replications (seed ``rep_seeds[i]`` or derived) in
    near-equal batches within the batch budget, on ``workers`` processes.

    The configs share ``reps``, ``seed``, ``p`` and ``workers``; the number
    of batches is a multiple of ``workers`` (at most one per replication).
    ``batch_fn((config, [(rep, seed), ...]))`` gives one result per pair.
    Returns, per config, the results in replication order.
    """
    first, n = configs[0], configs[0].reps
    reps = [(i, derive_seed(first.seed, i) if rep_seeds is None else int(rep_seeds[i]))
            for i in range(n)]
    batches = -(-n // _batch_capacity(first.p))
    batches = min(n, -(-batches // first.workers) * first.workers)
    parts = [reps[n * i // batches:n * (i + 1) // batches] for i in range(batches)]
    done = _map_jobs(batch_fn, [(cfg, part) for cfg in configs for part in parts],
                     first.workers)
    return [sum(done[k:k + batches], []) for k in range(0, len(done), batches)]


@dataclass
class McRow:
    t: int
    name: str
    ratio: float
    coverage: float
    coverage_se: float
    ci_length: float
    n_used: int
    n_excluded: int


@dataclass
class MonteCarloSummary:
    level: float
    reps: int
    failures: int
    truth_value: float
    truth_value_se: float
    rows: list[McRow] = field(default_factory=list)

    def row(self, t: int, name: str) -> McRow:
        for r in self.rows:
            if r.t == t and r.name == name:
                return r
        raise KeyError((t, name))


def oracle_truth_value(config: ExperimentConfig) -> tuple[float, float]:
    """Monte Carlo value of the greedy rule under the configured truth."""
    rng = RngStream(derive_seed(config.seed, _ORACLE_STREAM_INDEX))
    return oracle_value(config.model_family(), config.beta0_array(),
                        config.oracle_draws, rng)


def _mc_row(t: int, name: str, est, se, truth: float, z: float, n_excluded: int) -> McRow:
    """SE/SD ratio, coverage of ``truth`` with its binomial SE, and mean CI length."""
    est = np.array(est)
    se = np.array(se)
    if len(est) >= 2:
        sd = float(est.std(ddof=1))
        ratio = float(se.mean() / sd) if sd > 0 else math.nan
        cov = float((np.abs(est - truth) <= z * se).mean())
        cov_se = math.sqrt(cov * (1.0 - cov) / len(est))
        length = float((2.0 * z * se).mean())
    else:
        ratio = cov = cov_se = length = math.nan
    return McRow(t, name, ratio, cov, cov_se, length, len(est), n_excluded)


def _reject_stream_options(config: ExperimentConfig, command: str) -> None:
    """Suites run synthetic streams only, so a replay log or a trace would go unread."""
    for key in ("replay_log", "trace"):
        if getattr(config, key) is not None:
            raise ConfigError(f"{command} does not read {key} (--{key.replace('_', '-')})")


def run_monte_carlo(config: ExperimentConfig, rep_seeds=None,
                    collect_inference: bool = True,
                    write: bool = True) -> MonteCarloSummary:
    """R independent replications summarized as SE/SD ratio, coverage, CI length.

    ``rep_seeds`` overrides the derived per-replication seeds (testing hook).
    ``collect_inference=False`` skips the parameter accumulators (the plug-in
    sums and the sandwich covariances), for when only value statistics are
    needed; the summary then has value rows only.
    """
    config.validate()
    _reject_stream_options(config, "mc")
    if config.reps < 2:
        raise ConfigError("Monte Carlo suites need at least 2 replications")
    if rep_seeds is not None and len(rep_seeds) != config.reps:
        raise ConfigError("rep_seeds must have one entry per replication")
    truth_value, truth_value_se = oracle_truth_value(config)
    (results,) = _launch(partial(_mc_batch, collect_inference=collect_inference),
                         [config], rep_seeds)
    failures = sum(1 for r in results if r.error is not None)
    ok = [r for r in results if r.error is None]
    z = normal_quantile(0.5 * (1.0 + config.level))
    summary = MonteCarloSummary(level=config.level, reps=config.reps,
                                truth_value=truth_value, truth_value_se=truth_value_se,
                                failures=failures)
    truth = dict(zip(_parameter_names(2 * config.p), config.beta0_array()),
                 V_opt=truth_value, V_opt_aipw=truth_value)
    for t in config.effective_checkpoints():
        # Every replication's report has the same rows in the same order.
        for rows in zip(*(r.reports[t].rows for r in ok)):
            name = rows[0].name
            used = [row for row in rows if not math.isnan(row.se)]
            summary.rows.append(_mc_row(
                t, name, [row.estimate for row in used], [row.se for row in used],
                truth[name], z, len(rows) - len(used) + failures))
    if write:
        out_dir = Path(config.out)
        emit_report(summary, config.format, out_dir / f"mc_summary.{config.format}")
        meta = {"reps": config.reps, "failures": failures, "seed": config.seed,
                "truth_value": truth_value, "truth_value_se": truth_value_se,
                "level": config.level}
        emit_report(meta, "json", out_dir / "mc_meta.json")
    return summary


# ---------------------------------------------------------------------------
# Learning-rate tuning by streaming loss.
# ---------------------------------------------------------------------------

@dataclass
class TuneAlphaRow:
    alpha: float
    t: int
    loss_mean: float
    loss_p05: float
    loss_p95: float


@dataclass
class TuneAlphaResult:
    best_alpha: float
    final_loss: dict[float, float]
    rows: list[TuneAlphaRow]


def _tune_batch(job, grid) -> list[np.ndarray]:
    """Running mean of the pre-update losses at the steps of ``grid``, for each
    ``(rep, seed)`` pair of a ``(config, pairs)`` job: smooth, and its final
    point is the mean per-step loss of the whole run."""
    config, reps = job
    model = config.model_family()
    total = np.zeros(len(reps))
    means = np.empty((len(grid), len(reps)))

    def on_steps(t, act, greedy, y, eps, ubar):
        running = np.add.accumulate(
            np.concatenate((total[None], _step_losses(model, act, y, ubar))))
        total[:] = running[-1]
        hit = (grid >= t[0]) & (grid <= t[-1])
        means[hit] = running[grid[hit] - t[0] + 1] / grid[hit, None]

    # A diverging constant's overflows give non-finite losses, not warnings.
    with np.errstate(all="ignore"):
        _synthetic(config, reps, collect_inference=False, collect_value=False,
                   on_steps=on_steps)
    return list(means.T)


def tune_alpha(config: ExperimentConfig, alpha_grid, write: bool = True) -> TuneAlphaResult:
    """Compare running mean loss across step-size constants; the lowest finite
    final loss wins, and ``best_alpha`` is NaN when no final loss is finite."""
    config.validate()
    _reject_stream_options(config, "tune-alpha")
    try:
        alphas = [float(a) for a in alpha_grid]
    except ValueError as exc:
        raise ConfigError(f"alpha grid entries must be numbers: {exc}") from None
    if not alphas:
        raise ConfigError("alpha grid must not be empty")
    if not all(map(math.isfinite, alphas)):
        raise ConfigError(f"alpha grid entries must be finite, got {tuple(alphas)!r}")
    if any(a <= 0 for a in alphas):
        raise ConfigError("alpha grid entries must be positive")
    repeated = [a for k, a in enumerate(alphas) if a in alphas[:k]]
    if repeated:
        raise ConfigError(f"alpha grid repeats {repeated[0]:g}")
    # Log-spaced steps at which the trajectories are reported.
    grid = np.unique(np.geomspace(1, config.horizon, num=min(60, config.horizon)).astype(int))
    trajs = _launch(partial(_tune_batch, grid=grid), [replace(config, alpha=a) for a in alphas])
    rows: list[TuneAlphaRow] = []
    final_loss: dict[float, float] = {}
    for a, reps in zip(alphas, trajs):
        traj = np.vstack(reps)
        with np.errstate(all="ignore"):
            mean = traj.mean(axis=0)
            p05 = np.percentile(traj, 5, axis=0)
            p95 = np.percentile(traj, 95, axis=0)
        for k, t in enumerate(grid):
            rows.append(TuneAlphaRow(a, int(t), float(mean[k]), float(p05[k]), float(p95[k])))
        final_loss[a] = float(mean[-1])
    # A diverged constant has a NaN (or infinite) loss and never wins.
    finite = {a: v for a, v in final_loss.items() if math.isfinite(v)}
    best = min(finite, key=finite.get) if finite else math.nan
    result = TuneAlphaResult(rows=rows, final_loss=final_loss, best_alpha=best)
    if write:
        out_dir = Path(config.out)
        emit_report(result, config.format, out_dir / f"tune_alpha.{config.format}")
        flat = {"best_alpha": best}
        flat.update({f"final_loss_{a:g}": v for a, v in final_loss.items()})
        emit_report(flat, config.format, out_dir / f"tune_alpha_summary.{config.format}")
    return result


# ---------------------------------------------------------------------------
# Report emission.
# ---------------------------------------------------------------------------

def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _tabulate(obj) -> tuple[list[str], list[list]]:
    """A dict is one row under its keys; a report is its ``rows`` under the
    fields of the declared row type."""
    if isinstance(obj, dict):
        header = list(obj.keys())
        return header, [[obj[k] for k in header]]
    if not is_dataclass(obj) or "rows" not in _field_names(type(obj)):
        raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")
    row_type = typing.get_args(typing.get_type_hints(type(obj))["rows"])[0]
    header = list(_field_names(row_type))
    return header, [[getattr(r, name) for name in header] for r in obj.rows]


def _json_scalar(v) -> str | None:
    """JSON text of a scalar as ``json.dumps`` writes it, NaN and +-inf as
    null; None when ``v`` is not a scalar."""
    if isinstance(v, (float, np.floating)):
        return float.__repr__(float(v)) if math.isfinite(v) else "null"
    if isinstance(v, str):
        return _quote(v)
    if v is None:
        return "null"
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return int.__repr__(int(v))
    return None


def _json_key(k) -> str:
    """A dict key as ``json.dumps`` writes it: always a string."""
    if isinstance(k, str):
        return _quote(k)
    if isinstance(k, float):
        return _quote("NaN" if k != k else "Infinity" if k == math.inf
                      else "-Infinity" if k == -math.inf else float.__repr__(k))
    if k is True or k is False or k is None or isinstance(k, int):
        return _quote(_json_scalar(k))
    raise ConfigError(f"cannot serialize a key of type {type(k).__name__}")


@cache
def _record_template(cls, indent: str) -> str:
    """``%`` template of a record whose fields all hold scalars, at ``indent``."""
    inner = indent + "  "
    keys = [f"{inner}{_quote(name)}: %s" for name in _field_names(cls)]
    return "{\n" + ",\n".join(keys) + f"\n{indent}}}" if keys else "{}"


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)`` of a report, with records written as
    dicts in field order and NaN and +-inf as null, so the output is strictly
    valid JSON."""
    text = _json_scalar(obj)
    if text is not None:
        return text
    inner = indent + "  "
    if isinstance(obj, list):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join(inner + _json_text(v, inner) for v in obj) + f"\n{indent}]"
    if isinstance(obj, dict):
        items = [(_json_key(k), v) for k, v in obj.items()]
    elif is_dataclass(obj) and not isinstance(obj, type):
        names = _field_names(type(obj))
        values = [getattr(obj, name) for name in names]
        texts = [_json_scalar(v) for v in values]
        if None not in texts:
            return _record_template(type(obj), indent) % tuple(texts)
        items = [(_quote(name), v) for name, v in zip(names, values)]
    else:
        raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")
    if not items:
        return "{}"
    return "{\n" + ",\n".join(f"{inner}{k}: {_json_text(v, inner)}" for k, v in items) \
        + f"\n{indent}}}"


def emit_report(obj, fmt: str, path) -> Path:
    """Write a report or summary; creates missing directories.

    CSV uses a fixed column order with six significant digits; JSON keeps full
    float precision with identical field names.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        header, rows = _tabulate(obj)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt_cell(v) for v in row) + "\n")
    elif fmt == "json":
        text = _json_text(obj)
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        raise ConfigError(f"unknown report format {fmt!r}; use csv or json")
    return path
