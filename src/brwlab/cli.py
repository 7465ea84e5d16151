"""Command line front end.

Exit codes (exhaustive): 0 success; 1 any validation failure, including
malformed flags and model files; 2 resource refusal (enumeration too
large, node cap hit, excessive Monte Carlo discards, tilted-mass
overflow or underflow to zero, fixed-point non-convergence), with
partial artifacts written and flagged on stderr where they exist; 3 an
exact identity check failed, which signals an implementation bug, never
a property of the law under study.

All randomness flows from --seed; simulate, spine and mc refuse to run
without it, so no run ever depends on the wall clock.  Replicate
streams are split deterministically from the seed, which makes output
files byte-identical across reruns.  --workers is accepted and
validated for compatibility; every subcommand runs on one thread.

Artifacts: stdout by default, --out to write a file.  JSON renders
non-finite floats as the strings "Infinity", "-Infinity", "NaN"; CSV
uses Python float repr (shortest round-trip form).
"""

from __future__ import annotations

import csv
import ctypes  # numpy imports it already
import io
import json
import math
import sys
from functools import cache

import click
import numpy as np

# grow_tree, martingale_trajectory and grow_spined_tree are unused here but
# stay bound: perfbench/tracing.py patches them in this module
from .brw import GrowthCaps, grow_occupation, grow_tree, martingale_trajectory  # noqa: F401
from .errors import (
    BrwError,
    DomainError,
    MassOverflowError,
    NoConvergenceError,
    ResourceError,
    TooLargeError,
    ValidationError,
    ZeroMassError,
)
from .mc import (
    McConfig,
    mc_extinction,
    mc_importance_identity,
    mc_mean_w,
    mc_spine_slope,
    mc_triviality_scan,
    parse_functional,
)
from .offspring import classify, extinction_probability, law_from_json
from .oracle import run_verify
# replicate_rng is unused here but stays bound: perfbench/tracing.py
# patches it in this module
from .rng import replicate_rng  # noqa: F401
from .spine import grow_spined_batch, grow_spined_tree  # noqa: F401


# ---------------------------------------------------------------------------
# parsing and serialization helpers
# ---------------------------------------------------------------------------


def _require(value, flag: str):
    if value is None:
        raise DomainError(f"{flag} is required for this subcommand")
    return value


def _parse_alphas(text: str) -> list[float]:
    """Comma list ("0,1,5") or linspace triple ("0:2:5")."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            n = int(count)
            if n < 1:
                raise ValueError
            return [float(a) for a in np.linspace(float(lo), float(hi), n)]
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"cannot parse alpha list {text!r}") from None
    if not values:
        raise DomainError("empty alpha list")
    return values


def _single_alpha(text: str) -> float:
    values = _parse_alphas(text)
    if len(values) != 1:
        raise DomainError("this subcommand takes exactly one alpha")
    return values[0]


def _parse_depth_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise DomainError(f"cannot parse depth grid {text!r}") from None
    if not grid:
        raise DomainError("empty depth grid")
    return grid


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _caps(max_nodes: int | None) -> GrowthCaps:
    if max_nodes is None:
        return GrowthCaps()
    if max_nodes < 1:
        raise DomainError("--max-nodes must be positive")
    return GrowthCaps(max_nodes=max_nodes)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return x
    return obj


def _json_text(payload) -> str:
    return json.dumps(_sanitize(payload), indent=2, allow_nan=False) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# cell types whose str() is their _cell text, which csv never quotes
_PLAIN_CELLS = frozenset((int, float, bool, type(None)))


def _csv_text(header: list[str], rows) -> str:
    """``header`` and ``rows`` as ``csv.writer`` writes their ``_cell``
    texts.  A table of plain numbers, bools and ``None`` is formatted
    column by column, without a Python call per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    columns = list(zip(*rows))
    if all(_PLAIN_CELLS.issuperset(map(type, cells)) for cells in columns):
        lines = list(map(",".join, zip(*(map(str, cells) for cells in columns))))
        buf.write("\n".join(lines + [""]))
    else:
        writer.writerows(zip(*(map(_cell, cells) for cells in columns)))
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise DomainError(f"cannot write {out}: {e}") from None


def _emit_rows(header: list[str], rows: list[tuple], out: str | None, fmt: str,
               keys: list[str] | None = None) -> None:
    """``rows`` as CSV under ``header``, or as a JSON list of objects keyed
    by ``keys`` (``header`` by default)."""
    if fmt == "csv":
        _emit(_csv_text(header, rows), out)
    else:
        _emit(_json_text([dict(zip(keys or header, row)) for row in rows]), out)


def _load_model(path: str):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as e:
        raise DomainError(f"cannot read model file {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise DomainError(f"model file {path} is not valid JSON: {e}") from None
    return law_from_json(payload)


# ---------------------------------------------------------------------------
# command group and exit-code dispatch
# ---------------------------------------------------------------------------


_FORMATS = click.Choice(["json", "csv"])


@click.group(name="brwlab")
def cli():
    """Branching random walk laboratory: classification, exact identity
    verification, trajectory simulation and seeded Monte Carlo."""


def main(argv=None) -> None:
    sys.exit(_dispatch(argv))


# glibc's mallopt parameter number (malloc.h) and the free heap top it keeps
_M_TOP_PAD = -2
_TOP_PAD = 16 << 20


@cache
def _keep_heap_top() -> None:
    """Keep 16 MiB free at the top of glibc's heap instead of handing it
    back to the OS.

    Batched growth allocates and frees its per-generation temporaries
    (uniforms, atoms, broods, displacements) once per generation.  With
    the default trimming every large free returns the heap top, so the
    next generation faults its pages in afresh: after a mean_w run, an
    extinction run (coin pair, depth 30, 5,000 reps) took about 5,700
    minor page faults, and about 220 with the pad.  The pad, like
    ``M_TRIM_THRESHOLD`` (which cut the faults as well), turns off
    glibc's sliding mmap threshold, so an array over 128 KiB that does
    not fit the free top comes from ``mmap``: a deep ``verify`` (8.4M
    outcomes) runs about 8% slower with the pad, 35% with the threshold.
    Fixing ``M_MMAP_THRESHOLD`` as well (1 or 32 MiB) won that time back
    but raised that run's peak memory by 27 or 50 MB, so it is not set.
    Arithmetic and artifacts do not change.  Where the C library has no
    ``mallopt`` (not glibc, or not Linux) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol; no C library handle
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD)


def _dispatch(argv=None) -> int:
    """Run the CLI, folding every failure into the documented exit codes."""
    _keep_heap_top()
    try:
        cli(args=argv, standalone_mode=False)
        return 0
    except SystemExit as e:
        return int(e.code or 0)
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.ClickException as e:
        click.echo(f"error: {e.format_message()}", err=True)
        return 1
    except TooLargeError as e:
        click.echo(
            f"TOO_LARGE: estimated {e.estimate} outcomes exceeds cap {e.cap}",
            err=True,
        )
        return 2
    except ValidationError as e:
        click.echo(f"error: {e}", err=True)
        return 1
    except (ResourceError, MassOverflowError, ZeroMassError, NoConvergenceError) as e:
        click.echo(f"refused: {e}", err=True)
        return 2
    except BrwError as e:
        click.echo(f"error: {e}", err=True)
        return 1
    except MemoryError:
        click.echo("refused: out of memory; lower --reps, --depth or --max-nodes", err=True)
        return 2


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

_PROFILE_FIELDS = [
    "alpha",
    "m",
    "m_prime",
    "drift",
    "log_m",
    "llogl",
    "gap",
    "q",
    "classification",
    "reason",
]


@cli.command("classify")
@click.option("--model", "model_path", default=None, help="Model JSON path.")
@click.option("--alpha", "alpha_text", default=None, help="Alpha list or a:b:n grid.")
@click.option("--out", default=None, help="Output path (default stdout).")
@click.option("--format", "fmt", type=_FORMATS, default="json", help="json or csv.")
def classify_cmd(model_path, alpha_text, out, fmt):
    """Tilted-mass profile and martingale-limit classification per alpha."""
    law = _load_model(_require(model_path, "--model"))
    alphas = _parse_alphas(_require(alpha_text, "--alpha"))
    q = extinction_probability(law)
    profiles = []
    for a in alphas:
        p = classify(law, a)._asdict()
        p["classification"] = p["classification"].name
        p["q"] = q
        profiles.append(p)
    if fmt == "json":
        _emit(_json_text({"model": model_path, "profiles": profiles}), out)
    else:
        rows = [[p[k] for k in _PROFILE_FIELDS] for p in profiles]
        _emit(_csv_text(_PROFILE_FIELDS, rows), out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_FIELDS = ["check", "law", "alpha", "depth", "max_discrepancy", "outcomes", "pass"]


@cli.command("verify")
@click.option("--model", "model_path", default=None)
@click.option("--alpha", "alpha_text", default=None)
@click.option("--depth", type=int, default=None)
@click.option("--out", default=None)
@click.option("--format", "fmt", type=_FORMATS, default="json")
def verify_cmd(model_path, alpha_text, depth, out, fmt):
    """Run all six exact identity checks by exhaustive enumeration."""
    law = _load_model(_require(model_path, "--model"))
    alphas = _parse_alphas(_require(alpha_text, "--alpha"))
    depth = _require(depth, "--depth")
    if depth < 0:
        raise DomainError("--depth must be nonnegative")
    results = [res for a in alphas for res in run_verify(law, a, depth)]
    rows = [(res.check, model_path, res.alpha, res.depth, res.max_discrepancy, res.outcomes,
             res.passed) for res in results]
    _emit_rows(_VERIFY_FIELDS, rows, out, fmt)
    if not all(res.passed for res in results):
        click.echo("error: identity check failure: this is an implementation bug", err=True)
        sys.exit(3)


# ---------------------------------------------------------------------------
# simulate and spine, and the options they share with mc
# ---------------------------------------------------------------------------


def _refuse_if(refusal: str | None) -> None:
    """After the (partial) artifact is written, report a cap hit; exit 2."""
    if refusal is not None:
        click.echo(refusal, err=True)
        sys.exit(2)


def _run_options(fmt: str):
    """The options that simulate, spine and mc share; only the default
    of --format differs between them."""
    options = [
        click.option("--model", "model_path", default=None),
        click.option("--alpha", "alpha_text", default=None),
        click.option("--depth", type=int, default=None),
        click.option("--reps", type=int, default=None),
        click.option("--seed", type=int, default=None),
        click.option("--max-nodes", type=int, default=None),
        click.option("--workers", type=int, default=1),
        click.option("--out", default=None),
        click.option("--format", "fmt", type=_FORMATS, default=fmt),
    ]

    def decorate(command):
        for option in reversed(options):
            command = option(command)
        return command

    return decorate


def _sampler_args(model_path, alpha_text, depth, reps, seed, max_nodes, workers):
    """(law, alpha, depth, reps, seed, caps) of a simulate or spine run."""
    law = _load_model(_require(model_path, "--model"))
    alpha = _single_alpha(_require(alpha_text, "--alpha"))
    depth = _require(depth, "--depth")
    reps = _require(reps, "--reps")
    seed = _check_seed(_require(seed, "--seed"))
    if depth < 0 or reps < 1 or workers < 1:
        raise DomainError("need depth >= 0, reps >= 1, workers >= 1")
    return law, alpha, depth, reps, seed, _caps(max_nodes)


@cli.command("simulate")
@_run_options(fmt="csv")
def simulate_cmd(out, fmt, **run):
    """Grow plain-law replicates; long-format per-generation trajectory
    artifact.

    A replicate that hits the node cap (counted in tree nodes) contributes
    the generations it completed; the run stops there, flags it on stderr,
    and exits 2.  Replicates grow as occupation measures, in batches on one
    thread; --workers is validated but has no effect.
    """
    law, alpha, depth, reps, seed, caps = _sampler_args(**run)
    grown = grow_occupation(law, depth, caps, seed, reps, alpha)
    all_rows: list[tuple] = []
    refusal = None
    for r, capped_at in enumerate(grown.capped_at.tolist()):
        last = depth if capped_at < 0 else capped_at - 1
        rows = zip(grown.population[r, : last + 1].tolist(), grown.log_w[r, : last + 1].tolist())
        all_rows.extend((r, n, z, w) for n, (z, w) in enumerate(rows))
        if capped_at >= 0:
            refusal = (
                f"refused: replicate {r} hit max-nodes {caps.max_nodes} growing generation "
                f"{capped_at}; partial trajectory written, later replicates dropped"
            )
            break
    _emit_rows(["replicate", "n", "Z_n", "log_w"], all_rows, out, fmt)
    _refuse_if(refusal)


@cli.command("spine")
@_run_options(fmt="csv")
def spine_cmd(out, fmt, **run):
    """Grow size-biased (tree, ray) pairs; per-level ray artifact.

    Columns: ray position, cumulative log change-of-measure weight along
    the ray, and the embedded tree's log martingale value.  A replicate
    that hits the node cap is flagged and the run exits 2 (a partial
    spined tree has no consistent reading, so it contributes no rows,
    and later replicates are dropped).  Replicates grow in batches on
    one thread; --workers is validated but has no effect.
    """
    law, alpha, depth, reps, seed, caps = _sampler_args(**run)
    grown, log_weight = grow_spined_batch(law, alpha, depth, caps, seed, reps)
    all_rows: list[tuple] = []
    refusal = None
    for r, capped_at in enumerate(grown.capped_at.tolist()):
        if capped_at >= 0:
            refusal = (
                f"refused: replicate {r} hit max-nodes {caps.max_nodes} at generation "
                f"{capped_at}; run truncated before this replicate"
            )
            break
        columns = (grown.ray_position[r], log_weight[r], grown.log_w[r])
        all_rows.extend((r, k, *row) for k, row in enumerate(zip(*(c.tolist() for c in columns))))
    _emit_rows(["replicate", "k", "S(v_k)", "spine_log_weight", "log_w"], all_rows, out, fmt,
               keys=["replicate", "k", "S", "spine_log_weight", "log_w"])
    _refuse_if(refusal)


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

_ESTIMATORS = ("mean_w", "spine_slope", "extinction", "triviality_scan", "importance")

# artifact key -> record field, in artifact order: the JSON payload and the
# CSV header of each mc record, and the per-depth CSV columns of a scan
_SUMMARY_KEYS = {
    "estimator": "estimator", "estimate": "estimate", "se": "se", "n": "n",
    "discarded": "discarded", "seed": "master_seed", "reference_value": "reference",
    "pass": "passed", "unreliable": "unreliable", "note": "note",
}
_SCAN_KEYS = {
    "estimator": "estimator", "alpha": "alpha", "grid": "grid", "medians": "medians",
    "means": "means", "survivors": "survivors", "surviving_fractions": "fractions", "n": "n",
    "discarded": "discarded", "seed": "master_seed", "verdict": "verdict",
    "classification": "classification", "agrees": "agrees",
}
_SCAN_COLUMNS = {
    "depth": "grid", "median_log_w": "medians", "mean_log_w": "means",
    "survivors": "survivors", "surviving_fraction": "fractions",
}


def _fields(record, keys: dict[str, str]) -> dict:
    return {key: getattr(record, field) for key, field in keys.items()}


@cli.command("mc")
@_run_options(fmt="json")
@click.option("--depth-grid", "depth_grid_text", default=None)
@click.option("--estimator", default=None, help=", ".join(_ESTIMATORS))
@click.option("--functional", default=None, help="importance estimator statistic.")
@click.option("--values-out", default=None, help="Also write per-replicate values CSV.")
def mc_cmd(
    model_path,
    alpha_text,
    depth,
    depth_grid_text,
    reps,
    seed,
    estimator,
    functional,
    max_nodes,
    workers,
    out,
    fmt,
    values_out,
):
    """Seeded Monte Carlo estimators with reference values and 4-sigma bands.

    A failed band is reported in the payload (exit stays 0); identity
    failures are the verify subcommand's business.  Every estimator runs
    its replicates in batches on one thread; --workers is validated but
    has no effect.
    """
    law = _load_model(_require(model_path, "--model"))
    estimator = _require(estimator, "--estimator")
    if estimator not in _ESTIMATORS:
        raise DomainError(f"unknown estimator {estimator!r}; pick from {_ESTIMATORS}")
    reps = _require(reps, "--reps")
    seed = _check_seed(_require(seed, "--seed"))
    if workers < 1:
        raise DomainError("--workers must be >= 1")
    caps = _caps(max_nodes)
    keep = values_out is not None

    if estimator == "triviality_scan":
        alpha = _single_alpha(_require(alpha_text, "--alpha"))
        grid = _parse_depth_grid(_require(depth_grid_text, "--depth-grid"))
        cfg = McConfig(reps, max(grid), seed, caps)
        report = mc_triviality_scan(law, alpha, grid, cfg, keep_values=keep)
        payload, columns = _fields(report, _SCAN_KEYS), _fields(report, _SCAN_COLUMNS)
        table = list(columns), zip(*columns.values())
        values = ["replicate", "n", "log_w"], (
            (rep, d, float(report.values[i, j]))
            for i, rep in enumerate(report.kept)
            for j, d in enumerate(report.grid)
        )
    else:
        depth = _require(depth, "--depth")
        cfg = McConfig(reps, depth, seed, caps)
        if estimator == "extinction":
            summary = mc_extinction(law, cfg, keep_values=keep)
        else:
            alpha = _single_alpha(_require(alpha_text, "--alpha"))
            if estimator == "mean_w":
                summary = mc_mean_w(law, alpha, cfg, keep_values=keep)
            elif estimator == "spine_slope":
                summary = mc_spine_slope(law, alpha, cfg, keep_values=keep)
            else:
                fn = parse_functional(_require(functional, "--functional"))
                summary = mc_importance_identity(law, alpha, fn, cfg, keep_values=keep)
        payload = _fields(summary, _SUMMARY_KEYS)
        table = list(payload), [list(payload.values())]
        values = ["replicate", "value"], (
            (rep, float(summary.values[i])) for i, rep in enumerate(summary.kept)
        )
    _emit(_json_text(payload) if fmt == "json" else _csv_text(*table), out)
    if keep:
        _emit(_csv_text(*values), values_out)


if __name__ == "__main__":
    main()
