"""Command line front end.

Exit codes (exhaustive): 0 success; 1 any validation failure, including
malformed flags and model files; 2 resource refusal, any ``ResourceError``
(enumeration too large, node cap hit, excessive Monte Carlo discards,
tilted-mass overflow or underflow to zero, fixed-point non-convergence), with
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
uses Python float repr (shortest round-trip form), formats each distinct
value of a column once, and writes the bytes csv.writer would.
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
    ResourceError,
    TooLargeError,
    ValidationError,
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


def _column_texts(column) -> list[str]:
    """The ``_cell`` texts of one column (see ``_csv_text``)."""
    if not isinstance(column, np.ndarray):
        return list(map(_cell, column))
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = list(map(_cell, distinct.view(column.dtype).tolist()))
    return np.array(texts, dtype=object)[inverse].tolist()


def _csv_text(columns: dict) -> str:
    """``columns``, arrays or lists of cells, as ``csv.writer`` writes
    their ``_cell`` texts under a header of their names.

    A float's repr is the dear part of a cell, and long-format columns
    repeat their values, so an array column formats each distinct value
    once.  Float arrays are keyed on their bits, as a memo keyed on
    values would merge ``0.0`` and ``-0.0``; over a list it would merge
    ``0``, ``0.0`` and ``False`` too, so a list is formatted cell by cell.
    Array texts (int, bool, float64) need no quoting; a list column may
    hold strings, so its table goes through ``csv.writer``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    rows = zip(*map(_column_texts, columns.values()))
    if all(isinstance(c, np.ndarray) for c in columns.values()):
        buf.write("\n".join([*map(",".join, rows), ""]))
    else:
        writer.writerows(rows)
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


def _emit_table(columns: dict, out: str | None, fmt: str,
                keys: list[str] | None = None) -> None:
    """``columns`` as CSV under their names, or as a JSON list of row
    objects keyed by ``keys`` (the names by default)."""
    if fmt == "csv":
        _emit(_csv_text(columns), out)
    else:
        cells = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values())
        _emit(_json_text([dict(zip(keys or columns, row)) for row in zip(*cells)]), out)


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


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color)
        ctx.exit()


# Every command states the text of its --help option and adds it where
# click adds its own, last.  Click builds its own on a process's first
# command and looks the text up with gettext, which imports locale and
# searches for message catalogs that brwlab does not ship, about a
# millisecond; --help reads the same either way.
_help_option = click.option("--help", is_flag=True, expose_value=False, is_eager=True,
                            callback=_show_help, help="Show this message and exit.")


@_help_option
@click.group(name="brwlab", add_help_option=False)
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
    except ResourceError as e:
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


@_help_option
@cli.command("classify", add_help_option=False)
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
        _emit(_csv_text({k: [p[k] for p in profiles] for k in _PROFILE_FIELDS}), out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@_help_option
@cli.command("verify", add_help_option=False)
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
    _emit_table({"check": [r.check for r in results], "law": [model_path] * len(results),
                 "alpha": [r.alpha for r in results], "depth": [r.depth for r in results],
                 "max_discrepancy": [r.max_discrepancy for r in results],
                 "outcomes": [r.outcomes for r in results],
                 "pass": [r.passed for r in results]}, out, fmt)
    if not all(res.passed for res in results):
        click.echo("error: identity check failure: this is an implementation bug", err=True)
        sys.exit(3)


# ---------------------------------------------------------------------------
# simulate and spine, and the options they share with mc
# ---------------------------------------------------------------------------


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


@_help_option
@cli.command("simulate", add_help_option=False)
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
    keep = np.ones(grown.population.shape, dtype=bool)
    capped = np.flatnonzero(grown.capped_at >= 0)
    if capped.size:
        r, capped_at = int(capped[0]), int(grown.capped_at[capped[0]])
        keep[r + 1:] = False
        keep[r, capped_at:] = False
    replicate, n = np.nonzero(keep)
    _emit_table({"replicate": replicate, "n": n, "Z_n": grown.population[keep],
                 "log_w": grown.log_w[keep]}, out, fmt)
    if capped.size:
        click.echo(f"refused: replicate {r} hit max-nodes {caps.max_nodes} growing generation "
                   f"{capped_at}; partial trajectory written, later replicates dropped", err=True)
        sys.exit(2)


@_help_option
@cli.command("spine", add_help_option=False)
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
    keep = np.ones(grown.log_w.shape, dtype=bool)
    capped = np.flatnonzero(grown.capped_at >= 0)
    keep[capped[0] if capped.size else reps:] = False
    replicate, k = np.nonzero(keep)
    _emit_table({"replicate": replicate, "k": k, "S(v_k)": grown.ray_position[keep],
                 "spine_log_weight": log_weight[keep], "log_w": grown.log_w[keep]}, out, fmt,
                keys=["replicate", "k", "S", "spine_log_weight", "log_w"])
    if capped.size:
        click.echo(f"refused: replicate {capped[0]} hit max-nodes {caps.max_nodes} at generation "
                   f"{grown.capped_at[capped[0]]}; run truncated before this replicate", err=True)
        sys.exit(2)


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


@_help_option
@cli.command("mc", add_help_option=False)
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

    if estimator == "triviality_scan":
        alpha = _single_alpha(_require(alpha_text, "--alpha"))
        grid = _parse_depth_grid(_require(depth_grid_text, "--depth-grid"))
        cfg = McConfig(reps, max(grid), seed, caps)
        report = mc_triviality_scan(law, alpha, grid, cfg)
        payload, table = _fields(report, _SCAN_KEYS), _fields(report, _SCAN_COLUMNS)
        values = {"replicate": np.repeat(report.kept, len(grid)),
                  "n": np.tile(grid, report.kept.size), "log_w": report.values.ravel()}
    else:
        depth = _require(depth, "--depth")
        cfg = McConfig(reps, depth, seed, caps)
        if estimator == "extinction":
            summary = mc_extinction(law, cfg)
        else:
            alpha = _single_alpha(_require(alpha_text, "--alpha"))
            if estimator == "mean_w":
                summary = mc_mean_w(law, alpha, cfg)
            elif estimator == "spine_slope":
                summary = mc_spine_slope(law, alpha, cfg)
            else:
                fn = parse_functional(_require(functional, "--functional"))
                summary = mc_importance_identity(law, alpha, fn, cfg)
        payload = _fields(summary, _SUMMARY_KEYS)
        table = {key: [value] for key, value in payload.items()}
        values = {"replicate": summary.kept, "value": summary.values}
    _emit(_json_text(payload) if fmt == "json" else _csv_text(table), out)
    if values_out is not None:
        _emit(_csv_text(values), values_out)


if __name__ == "__main__":
    main()
