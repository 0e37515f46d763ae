"""Command line interface: ``mvdlm filter`` and ``mvdlm simulate``.

Configuration is a single INI-style file with named blocks. Matrices are
written as bracketed row lists, with ``identity``, ``zeros`` and ``ones``
accepted for vector and matrix values, and a scalar accepted for a vector or
a square matrix (a constant diagonal). These are all the sections and keys
(case-insensitive); any other is an error:

    [model]
    d = 1
    p = 2
    r = 1
    F = [[1.0]]
    G = identity
    V = identity
    discount = 0.8          ; exactly one of discount / W, e.g. W = [[0.1]]

    [prior]
    m0 = zeros              ; optional, default zeros
    P0 = 1e6
    S0 = identity
    N0 = 1.0
    v = 2                   ; optional, default p

    [io]
    mode = both             ; new | classical | both (default new)

    [simulate]              ; for mvdlm simulate; needs p = 2, r = 1
    T = 100
    corr = 0.8              ; optional from here on; defaults as LocalLevelConfig
    obs_var = [1.0, 1.0]
    level_var = [0.05, 0.05]
    seed = 0
    replications = 1
    pattern = {24: [2], 60: [1, 2]}

Data CSV: one row per time, header ``y<j>`` for r = 1 or ``y<j>_<k>`` for
r >= 2 (variable j, replicate k, both 1-based). Empty cells or ``NA`` (any
case) are missing.

Exit codes: 0 success, 2 configuration or input error (an unreadable file
included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import csv
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dlm
from .distributions import MiwParams, _count
from .dlm import ModelSpec, NmiwState
from .errors import ConfigError, DomainError, MvdlmError, ParseError
from .simulate import (
    LocalLevelConfig,
    MissingPattern,
    _missing_mask,
    apply_missing,
    gen_local_level,
    replicate_experiment,
)

__all__ = ["RunConfig", "cmd_filter", "cmd_simulate", "load_config", "main", "parse_csv", "write_csv"]

_MODES = ("new", "classical", "both")
# [simulate] keys that are LocalLevelConfig fields, with their shapes
_LOCAL_LEVEL = {"T": (), "corr": (), "obs_var": (2,), "level_var": (2,), "seed": ()}
# every key each section may set, as configparser lower-cases them
_KEYS = {
    "model": ("d", "p", "r", "f", "g", "v", "w", "discount"),
    "prior": ("m0", "p0", "s0", "n0", "v"),
    "io": ("mode",),
    "simulate": (*(key.lower() for key in _LOCAL_LEVEL), "replications", "pattern"),
}


@dataclass(eq=False)
class SimulateBlock:
    cfg: LocalLevelConfig
    pattern: MissingPattern
    replications: int


@dataclass(eq=False)
class RunConfig:
    """Validated run configuration: model, prior, mode, optional simulate block."""

    model: ModelSpec
    prior: NmiwState
    mode: str
    simulate: SimulateBlock | None


def _literal(text: str, section: str, key: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise ConfigError(f"cannot parse value {text!r}", section, key) from exc


def _parse(text: str, shape: tuple[int, ...], section: str, key: str):
    """A config value of ``shape``: a number for ``()`` (an int literal stays
    an exact int), else an array. A scalar fills a vector or a square
    matrix's diagonal; ``zeros``, ``ones`` and ``identity`` name arrays."""
    text = text.strip()
    if shape and text in ("zeros", "ones"):
        return np.full(shape, float(text == "ones"))
    if shape and text == "identity":
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ConfigError(f"identity requires a square target, need shape {shape}", section, key)
        return np.eye(shape[0])
    value = _literal(text, section, key)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse value {text!r} as numbers", section, key) from exc
    if not np.isfinite(arr).all():
        raise ConfigError(f"values must be finite, got {text!r}", section, key)
    if arr.ndim == 0 and len(shape) == 1:
        return arr * np.ones(shape)
    if arr.ndim == 0 and len(shape) == 2 and shape[0] == shape[1]:
        return arr * np.eye(shape[0])
    if arr.shape != shape:
        raise ConfigError(f"expected shape {shape}, got {arr.shape}", section, key)
    if shape:
        return arr
    return value if type(value) is int else float(arr)


def _get(parser: configparser.ConfigParser, section: str, key: str, shape: tuple, required=False):
    """``key`` of ``section`` parsed to ``shape``, or None if the file omits it."""
    if parser.has_option(section, key):
        return _parse(parser.get(section, key), shape, section, key)
    if required:
        raise ConfigError("required key missing", section, key)
    return None


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a run configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not allowed")
    for sec in parser.sections():
        if sec not in _KEYS:
            raise ConfigError(f"unknown section [{sec}]; the sections are {', '.join(_KEYS)}")
        unknown = [key for key in parser.options(sec) if key not in _KEYS[sec]]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r}; the keys are {', '.join(_KEYS[sec])}", sec)

    if not parser.has_section("model"):
        raise ConfigError("missing [model] section")
    sec = "model"
    try:
        d, p, r = (_count(parser.getint(sec, key), key) for key in "dpr")
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"d, p, r must be positive integers: {exc}", sec) from exc
    F = _get(parser, sec, "F", (d, r), required=True)
    G = _get(parser, sec, "G", (d, d), required=True)
    V = _get(parser, sec, "V", (r, r), required=True)
    W, discount = _get(parser, sec, "W", (d, d)), _get(parser, sec, "discount", ())
    try:
        model = ModelSpec(d=d, p=p, r=r, F=F, G=G, V=V, W=W, discount=discount)
    except ConfigError:
        raise
    except MvdlmError as exc:
        raise ConfigError(str(exc), sec) from exc

    sec = "prior"
    if not parser.has_section(sec):
        raise ConfigError("missing [prior] section")
    m0 = _get(parser, sec, "m0", (d, p))
    P0 = _get(parser, sec, "P0", (d, d), required=True)
    S0 = _get(parser, sec, "S0", (p, p), required=True)
    N0 = _get(parser, sec, "N0", (p,), required=True)
    v = _get(parser, sec, "v", ())
    try:
        prior = NmiwState(
            m=np.zeros((d, p)) if m0 is None else m0,
            P=P0,
            miw=MiwParams(S=S0, n=N0, v=float(p) if v is None else v),
        )
    except MvdlmError as exc:
        raise ConfigError(str(exc), sec) from exc

    mode = parser.get("io", "mode", fallback="new").strip().lower()
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}", "io", "mode")

    simulate = None
    if parser.has_section("simulate"):
        sec = "simulate"
        if (p, r) != (2, 1):
            raise ConfigError("the study's bivariate local level needs p = 2, r = 1", "model")
        if not parser.has_option(sec, "T"):
            raise ConfigError("required key missing", sec, "T")
        kwargs = {
            key: _parse(parser.get(sec, key), shape, sec, key)
            for key, shape in _LOCAL_LEVEL.items() if parser.has_option(sec, key)
        }
        replications = _get(parser, sec, "replications", ())
        raw = _literal(parser.get(sec, "pattern", fallback="{}"), sec, "pattern")
        if not isinstance(raw, dict) or not all(
            isinstance(t, int) and isinstance(vs, list) and all(isinstance(j, int) for j in vs)
            for t, vs in raw.items()
        ):
            raise ConfigError("pattern must be a dict like {24: [2], 60: [1, 2]}", sec, "pattern")
        try:
            cfg = LocalLevelConfig(**kwargs)
            replications = _count(1 if replications is None else replications, "replications")
            pattern = MissingPattern({t: frozenset(vs) for t, vs in raw.items()})
            observed = _missing_mask(pattern, cfg.T, p)
        except MvdlmError as exc:
            raise ConfigError(str(exc), sec) from exc
        never = np.flatnonzero(~observed.any(axis=0))
        if never.size:
            raise ConfigError(
                f"pattern leaves variable {never[0] + 1} missing at every t, "
                "so the study cannot score it", sec, "pattern",
            )
        simulate = SimulateBlock(cfg=cfg, pattern=pattern, replications=replications)

    return RunConfig(model=model, prior=prior, mode=mode, simulate=simulate)


_R1_NAME = re.compile(r"^y(\d+)$")
_RK_NAME = re.compile(r"^y(\d+)_(\d+)$")
_MISSING = {"", "na"}


def parse_csv(path: str | Path) -> np.ndarray:
    """Read observations from CSV into a T x r x p array, NaN where missing;
    header names determine p and r."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot read data file {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", row=1) from None
        header = [h.strip() for h in header]
        if all(_R1_NAME.match(h) for h in header):
            pairs = [(int(_R1_NAME.match(h).group(1)), 1) for h in header]
        elif all(_RK_NAME.match(h) for h in header):
            pairs = [tuple(int(g) for g in _RK_NAME.match(h).groups()) for h in header]
        else:
            raise ParseError(
                "header must name columns y<j> (r = 1) or y<j>_<k> (r >= 2)", row=1
            )
        p = max(j for j, _ in pairs)
        r = max(k for _, k in pairs)
        expected = {(j, k) for j in range(1, p + 1) for k in range(1, r + 1)}
        if set(pairs) != expected or len(pairs) != len(expected):
            raise ParseError(
                f"header must cover every variable/replicate pair once for p={p}, r={r}", row=1
            )
        rows = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} cells, got {len(row)}", row=i)
            cells = []
            for cell, (j, k) in zip(row, pairs):
                text = cell.strip()
                if text.lower() in _MISSING:
                    cells.append(math.nan)
                    continue
                try:
                    value = float(text)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ParseError(
                        f"cannot parse {text!r} as a finite number (leave the cell empty or "
                        "write NA for a missing value)",
                        row=i,
                        column=f"y{j}_{k}" if r > 1 else f"y{j}",
                    )
                cells.append(value)
            rows.append(cells)
    if not rows:
        raise ParseError("no data rows", row=2)
    values = np.empty((len(rows), r, p))
    values[:, [k - 1 for _, k in pairs], [j - 1 for j, _ in pairs]] = rows
    return values


def _column_names(p: int, r: int, prefix: str) -> list[str]:
    if r == 1:
        return [f"{prefix}{j}" for j in range(1, p + 1)]
    return [f"{prefix}{j}_{k}" for j in range(1, p + 1) for k in range(1, r + 1)]


def write_csv(path: str | Path, values: np.ndarray) -> None:
    """Write a T x r x p array (NaN where missing) in the format
    :func:`parse_csv` reads back; it cannot read ±inf, so that is an error."""
    T, r, p = values.shape
    if np.isinf(values).any():
        raise DomainError("values must be finite or NaN (missing), got ±inf")
    _write_table(path, _column_names(p, r, "y"), values.transpose(0, 2, 1).reshape(T, p * r), "%r")


def _format(x: float) -> str:
    return "NA" if not np.isfinite(x) else f"{x:.10g}"


def _write_records(path: Path, output: dlm.FilterOutput) -> None:
    T, r, p = output.f.shape
    header = ["t"]
    header += _column_names(p, r, "f")
    header += [f"q{k}" for k in range(1, r + 1)]
    header += _column_names(p, r, "e")
    header += [f"s{i}_{j}" for i in range(1, p + 1) for j in range(i, p + 1)]
    header += [f"n{j}" for j in range(1, p + 1)]
    header += [f"corr{i}_{j}" for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    upper = np.triu_indices(p)
    # Columns in header order: variable j outer, replicate k inner.
    table = np.hstack([
        np.arange(1.0, T + 1)[:, None],
        output.f.transpose(0, 2, 1).reshape(T, p * r),
        np.diagonal(output.Q, axis1=1, axis2=2),
        np.where(output.observed, output.e, np.nan).transpose(0, 2, 1).reshape(T, p * r),
        output.S[:, upper[0], upper[1]],
        output.n,
        dlm._corr(output.S, *np.triu_indices(p, 1)),
    ])
    _write_table(path, header, table)


def _write_table(path: Path, header: list[str], table: np.ndarray, cell: str = "%.10g") -> None:
    """Write a float table as CSV, each cell as ``cell % x`` (``%.10g`` for
    records, ``%r`` to round-trip) and NA where not finite.

    Rows are formatted 256 at a time, in one ``%`` pass per block; a pass over
    the whole table would hold all of its text at once.
    """
    fmt = ",".join([cell] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(table), 256):
            rows = table[start:start + 256]
            text = (fmt * len(rows)) % tuple(rows.ravel().tolist())
            fh.write(text.replace("-inf", "NA").replace("inf", "NA").replace("nan", "NA"))


def _print_summary(outputs: dict[str, dlm.FilterOutput], stream) -> None:
    p = next(iter(outputs.values())).f.shape[2]
    header = ["mode"] + [f"msse_{j}" for j in range(1, p + 1)] + ["mean_missing_corr"]
    print(",".join(header), file=stream)
    for mode, output in outputs.items():
        observed = output.observed
        partial = observed.any(axis=(1, 2)) & ~observed.all(axis=(1, 2))
        vals = dlm._corr(output.S[partial], *np.triu_indices(p, 1)).ravel()
        mean_corr = float(np.mean(vals)) if vals.size else float("nan")
        # a variable that is never observed has no MSSE: NA
        seen = observed.any(axis=(0, 1))
        msse = np.full(seen.shape, np.nan)
        if seen.any():
            # an overflowed residual gives an infinite MSSE, written as NA
            with np.errstate(all="ignore"):
                msse[seen] = dlm._msse(output.std_err[:, :, seen], observed[:, :, seen])[0]
        print(",".join([mode] + [_format(x) for x in msse] + [_format(mean_corr)]), file=stream)


def cmd_filter(args) -> int:
    config = load_config(args.config)
    values = parse_csv(args.data)
    r, p = values.shape[1:]
    if (r, p) != (config.model.r, config.model.p):
        raise ConfigError(
            f"data has r={r}, p={p} but the model declares r={config.model.r}, p={config.model.p}"
        )
    mode = args.mode or config.mode
    modes = ("new", "classical") if mode == "both" else (mode,)

    base = Path(args.out) if args.out else Path(args.data).with_suffix(".filtered.csv")
    outputs = dict(zip(modes, dlm._filter(config.model, values, config.prior, modes)))
    for m, output in outputs.items():
        path = base if len(modes) == 1 else base.with_name(f"{base.stem}.{m}{base.suffix}")
        _write_records(path, output)
    _print_summary(outputs, sys.stdout)
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if config.simulate is None:
        raise ConfigError("the simulate command requires a [simulate] section")
    block = config.simulate
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = replicate_experiment(
        block.replications, block.cfg, block.pattern, model=config.model, prior=config.prior
    )

    _, data = gen_local_level(block.cfg)
    write_csv(out_dir / "data.csv", apply_missing(data, block.pattern))

    f_new, f_cls = summary.first_new.f[:, 0], summary.first_classical.f[:, 0]
    T, p = f_new.shape
    _write_table(
        out_dir / "forecasts.csv",
        ["t"] + [f"f{j}_{m}" for m in ("new", "classical") for j in range(1, p + 1)],
        np.hstack([np.arange(1.0, T + 1)[:, None], f_new, f_cls]),
    )

    with open(out_dir / "replications.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["replication", "mode"] + [f"msse_{j}" for j in range(1, p + 1)] + ["mean_missing_corr"]
        )
        for i in range(summary.n_replications):
            corr_i = summary.partial_corr[i].mean() if summary.partial_corr.size else float("nan")
            writer.writerow(
                [str(i), "new"] + [_format(x) for x in summary.msse_new[i]] + [_format(corr_i)]
            )
            writer.writerow(
                [str(i), "classical"] + [_format(x) for x in summary.msse_classical[i]] + ["NA"]
            )

    lines = [
        "mode," + ",".join(f"msse_{j}" for j in range(1, p + 1)) + ",mean_missing_corr",
        "new," + ",".join(_format(x) for x in summary.mean_msse_new) + f",{_format(summary.mean_partial_corr)}",
        "classical," + ",".join(_format(x) for x in summary.mean_msse_classical) + ",NA",
        f"replications,{summary.n_replications}",
        f"new_wins_componentwise_fraction,{_format(summary.win_fraction)}",
        f"partial_missing_times,{' '.join(str(t) for t in summary.partial_times)}",
    ]
    text = "\n".join(lines) + "\n"
    (out_dir / "summary.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvdlm",
        description="Matrix-variate dynamic linear model filtering with missing data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_filter = sub.add_parser("filter", help="filter a CSV series under a config")
    p_filter.add_argument("--config", required=True, help="path to the config file")
    p_filter.add_argument("--data", required=True, help="path to the observation CSV")
    p_filter.add_argument("--mode", choices=_MODES, default=None, help="override [io] mode")
    p_filter.add_argument("--out", default=None, help="output records path")
    p_filter.set_defaults(func=cmd_filter)

    p_sim = sub.add_parser("simulate", help="run the simulation replication study")
    p_sim.add_argument("--config", required=True, help="path to the config file")
    p_sim.add_argument("--out", default=None, help="output directory (default: .)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MvdlmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
