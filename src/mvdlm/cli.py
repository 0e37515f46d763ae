"""Command line interface: ``mvdlm filter`` and ``mvdlm simulate``.

Configuration is a single INI-style file with named blocks. Matrices are
written as bracketed row lists, with ``identity`` accepted for square blocks
and scalars accepted where the target is 1 x 1 (or a constant diagonal):

    [model]
    d = 1
    p = 2
    r = 1
    F = [[1.0]]
    G = identity
    V = identity
    discount = 0.8          ; exactly one of discount / W

    [prior]
    m0 = zeros
    P0 = 1e6
    S0 = identity
    N0 = 1.0
    v = 2

    [io]
    mode = both             ; new | classical | both

Data CSV: one row per time, header ``y<j>`` for r = 1 or ``y<j>_<k>`` for
r >= 2 (variable j, replicate k, both 1-based). Empty cells or ``NA`` (any
case) are missing.

Exit codes: 0 success, 2 configuration or input error, 3 numerical failure.
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
from .dlm import ModelSpec, NmiwState
from .distributions import MiwParams
from .errors import ConfigError, MvdlmError, ParseError
from .simulate import (
    LocalLevelConfig,
    MissingPattern,
    _missing_mask,
    apply_missing,
    default_prior,
    gen_local_level,
    local_level_model,
    replicate_experiment,
)

__all__ = ["RunConfig", "cmd_filter", "cmd_simulate", "load_config", "main", "parse_csv", "write_csv"]

_MODES = ("new", "classical", "both")


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
    out: str | None
    simulate: SimulateBlock | None


def _literal(text: str, section: str, key: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise ConfigError(f"cannot parse value {text!r}", section, key) from exc


def _numeric(text: str, section: str, key: str) -> np.ndarray:
    value = _literal(text, section, key)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse value {text!r} as numbers", section, key) from exc
    if not np.isfinite(arr).all():
        raise ConfigError(f"values must be finite, got {text!r}", section, key)
    return arr


def _parse_scalar(text: str, section: str, key: str) -> float:
    arr = _numeric(text, section, key)
    if arr.ndim != 0:
        raise ConfigError(f"expected a single number, got {text!r}", section, key)
    return float(arr)


def _parse_matrix(text: str, shape: tuple[int, int], section: str, key: str) -> np.ndarray:
    text = text.strip()
    rows, cols = shape
    if text == "identity":
        if rows != cols:
            raise ConfigError(f"identity requires a square target, need shape {shape}", section, key)
        return np.eye(rows)
    if text == "zeros":
        return np.zeros(shape)
    if text == "ones":
        return np.ones(shape)
    arr = _numeric(text, section, key)
    if arr.ndim == 0:
        if shape == (1, 1):
            return arr.reshape(1, 1)
        if rows == cols:
            return float(arr) * np.eye(rows)
        raise ConfigError(f"scalar given but target shape is {shape}", section, key)
    if arr.shape != shape:
        raise ConfigError(f"expected shape {shape}, got {arr.shape}", section, key)
    return arr


def _parse_vector(text: str, length: int, section: str, key: str) -> np.ndarray:
    text = text.strip()
    if text == "ones":
        return np.ones(length)
    arr = _numeric(text, section, key)
    if arr.ndim == 0:
        return float(arr) * np.ones(length)
    if arr.shape != (length,):
        raise ConfigError(f"expected {length} entries, got shape {arr.shape}", section, key)
    return arr


def _get(parser: configparser.ConfigParser, section: str, key: str, default=None, required=False):
    if parser.has_option(section, key):
        return parser.get(section, key)
    if required:
        raise ConfigError("required key missing", section, key)
    return default


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a run configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    if not parser.has_section("model"):
        raise ConfigError("missing [model] section")
    sec = "model"
    try:
        d = parser.getint(sec, "d")
        p = parser.getint(sec, "p")
        r = parser.getint(sec, "r")
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"d, p, r must be integers: {exc}", sec) from exc
    for name, value in (("d", d), ("p", p), ("r", r)):
        if value < 1:
            raise ConfigError("must be a positive integer", sec, name)

    F = _parse_matrix(_get(parser, sec, "f", required=True), (d, r), sec, "F")
    G = _parse_matrix(_get(parser, sec, "g", required=True), (d, d), sec, "G")
    V = _parse_matrix(_get(parser, sec, "v", required=True), (r, r), sec, "V")

    w_text = _get(parser, sec, "w")
    discount_text = _get(parser, sec, "discount")
    if (w_text is None) == (discount_text is None):
        raise ConfigError("exactly one of 'W' and 'discount' must be given", sec)
    W = None if w_text is None else _parse_matrix(w_text, (d, d), sec, "W")
    discount = None
    if discount_text is not None:
        discount = _parse_scalar(discount_text, sec, "discount")
        if not 0.0 < discount <= 1.0:
            raise ConfigError(f"discount must lie in (0, 1], got {discount}", sec, "discount")
    try:
        model = ModelSpec(d=d, p=p, r=r, F=F, G=G, V=V, W=W, discount=discount)
    except MvdlmError as exc:
        raise ConfigError(str(exc), sec) from exc

    sec = "prior"
    if not parser.has_section(sec):
        raise ConfigError("missing [prior] section")
    m0 = _parse_matrix(_get(parser, sec, "m0", "zeros"), (d, p), sec, "m0")
    P0 = _parse_matrix(_get(parser, sec, "p0", required=True), (d, d), sec, "P0")
    S0 = _parse_matrix(_get(parser, sec, "s0", required=True), (p, p), sec, "S0")
    N0 = _parse_vector(_get(parser, sec, "n0", required=True), p, sec, "N0")
    v_text = _get(parser, sec, "v")
    v = float(p) if v_text is None else _parse_scalar(v_text, sec, "v")
    try:
        prior = NmiwState(m=m0, P=P0, miw=MiwParams(S=S0, n=N0, v=v))
    except MvdlmError as exc:
        raise ConfigError(str(exc), sec) from exc

    mode = _get(parser, "io", "mode", "new") if parser.has_section("io") else "new"
    mode = mode.strip().lower()
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}", "io", "mode")
    out = _get(parser, "io", "out") if parser.has_section("io") else None

    simulate = None
    if parser.has_section("simulate"):
        sec = "simulate"
        if (p, r) != (2, 1):
            raise ConfigError("the study's bivariate local level needs p = 2, r = 1", "model")
        ints = []
        for key, default in (("T", None), ("seed", "0"), ("replications", "1")):
            text = _get(parser, sec, key, default, required=default is None)
            try:
                ints.append(int(text))
            except ValueError as exc:
                raise ConfigError(f"must be an integer, got {text!r}", sec, key) from exc
        T, seed, replications = ints
        corr = _parse_scalar(_get(parser, sec, "corr", "0.8"), sec, "corr")
        obs_var = tuple(_parse_vector(_get(parser, sec, "obs_var", "[1.0, 1.0]"), 2, sec, "obs_var"))
        level_var = tuple(
            _parse_vector(_get(parser, sec, "level_var", "[0.05, 0.05]"), 2, sec, "level_var")
        )
        if replications < 1:
            raise ConfigError("replications must be a positive integer", sec, "replications")
        pattern_text = _get(parser, sec, "pattern", "{}")
        raw = _literal(pattern_text, sec, "pattern")
        if not isinstance(raw, dict) or not all(
            isinstance(t, int) and isinstance(vs, list) and all(isinstance(j, int) for j in vs)
            for t, vs in raw.items()
        ):
            raise ConfigError("pattern must be a dict like {24: [2], 60: [1, 2]}", sec, "pattern")
        try:
            pattern = MissingPattern({t: frozenset(vs) for t, vs in raw.items()})
            cfg = LocalLevelConfig(T=T, corr=corr, obs_var=obs_var, level_var=level_var, seed=seed)
            observed = _missing_mask(pattern, T, p)
        except MvdlmError as exc:
            raise ConfigError(str(exc), sec) from exc
        never = np.flatnonzero(~observed.any(axis=0))
        if never.size:
            raise ConfigError(
                f"pattern leaves variable {never[0] + 1} missing at every t, "
                "so the study cannot score it", sec, "pattern",
            )
        simulate = SimulateBlock(cfg=cfg, pattern=pattern, replications=replications)

    return RunConfig(model=model, prior=prior, mode=mode, out=out, simulate=simulate)


_R1_NAME = re.compile(r"^y(\d+)$")
_RK_NAME = re.compile(r"^y(\d+)_(\d+)$")
_MISSING = {"", "na"}


def parse_csv(path: str | Path) -> np.ndarray:
    """Read observations from CSV into a T x r x p array, NaN where missing;
    header names determine p and r."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"data file not found: {path}")
    with open(path, newline="") as fh:
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
    :func:`parse_csv` reads back."""
    T, r, p = values.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_column_names(p, r, "y"))
        for row in values.transpose(0, 2, 1).reshape(T, p * r).tolist():
            writer.writerow(["NA" if math.isnan(x) else repr(x) for x in row])


def _format(x: float) -> str:
    return "NA" if not np.isfinite(x) else f"{x:.10g}"


@np.errstate(all="ignore")
def _corr_upper(S: np.ndarray) -> np.ndarray:
    """S_ij / (sd_i sd_j) over the strict upper triangle of each S in a stack;
    NaN or inf where S has overflowed, written as NA."""
    i, j = np.triu_indices(S.shape[-1], 1)
    sd = np.sqrt(np.diagonal(S, axis1=1, axis2=2))
    return S[:, i, j] / (sd[:, i] * sd[:, j])


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
        _corr_upper(output.S),
    ])
    fmt = ",".join(["%.10g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in table:
            line = fmt % tuple(row)
            fh.write(line.replace("-inf", "NA").replace("inf", "NA").replace("nan", "NA"))


def _summary_rows(outputs: dict[str, dlm.FilterOutput]) -> list[list[str]]:
    rows = []
    for mode, output in outputs.items():
        observed = output.observed
        partial = observed.any(axis=(1, 2)) & ~observed.all(axis=(1, 2))
        vals = _corr_upper(output.S[partial]).ravel()
        mean_corr = float(np.mean(vals)) if vals.size else float("nan")
        # a variable that is never observed has no MSSE: NA
        seen = observed.any(axis=(0, 1))
        msse = np.full(seen.shape, np.nan)
        if seen.any():
            # an overflowed residual gives an infinite MSSE, written as NA
            with np.errstate(all="ignore"):
                msse[seen] = dlm._msse(output.std_err[:, :, seen], observed[:, :, seen])[0]
        rows.append([mode] + [_format(x) for x in msse] + [_format(mean_corr)])
    return rows


def _print_summary(outputs: dict[str, dlm.FilterOutput], stream) -> None:
    p = next(iter(outputs.values())).f.shape[2]
    header = ["mode"] + [f"msse_{j}" for j in range(1, p + 1)] + ["mean_missing_corr"]
    print(",".join(header), file=stream)
    for row in _summary_rows(outputs):
        print(",".join(row), file=stream)


def cmd_filter(args) -> int:
    config = load_config(args.config)
    values = parse_csv(args.data)
    r, p = values.shape[1:]
    if (r, p) != (config.model.r, config.model.p):
        raise ConfigError(
            f"data has r={r}, p={p} but the model declares r={config.model.r}, p={config.model.p}"
        )
    mode = args.mode or config.mode
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}", "io", "mode")
    modes = ("new", "classical") if mode == "both" else (mode,)

    out = args.out or config.out
    base = Path(out) if out else Path(args.data).with_suffix(".filtered.csv")
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

    out_new, out_cls = summary.first_new, summary.first_classical
    p = out_new.f.shape[2]
    with open(out_dir / "forecasts.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"]
            + [f"f{j}_new" for j in range(1, p + 1)]
            + [f"f{j}_classical" for j in range(1, p + 1)]
        )
        for idx in range(out_new.f.shape[0]):
            writer.writerow(
                [str(idx + 1)]
                + [_format(x) for x in out_new.f[idx, 0]]
                + [_format(x) for x in out_cls.f[idx, 0]]
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
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MvdlmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
