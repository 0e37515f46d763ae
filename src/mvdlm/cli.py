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

    [simulate]              ; for mvdlm simulate
    T = 100
    corr = 0.8              ; optional from here on; defaults as LocalLevelConfig
    obs_var = [1.0, 1.0]
    level_var = [0.05, 0.05]
    seed = 0
    replications = 1
    pattern = {24: [2], 60: [1, 2]}

Both commands load the whole file and check each value it sets, the
[simulate] block's too. The study's own rules (p = 2 and r = 1, and a
pattern within T steps and two variables that leaves neither missing at
every t) belong to ``replicate_experiment``: ``mvdlm simulate`` reports
them, and ``mvdlm filter`` does not apply them.

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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dlm
from .distributions import MiwParams
from .dlm import ModelSpec, NmiwState
from .errors import ConfigError, FilterError, MvdlmError, NotPositiveDefinite, ParseError
from .linalg import _checked, _corr, _count, _real
from .simulate import LocalLevelConfig, MissingPattern, replicate_experiment

__all__ = ["RunConfig", "cmd_filter", "cmd_simulate", "load_config", "main", "parse_csv", "write_csv"]

_MODES = (*dlm._MODES, "both")
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


@contextmanager
def _section(section: str):
    """Report a library error raised in the block as a :class:`ConfigError`
    of ``[section]``; a ConfigError passes as it is."""
    try:
        yield
    except ConfigError:
        raise
    except MvdlmError as exc:
        raise ConfigError(str(exc), section) from exc


def _literal(text: str, section: str, key: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError, TypeError) as exc:
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
    with _section(section):
        arr = _real(value, shape, key)
        if arr.ndim == 0 and len(shape) == 1:
            arr = arr * np.ones(shape)
        elif arr.ndim == 0 and len(shape) == 2 and shape[0] == shape[1]:
            arr = arr * np.eye(shape[0])
        arr = _checked(arr, shape, key)
    # numpy reads [True, 1.0] as floats: only the literal's leaves show the truth value
    if any(isinstance(x, bool) for x in np.asarray(value, dtype=object).ravel()):
        raise ConfigError(f"cannot parse value {text!r} as a number", section, key)
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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode config file {path}: {exc}") from exc
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
    with _section(sec):
        d, p, r = (_count(_get(parser, sec, key, (), required=True), key) for key in "dpr")
        F = _get(parser, sec, "F", (d, r), required=True)
        G = _get(parser, sec, "G", (d, d), required=True)
        V = _get(parser, sec, "V", (r, r), required=True)
        W, discount = _get(parser, sec, "W", (d, d)), _get(parser, sec, "discount", ())
        model = ModelSpec(d=d, p=p, r=r, F=F, G=G, V=V, W=W, discount=discount)

    sec = "prior"
    if not parser.has_section(sec):
        raise ConfigError("missing [prior] section")
    with _section(sec):
        m0 = _get(parser, sec, "m0", (d, p))
        P0 = _get(parser, sec, "P0", (d, d), required=True)
        S0 = _get(parser, sec, "S0", (p, p), required=True)
        N0 = _get(parser, sec, "N0", (p,), required=True)
        v = _get(parser, sec, "v", ())
        prior = NmiwState(
            m=np.zeros((d, p)) if m0 is None else m0,
            P=P0,
            miw=MiwParams(S=S0, n=N0, v=float(p) if v is None else v),
        )

    mode = parser.get("io", "mode", fallback="new").strip().lower()
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}", "io", "mode")

    simulate = None
    if parser.has_section("simulate"):
        sec = "simulate"
        if not parser.has_option(sec, "T"):
            raise ConfigError("required key missing", sec, "T")
        with _section(sec):
            kwargs = {
                key: _parse(parser.get(sec, key), shape, sec, key)
                for key, shape in _LOCAL_LEVEL.items() if parser.has_option(sec, key)
            }
            replications = _get(parser, sec, "replications", ())
            raw = _literal(parser.get(sec, "pattern", fallback="{}"), sec, "pattern")
            simulate = SimulateBlock(
                cfg=LocalLevelConfig(**kwargs),
                replications=_count(1 if replications is None else replications, "replications"),
                pattern=MissingPattern(raw),
            )

    return RunConfig(model=model, prior=prior, mode=mode, simulate=simulate)


_R1_NAME = re.compile(r"^y(\d+)$")
_RK_NAME = re.compile(r"^y(\d+)_(\d+)$")
_MISSING = {"", "na"}


def parse_csv(path: str | Path) -> np.ndarray:
    """Read observations from UTF-8 CSV (a leading byte-order mark is
    skipped) into a T x r x p array, NaN where missing; header names determine
    p and r."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
    except OSError as exc:
        raise ParseError(f"cannot read data file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode data file {path}: {exc}") from exc
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
    :func:`parse_csv` reads back. ``values`` follows the observation rule of
    :func:`mvdlm.filter`; for anything else no file is written."""
    values = dlm._observations(values)
    T, r, p = values.shape
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
        _corr(output.S, *np.triu_indices(p, 1)),
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


def _summary_table(lead: list[str], rows, p: int) -> str:
    """The summary table as text: a header of the ``lead`` labels,
    ``msse_1..p`` and ``mean_missing_corr``, then one line per
    ``(labels, msse, corr)`` row, NA where a value is not finite."""
    lines = [[*lead, *(f"msse_{j}" for j in range(1, p + 1)), "mean_missing_corr"]]
    lines += [[*labels, *map(_format, msse), _format(corr)] for labels, msse, corr in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def cmd_filter(args) -> int:
    config = load_config(args.config)
    values = parse_csv(args.data)
    mode = args.mode or config.mode
    modes = dlm._MODES if mode == "both" else (mode,)

    base = Path(args.out) if args.out else Path(args.data).with_suffix(".filtered.csv")
    rec = dlm._run(config.model, config.prior, values[None], modes)
    for k, m in enumerate(modes):
        path = base if len(modes) == 1 else base.with_name(f"{base.stem}.{m}{base.suffix}")
        _write_records(path, dlm._series_output(rec, k, 0))
    _, msse, corr = dlm._summarize(rec)
    # the mean of no correlations (no partly missing step, or p = 1) is 0/0: NA
    with np.errstate(all="ignore"):
        corr = corr.sum(axis=(1, 2, 3)) / corr[0].size
    rows = [((m,), msse[k, 0], corr[k]) for k, m in enumerate(modes)]
    sys.stdout.write(_summary_table(["mode"], rows, config.model.p))
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if config.simulate is None:
        raise ConfigError("the simulate command requires a [simulate] section")
    block = config.simulate
    summary = replicate_experiment(
        block.replications, block.cfg, block.pattern, model=config.model, prior=config.prior
    )
    # made only now, so a study that fails leaves no directory behind
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    write_csv(out_dir / "data.csv", summary.first_y)

    f_new, f_cls = summary.first_new.f[:, 0], summary.first_classical.f[:, 0]
    T, p = f_new.shape
    _write_table(
        out_dir / "forecasts.csv",
        ["t"] + [f"f{j}_{m}" for m in dlm._MODES for j in range(1, p + 1)],
        np.hstack([np.arange(1.0, T + 1)[:, None], f_new, f_cls]),
    )

    nan, rows = float("nan"), []
    for i, corr in enumerate(summary.partial_corr):
        rows += [((str(i), "new"), summary.msse_new[i], corr.mean() if corr.size else nan),
                 ((str(i), "classical"), summary.msse_classical[i], nan)]
    (out_dir / "replications.csv").write_text(
        _summary_table(["replication", "mode"], rows, p), newline="\r\n")
    text = _summary_table(["mode"], [(("new",), summary.mean_msse_new, summary.mean_partial_corr),
                                     (("classical",), summary.mean_msse_classical, nan)], p)
    text += (f"replications,{summary.n_replications}\n"
             f"new_wins_componentwise_fraction,{_format(summary.win_fraction)}\n"
             f"partial_missing_times,{' '.join(map(str, summary.partial_times))}\n")
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
    except (FilterError, NotPositiveDefinite) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MvdlmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
