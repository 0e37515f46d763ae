"""Workload inputs, operations and output checks for the mvdlm benchmark.

A workload is built in two halves. ``write_inputs`` is the benchmark side: it
draws everything from the seed and writes files into a work directory. The
``Workload`` object is the program side: it loads those files, builds what the
package needs (``load_config`` or ``ModelSpec``/``NmiwState``/observations),
runs one operation and checks its output.

One operation is one CLI invocation (``study``, ``csv_filter``) or one
``filter`` call (``wide_filter``). Outputs are checked outside the timed
region:

* r = 1 workloads against ``reference_filter`` below, an independent batched
  recursion written for these checks, at 1e-9 relative, and the small
  default-seed warm-up operation against values frozen in ``reference.json``;
* ``csv_filter`` (r = 2) against invariants any correct estimator meets:
  finite records, PSD scale, correlations in [-1, 1] and dof equal to N0 plus
  the per-variable observed counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
RTOL = 1e-9

WHY = {
    'study': (
        'criterion-6 replication study via mvdlm simulate: thousands of tiny 2x2 steps, so per-call Python overhead in dlm/linalg/distributions dominates'
    ),
    'csv_filter': (
        'mvdlm filter --mode both on a 2k-row p=3 r=2 CSV, ~10% missing: parse_csv and the records writer take a real share; only r>=2 masked path'
    ),
    'wide_filter': (
        'library filter, d=2 p=40 r=1, time-varying F/G, correlated noise, ~10% missing: p x p state and per-step outputs grow as p^2, so memory shows'
    ),
}

# Criterion-6 configuration of the replication study.
STUDY_T = 100
STUDY_M = 20
STUDY_WARM_M = 3
STUDY_PATTERN = {24: (2,), 43: (2,), 60: (1, 2), 75: (1,), 86: (2,)}
STUDY_DISCOUNT = 0.5

CSV_T = 2_000
CSV_WARM_T = 200
CSV_P, CSV_R = 3, 2
CSV_DISCOUNT = 0.9
CSV_MISSING = 0.1
CSV_FULL_GAP_EVERY = 250  # a fully missing row every 250 steps

WIDE_T = 2_000
WIDE_WARM_T = 50
WIDE_D, WIDE_P = 2, 40
WIDE_DISCOUNT = 0.95
WIDE_MISSING = 0.1
WIDE_P0 = 10.0

WORKLOADS = tuple(WHY)


# ---------------------------------------------------------------------------
# benchmark side: inputs from the seed
# ---------------------------------------------------------------------------

def _study_ini(seed: int, replications: int) -> str:
    pattern = "{" + ", ".join(f"{t}: {list(v)}" for t, v in STUDY_PATTERN.items()) + "}"
    return (
        "[model]\nd = 1\np = 2\nr = 1\nF = [[1.0]]\nG = identity\nV = identity\n"
        f"discount = {STUDY_DISCOUNT}\n\n"
        "[prior]\nm0 = zeros\nP0 = 1e6\nS0 = identity\nN0 = 1.0\n\n"
        f"[simulate]\nT = {STUDY_T}\ncorr = 0.8\nseed = {seed}\n"
        f"replications = {replications}\npattern = {pattern}\n"
    )


CSV_INI = (
    f"[model]\nd = 1\np = {CSV_P}\nr = {CSV_R}\nF = [[1.0, 1.0]]\nG = identity\nV = identity\n"
    f"discount = {CSV_DISCOUNT}\n\n"
    "[prior]\nm0 = zeros\nP0 = 1e6\nS0 = identity\nN0 = 1.0\n\n"
    "[io]\nmode = both\n"
)


def _study_seed(seed: int) -> int:
    # Replication i of the study uses seed + i; spacing keeps runs disjoint.
    return seed * 1000


def _csv_values(seed: int, T: int) -> np.ndarray:
    """T x r x p replicate observations of a local level, NaN where missing."""
    rng = np.random.default_rng([seed, 2])
    sigma = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]])
    L = np.linalg.cholesky(sigma)
    level = np.cumsum(rng.standard_normal((T, CSV_P)) * np.sqrt(0.05), axis=0)
    y = level[:, None, :] + rng.standard_normal((T, CSV_R, CSV_P)) @ L.T
    missing = rng.random(y.shape) < CSV_MISSING
    missing[CSV_FULL_GAP_EVERY - 1 :: CSV_FULL_GAP_EVERY] = True
    return np.where(missing, np.nan, y)


def _write_data_csv(path: Path, values: np.ndarray) -> None:
    T, r, p = values.shape
    header = ",".join(f"y{j}_{k}" for j in range(1, p + 1) for k in range(1, r + 1))
    cols = values.transpose(0, 2, 1).reshape(T, p * r)
    lines = [header]
    for row in cols:
        lines.append(",".join("NA" if np.isnan(x) else repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _wide_arrays(seed: int, T: int) -> dict[str, np.ndarray]:
    """Time-varying design (F_t, G_t) and a p=40 series with correlated noise."""
    rng = np.random.default_rng([seed, 3])
    d, p = WIDE_D, WIDE_P
    F = rng.standard_normal((T, d, 1))
    angle = 0.05 * rng.standard_normal(T)
    c, s = np.cos(angle), np.sin(angle)
    G = 0.99 * np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    idx = np.arange(p)
    sigma = 0.6 ** np.abs(idx[:, None] - idx[None, :])
    L = np.linalg.cholesky(sigma)
    theta = rng.standard_normal((d, p))
    y = np.empty((T, 1, p))
    for t in range(T):
        theta = G[t] @ theta + 0.1 * rng.standard_normal((d, p))
        y[t] = F[t].T @ theta + rng.standard_normal((1, p)) @ L.T
    missing = rng.random(y.shape) < WIDE_MISSING
    return {"F": F, "G": G, "y": np.where(missing, np.nan, y)}


def write_inputs(workload: str, seed: int, work: Path) -> None:
    """Write the workload's timed inputs (from ``seed``) and its default-seed
    warm-up inputs into ``work``."""
    if workload == "study":
        (work / "study.ini").write_text(_study_ini(_study_seed(seed), STUDY_M))
        (work / "warm.ini").write_text(_study_ini(_study_seed(DEFAULT_SEED), STUDY_WARM_M))
    elif workload == "csv_filter":
        (work / "csv.ini").write_text(CSV_INI)
        _write_data_csv(work / "data.csv", _csv_values(seed, CSV_T))
        _write_data_csv(work / "warm.csv", _csv_values(DEFAULT_SEED, CSV_WARM_T))
    elif workload == "wide_filter":
        np.savez(work / "wide.npz", **_wide_arrays(seed, WIDE_T))
        np.savez(work / "warm.npz", **_wide_arrays(DEFAULT_SEED, WIDE_WARM_T))
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# independent r = 1 reference recursion
# ---------------------------------------------------------------------------

def reference_filter(F, G, V, delta, Y, observed, m0, P0, S0, n0, classical, keep_S=()):
    """Discount filter for r = 1, batched over M series sharing one mask.

    F: T x d, G: T x d x d, V: scalar, Y: M x T x p (values where observed),
    observed: T x p. Returns f (M x T x p), Q (T), msse (M x p), final m, S, n
    and the posterior S after each 0-based step listed in ``keep_S``.
    """
    M, T, p = Y.shape
    m = np.broadcast_to(m0, (M,) + m0.shape).copy()
    P = P0.copy()
    S = np.broadcast_to(S0, (M, p, p)).copy()
    n = n0.copy()
    f_out = np.empty((M, T, p))
    Q_out = np.empty(T)
    sq = np.zeros((M, p))
    count = np.zeros(p)
    kept = {}
    for t in range(T):
        Ft, Gt = F[t], G[t]
        R = Gt @ P @ Gt.T
        # The skew part of P grows by |G|^2 / delta per step unless removed.
        R = (R + R.T) / (2.0 * delta)
        a = Gt @ m
        f = np.einsum("d,mdp->mp", Ft, a)
        RF = R @ Ft
        Q = Ft @ RF + V
        A = RF / Q
        o = observed[t]
        e = np.where(o, Y[:, t] - f, 0.0)
        scale = np.sqrt(Q * np.diagonal(S, axis1=1, axis2=2))
        sq += np.where(o, (e / scale) ** 2, 0.0)
        count += o
        if (o.all() if classical else o.any()):
            w = o.astype(float)
            m = a + A[None, :, None] * (e * w)[:, None, :]
            P = R - w.mean() * Q * np.outer(A, A)
            C = e[:, :, None] * e[:, None, :] / Q * np.outer(w, w)
            sn = np.sqrt(n)
            n = n + w
            sn_new = np.sqrt(n)
            S = (S * np.outer(sn, sn) + C) / np.outer(sn_new, sn_new)
        else:
            m, P = a, R
        f_out[:, t] = f
        Q_out[t] = Q
        if t in keep_S:
            kept[t] = S.copy()
    return {"f": f_out, "Q": Q_out, "msse": sq / count, "m": m, "S": S, "n": n, "kept": kept}


def _study_data(seed: int, M: int) -> np.ndarray:
    """M x T x 2 local-level series, drawn as ``gen_local_level`` draws them."""
    out = np.empty((M, STUDY_T, 2))
    L = np.linalg.cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
    for i in range(M):
        rng = np.random.default_rng(seed + i)
        start = rng.standard_normal(2)
        zeta = rng.standard_normal((STUDY_T, 2)) * np.sqrt(0.05)
        eps = rng.standard_normal((STUDY_T, 2)) @ L.T
        out[i] = start + np.cumsum(zeta, axis=0) + eps
    return out


def study_reference(seed: int, M: int) -> dict[str, np.ndarray | float]:
    """Summary values of the replication study computed by ``reference_filter``."""
    Y = _study_data(seed, M)
    observed = np.ones((STUDY_T, 2), dtype=bool)
    for t, vs in STUDY_PATTERN.items():
        for j in vs:
            observed[t - 1, j - 1] = False
    partial = [t - 1 for t, vs in STUDY_PATTERN.items() if len(vs) < 2]
    common = dict(
        F=np.ones((STUDY_T, 1)), G=np.ones((STUDY_T, 1, 1)), V=1.0, delta=STUDY_DISCOUNT,
        Y=Y, observed=observed, m0=np.zeros((1, 2)), P0=np.array([[1e6]]),
        S0=np.eye(2), n0=np.ones(2),
    )
    new = reference_filter(classical=False, keep_S=set(partial), **common)
    cls = reference_filter(classical=True, **common)
    corr = [S[:, 0, 1] / np.sqrt(S[:, 0, 0] * S[:, 1, 1]) for S in new["kept"].values()]
    return {
        "msse_new": new["msse"].mean(axis=0),
        "msse_classical": cls["msse"].mean(axis=0),
        "win_fraction": float(np.mean(np.all(new["msse"] <= cls["msse"], axis=1))),
        "mean_partial_corr": float(np.mean(corr)),
    }


def wide_reference(arrays) -> dict[str, np.ndarray]:
    y = arrays["y"][:, 0, :]
    out = reference_filter(
        F=arrays["F"][:, :, 0], G=arrays["G"], V=1.0, delta=WIDE_DISCOUNT,
        Y=np.nan_to_num(y)[None], observed=~np.isnan(y), m0=np.zeros((WIDE_D, WIDE_P)),
        P0=WIDE_P0 * np.eye(WIDE_D), S0=np.eye(WIDE_P), n0=np.ones(WIDE_P), classical=False,
    )
    return {"f": out["f"][0], "Q": out["Q"], "m": out["m"][0], "S": out["S"][0], "n": out["n"]}


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------

def _close(name: str, got, want, problems: list[str]) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{name}: shape {got.shape} != {want.shape}")
        return
    atol = RTOL * float(np.max(np.abs(want))) if want.size else 0.0
    if not np.allclose(got, want, rtol=RTOL, atol=atol):
        err = float(np.max(np.abs(got - want)))
        problems.append(f"{name}: max abs error {err:.3g} beyond {RTOL:g} relative")


# ---------------------------------------------------------------------------
# program side
# ---------------------------------------------------------------------------

class Workload:
    """Program-side inputs and operations of one workload.

    ``build`` constructs the package objects (set-up). ``run`` is one timed
    operation; ``check`` returns a list of problems with its result (empty when
    correct). With ``warm=True`` both act on the small default-seed input,
    whose output is compared with ``reference.json``.
    """

    def __init__(self, name: str, work: Path, seed: int):
        self.name = name
        self.work = Path(work)
        self.seed = seed
        self._reference = None

    # -- sizes ------------------------------------------------------------

    @property
    def series_modes(self) -> int:
        """Requested series x modes per operation."""
        return {"study": 2 * STUDY_M, "csv_filter": 2, "wide_filter": 1}[self.name]

    @property
    def requested_steps(self) -> int:
        T = {"study": STUDY_T, "csv_filter": CSV_T, "wide_filter": WIDE_T}[self.name]
        return T * self.series_modes

    # -- set-up -----------------------------------------------------------

    def build(self) -> None:
        import mvdlm
        from mvdlm import cli

        self.mv = mvdlm
        self.cli = cli
        # The CLI operations load their config again, as every invocation does;
        # loading it here puts that cost in set-up as well.
        if self.name == "study":
            cli.load_config(self.work / "study.ini")
        elif self.name == "csv_filter":
            cli.load_config(self.work / "csv.ini")
        else:
            self.wide = self._wide_inputs(self.work / "wide.npz")
            self.warm = self._wide_inputs(self.work / "warm.npz")

    def _wide_inputs(self, path: Path):
        mv = self.mv
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        F, G = arrays["F"], arrays["G"]
        model = mv.ModelSpec(
            d=WIDE_D, p=WIDE_P, r=1, F=lambda t: F[t - 1], G=lambda t: G[t - 1],
            V=np.eye(1), discount=WIDE_DISCOUNT,
        )
        prior = mv.NmiwState(
            m=np.zeros((WIDE_D, WIDE_P)), P=WIDE_P0 * np.eye(WIDE_D),
            miw=mv.MiwParams(S=np.eye(WIDE_P), n=np.ones(WIDE_P), v=float(WIDE_P)),
        )
        data = [mv.MaskedObservation.from_values(row) for row in arrays["y"]]
        return {"arrays": arrays, "model": model, "prior": prior, "data": data}

    # -- operations -------------------------------------------------------

    def _out_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="op-", dir=self.work))

    def _cli(self, argv: list[str], out: Path) -> dict:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(argv)
        return {"code": code, "stdout": stdout.getvalue(), "out": out}

    def run(self, warm: bool = False) -> dict:
        out = self._out_dir()
        if self.name == "study":
            ini = self.work / ("warm.ini" if warm else "study.ini")
            return self._cli(["simulate", "--config", str(ini), "--out", str(out)], out)
        if self.name == "csv_filter":
            data = self.work / ("warm.csv" if warm else "data.csv")
            argv = ["filter", "--config", str(self.work / "csv.ini"), "--data", str(data),
                    "--mode", "both", "--out", str(out / "records.csv")]
            return self._cli(argv, out)
        inputs = self.warm if warm else self.wide
        output = self.mv.filter(inputs["model"], inputs["data"], inputs["prior"], mode="new")
        return {"output": output, "out": out}

    def io_bytes(self, result: dict) -> tuple[int, int]:
        """(bytes of input files a timed operation read, bytes of files it wrote)."""
        inputs = {"study": ["study.ini"], "csv_filter": ["csv.ini", "data.csv"]}
        read = sum((self.work / f).stat().st_size for f in inputs.get(self.name, []))
        written = sum(f.stat().st_size for f in result["out"].iterdir())
        return read, written

    # -- checks -----------------------------------------------------------

    def check(self, result: dict, warm: bool = False) -> list[str]:
        if self.name == "csv_filter":
            return self._check_csv(result, warm)
        return self._check_r1(result, warm)

    def values(self, result: dict) -> dict:
        """Values of an r = 1 operation that are compared with a reference."""
        if self.name == "wide_filter":
            out = result["output"]
            final = out.states[-1]
            return {"f": out.f[:, 0, :], "Q": out.Q[:, 0, 0], "m": final.m,
                    "S": final.miw.S, "n": final.miw.n}
        rows = {}
        for line in result["stdout"].splitlines():
            key, _, rest = line.partition(",")
            rows[key] = rest.split(",")
        return {
            "msse_new": [float(x) for x in rows["new"][:2]],
            "msse_classical": [float(x) for x in rows["classical"][:2]],
            "win_fraction": float(rows["new_wins_componentwise_fraction"][0]),
            "mean_partial_corr": float(rows["new"][2]),
        }

    def _reference_values(self, warm: bool) -> dict:
        if warm:
            with open(Path(__file__).with_name("reference.json")) as fh:
                return json.load(fh)[self.name]
        if self._reference is None:
            if self.name == "study":
                self._reference = study_reference(_study_seed(self.seed), STUDY_M)
            else:
                self._reference = wide_reference(self.wide["arrays"])
        return self._reference

    def _check_r1(self, result, warm) -> list[str]:
        if result.get("code", 0) != 0:
            return [f"mvdlm simulate exited with {result['code']}"]
        try:
            got = self.values(result)
        except (KeyError, IndexError, ValueError) as exc:
            return [f"cannot read the output: {exc!r}"]
        want = self._reference_values(warm)
        problems: list[str] = []
        for key in got:
            _close(f"{self.name} {key}", got[key], want[key], problems)
        return problems

    def _check_csv(self, result, warm) -> list[str]:
        if result["code"] != 0:
            return [f"mvdlm filter exited with {result['code']}"]
        values = _csv_values(DEFAULT_SEED if warm else self.seed, CSV_WARM_T if warm else CSV_T)
        problems: list[str] = []
        for mode in ("new", "classical"):
            path = result["out"] / f"records.{mode}.csv"
            if not path.exists():
                problems.append(f"{path.name} was not written")
                continue
            problems += [f"{mode}: {p}" for p in check_records(path, values, mode)]
        return problems


def check_records(path: Path, values: np.ndarray, mode: str) -> list[str]:
    """Invariants of one ``mvdlm filter`` records file for r >= 2 input ``values``."""
    T, r, p = values.shape
    text = path.read_text()
    header, _, body = text.partition("\n")
    cols = header.split(",")
    n_pairs = p * (p + 1) // 2
    want_cols = 1 + 2 * p * r + r + n_pairs + p + p * (p - 1) // 2
    if len(cols) != want_cols:
        return [f"{len(cols)} columns, expected {want_cols}"]
    table = np.loadtxt(io.StringIO(body.replace("NA", "nan")), delimiter=",", ndmin=2)
    if table.shape != (T, want_cols):
        return [f"records shape {table.shape}, expected {(T, want_cols)}"]
    problems = []
    pos = 1
    f = table[:, pos : pos + p * r]; pos += p * r
    q = table[:, pos : pos + r]; pos += r
    e = table[:, pos : pos + p * r]; pos += p * r
    s = table[:, pos : pos + n_pairs]; pos += n_pairs
    n = table[:, pos : pos + p]; pos += p
    corr = table[:, pos:]
    observed = ~np.isnan(values.transpose(0, 2, 1).reshape(T, p * r))
    if not np.array_equal(table[:, 0], np.arange(1, T + 1)):
        problems.append("time column is not 1..T")
    for name, block in (("f", f), ("q", q), ("s", s), ("n", n), ("corr", corr)):
        if not np.all(np.isfinite(block)):
            problems.append(f"non-finite {name}")
    if not np.array_equal(np.isfinite(e), observed):
        problems.append("residual NA cells do not match the missing cells")
    if not np.all(q > 0):
        problems.append("forecast scale q is not positive")
    S = np.empty((T, p, p))
    iu = np.triu_indices(p)
    S[:, iu[0], iu[1]] = s
    S[:, iu[1], iu[0]] = s
    eig = np.linalg.eigvalsh(S)
    if np.any(eig[:, 0] < -1e-9 * eig[:, -1]):
        problems.append(f"scale S not PSD (smallest eigenvalue {eig[:, 0].min():.3g})")
    if np.any(np.abs(corr) > 1.0):
        problems.append("correlation outside [-1, 1]")
    obs = ~np.isnan(values)  # T x r x p
    if mode == "new":
        counts = obs.sum(axis=1)
    else:
        counts = np.where(obs.all(axis=(1, 2))[:, None], r, 0) * np.ones((1, p))
    if not np.array_equal(n, 1.0 + np.cumsum(counts, axis=0)):
        problems.append("dof n differs from N0 plus the observed counts")
    return problems
