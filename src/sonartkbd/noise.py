"""Vector-autoregressive ambient noise model: fit, whiten, simulate, persist.

The noise model is y_n = sum_i A_i y_{n-i} + w_n with w_n ~ N(0, Sigma_w).
Whitening inverts it sample by sample, w_n = F^-1 (y_n - sum_i A_i y_{n-i}),
with F the lower Cholesky factor of Sigma_w, so the filter is causal and can
stream across batch boundaries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MAGIC = b"SONARVAR"
_VERSION = 1
# samples per matrix-vector product in `NoiseStream`; on the 8-channel
# order-14 generator 16 runs as fast as 32 and keeps the matrix a third the size
_BLOCK = 16
# rows per whitening tile: one tracker block of 64 batches of 64 samples
_TILE = 4096


class FitError(ValueError):
    """Raised when the least-squares problem is unsolvable as posed."""


class InstabilityError(ValueError):
    """Raised when a model with companion spectral radius >= 1 is simulated."""


class ModelFileError(ValueError):
    """Raised on malformed model files."""


@dataclass(frozen=True)
class VarModel:
    """VAR(p) coefficients `coeffs` (p, M, M) and innovation covariance (M, M).

    Both are read-only copies of what was passed in, so the spectral radius
    and the stationary covariance are solved at most once per model and kept;
    a pickled copy carries them along.
    """

    coeffs: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        # C order, so a copy pickled to a worker process computes bit for bit alike
        a = np.array(self.coeffs, dtype=float, order="C")
        s = np.asarray(self.noise_cov, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise FitError(f"coeffs must be (p, M, M), got {a.shape}")
        if s.shape != (a.shape[1], a.shape[1]):
            raise FitError(f"noise_cov must be ({a.shape[1]}, {a.shape[1]}), got {s.shape}")
        self.__setstate__({"coeffs": a, "noise_cov": 0.5 * (s + s.T)})

    def __setstate__(self, state: dict) -> None:
        # also how pickle restores a model, so a worker's copy is read-only too
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_channels(self) -> int:
        return self.noise_cov.shape[0]

    def noise_chol(self) -> np.ndarray:
        """Lower Cholesky factor of the innovation covariance, in Fortran order
        (the layout LAPACK returns it in, which fixes the bits of products with it)."""
        return np.asfortranarray(np.linalg.cholesky(self.noise_cov))

    def companion(self) -> np.ndarray:
        p, m = self.order, self.n_channels
        if p == 0:
            return np.zeros((m, m))
        comp = np.zeros((p * m, p * m))
        comp[:m] = self.coeffs.transpose(1, 0, 2).reshape(m, p * m)
        if p > 1:
            comp[m:, :-m] = np.eye((p - 1) * m)
        return comp

    def spectral_radius(self) -> float:
        return self._radius

    def stationary_cov(self) -> np.ndarray:
        """Lag-0 covariance of the stationary process, a copy of the stored one."""
        if self.spectral_radius() >= 1.0:
            raise InstabilityError("model is not stable, no stationary covariance")
        return self._stationary.copy()

    @cached_property
    def _radius(self) -> float:
        if self.order == 0:
            return 0.0
        return float(np.abs(np.linalg.eigvals(self.companion())).max())

    @cached_property
    def _stationary(self) -> np.ndarray:
        """Solved in companion form (Lutkepohl 2005, sec. 2.1) by Smith's doubling:
        X <- X + A X A^T, A <- A^2 sums the series X = sum_k A^k Q A^kT in
        doubling blocks until X stops changing, at most 2^64 terms."""
        p, m = self.order, self.n_channels
        if p == 0:
            return self.noise_cov.copy()
        x = np.zeros((p * m, p * m))
        x[:m, :m] = self.noise_cov
        a = self.companion()
        for _ in range(64):
            grown = x + a @ x @ a.T
            if np.array_equal(grown, x):
                break
            x, a = grown, a @ a
        return x[:m, :m].copy()


def fit_var(data: np.ndarray, order: int) -> VarModel:
    """Least-squares fit of a VAR(`order`) model to a (T, M) recording.

    Regresses each sample on its `order` predecessors over n = order..T-1 and
    estimates the innovation covariance from the residuals with divisor
    T - order - 1. The normal equations get a ridge of 1e-10 times their
    trace only if they come back singular. Both are read from blocks of the
    lag Gram matrix (Lutkepohl 2005, sec. 3.2), with no design matrix formed.
    """
    y = _check_data(data)
    t_total, m = y.shape
    p = int(order)
    if p < 0:
        raise FitError(f"order must be >= 0, got {order}")
    if t_total <= p * m + p + 1:
        raise FitError(
            f"need more than p*M + p + 1 = {p * m + p + 1} samples for order {p}, got {t_total}")
    gram = _lag_gram(y, p)
    if p == 0:
        return VarModel(np.zeros((0, m, m)), gram / (t_total - 1))
    beta = _solve_normal(gram[m:, m:], gram[m:, :m])
    sigma = (gram[:m, :m] - gram[m:, :m].T @ beta) / (t_total - p - 1)
    coeffs = np.stack([beta[i * m:(i + 1) * m].T for i in range(p)])
    return VarModel(coeffs, sigma)


def select_order(data: np.ndarray, max_order: int) -> tuple[int, np.ndarray]:
    """Pick the VAR order in [0, max_order] minimising AIC.

    AIC(p) = T ln det Sigma_w(p) + 2 p M^2, with Sigma_w(p) the innovation
    covariance of the least-squares VAR(p) fit that `fit_var` makes: the same
    sample set n = p..T-1, the same divisor T - p - 1 and the same ridge
    fallback. A singular or indefinite Sigma_w scores inf.

    One Gram matrix serves every order, that of z_n = [y_n, y_{n-1}, ...,
    y_{n-P}] (P = max_order, zero where a lag reaches before the first
    sample), built from P + 1 lag products. Order p takes that matrix less the
    outer products of z_0..z_{p-1}, which is the Gram matrix over n = p..T-1,
    and reads its normal equations from the leading (p+1)M block. Like
    `fit_var`, it needs T > P M + P + 1 samples; the check runs before any
    fitting and names `max_order`.

    Returns the winning order and the full score vector for diagnostics.
    """
    y = _check_data(data)
    p_max = int(max_order)
    if p_max < 0:
        raise FitError(f"max_order must be >= 0, got {max_order}")
    t_total, m = y.shape
    if t_total <= p_max * m + p_max + 1:
        raise FitError(f"need more than p*M + p + 1 = {p_max * m + p_max + 1} samples "
                       f"for max_order {p_max}, got {t_total}")
    padded = np.vstack([np.zeros((p_max, m)), y])
    full = _lag_gram(padded, p_max)
    head = _lag_rows(padded, p_max, 0, p_max)
    scores = np.empty(p_max + 1)
    for p in range(p_max + 1):
        if p:
            full -= np.outer(head[p - 1], head[p - 1])
            k = (p + 1) * m
            rhs = full[m:k, :m]
            resid_gram = full[:m, :m] - rhs.T @ _solve_normal(full[m:k, m:k], rhs)
        else:
            resid_gram = full[:m, :m]
        sigma = resid_gram / (t_total - p - 1)
        sign, logdet = np.linalg.slogdet(0.5 * (sigma + sigma.T))
        scores[p] = t_total * logdet + 2.0 * p * m * m if sign > 0 else np.inf
    best = int(np.argmin(scores))
    return best, scores


def _solve_normal(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the normal equations, with a ridge of 1e-10 trace(gram) only if
    `gram` is not positive definite; LinAlgError if it is not even then."""
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        ridge = 1e-10 * np.trace(gram)
        gram = gram + ridge * np.eye(gram.shape[0])
        np.linalg.cholesky(gram)
    return np.linalg.solve(gram, rhs)


def _check_data(data) -> np.ndarray:
    """The (T, M) float recording, or a `FitError` naming its first non-finite row."""
    y = np.asarray(data, dtype=float)
    if y.ndim != 2:
        raise FitError(f"data must be (T, M), got shape {y.shape}")
    bad = ~np.isfinite(y).all(axis=1)
    if bad.any():
        raise FitError(f"data row {int(np.argmax(bad))} is not finite")
    return y


def _lag_gram(padded: np.ndarray, p_max: int) -> np.ndarray:
    """Gram matrix of all `_lag_rows` of `padded` (L, M), from P + 1 lag products.

    Block (i, j) with i >= j sums padded[a]^T padded[a + d], d = i - j, over
    a = P-i..L-1-i: the lag-d product C_d over all L - d pairs, less the P - i
    pairs before that range and the j after it (Lutkepohl 2005, sec. 3.2).
    """
    length, m = padded.shape
    gram = np.empty(((p_max + 1) * m,) * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(p_max + 1):
            lag = padded[:length - d].T @ padded[d:]
            for j in range(p_max + 1 - d):
                i = j + d
                block = (lag - padded[:p_max - i].T @ padded[d:p_max - j]
                         - padded[length - i:length - d].T @ padded[length - j:])
                gram[i * m:(i + 1) * m, j * m:(j + 1) * m] = block
                gram[j * m:(j + 1) * m, i * m:(i + 1) * m] = block.T
    if not np.isfinite(gram).all():
        raise FitError("data too large: its lag products overflow")
    return gram


def _lag_rows(padded: np.ndarray, p_max: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of [y_n, y_{n-1}, ..., y_{n-P}], with y_n = padded[P + n]:
    `select_order` leads the data with P zero rows, `fit_var` with its first P samples."""
    m = padded.shape[1]
    z = np.empty((stop - start, (p_max + 1) * m))
    for i in range(p_max + 1):
        z[:, i * m:(i + 1) * m] = padded[p_max + start - i:p_max + stop - i]
    return z


@dataclass
class WhitenState:
    """Carry-over between whitening calls: the last p raw samples seen."""

    history: np.ndarray  # (p, M)
    seen: int = 0

    @classmethod
    def fresh(cls, model: VarModel) -> "WhitenState":
        return cls(np.zeros((model.order, model.n_channels)), 0)


def whiten(model: VarModel, samples: np.ndarray, state: WhitenState | None = None
           ) -> tuple[np.ndarray, WhitenState, int]:
    """Stream `samples` (n, M) through the inverted noise model.

    Returns the whitened block, the updated state, and how many leading rows
    of this block are warm-up (computed against zero-padded history because
    fewer than p samples had been seen). Warm-up rows should be excluded
    from likelihood evaluation.

    The input streams through one staging buffer `_TILE` rows at a time, and
    each tile forms its residual in its output rows and multiplies it by
    F^-T, inverted once per call: the output plus about two tiles of memory,
    and the bits of one pass over all rows. No tile has 1 row unless n does,
    as numpy takes a vector path for a single row, whose last bits can
    differ. A tile whose residual is not finite raises ValueError.
    """
    y = np.asarray(samples)
    m = model.n_channels
    if y.ndim != 2 or y.shape[1] != m:
        raise FitError(f"samples must be (n, {m}), got {y.shape}")
    p = model.order
    if state is None:
        state = WhitenState.fresh(model)
    if state.history.shape != (p, m):
        raise FitError("whiten state does not match the model")
    n = y.shape[0]
    unmix = np.linalg.inv(model.noise_chol()).T
    white = np.empty((n, m))
    stage = np.empty((p + min(n, _TILE), m))  # [p samples before the tile; the tile]
    stage[:p] = state.history
    prod = np.empty((min(n, _TILE), m))
    cuts = [*range(0, n, _TILE), n]
    if n > 1 and n % _TILE == 1:
        cuts[-2] -= 1
    for lo, hi in zip(cuts, cuts[1:]):
        k = hi - lo
        stage[p:p + k] = y[lo:hi]
        resid = white[lo:hi]
        resid[:] = stage[p:p + k]
        for i in range(1, p + 1):
            resid -= np.matmul(stage[p - i:p - i + k], model.coeffs[i - 1].T, out=prod[:k])
        if not np.isfinite(resid).all():
            raise ValueError(f"whitening residuals of rows {lo}..{hi - 1} "
                             "must not contain infs or NaNs")
        resid[:] = np.matmul(resid, unmix, out=prod[:k])
        stage[:p] = stage[k:k + p]
    warmup = int(min(max(p - state.seen, 0), n))
    return white, WhitenState(stage[:p].copy(), state.seen + n), warmup


class NoiseStream:
    """Stateful VAR sample generator with the startup transient removed.

    Draws innovations from `rng`, runs the recursion from a zero state, and
    discards max(10 p, 1000) burn-in samples at construction so the first
    sample handed out is already (approximately) stationary.

    The recursion advances in blocks of `_BLOCK` samples on a grid that starts
    at the first burn-in sample. One product with the lifted matrix
    W = [T | H] maps a block's innovations and the history before it to the
    block's samples (companion form, Lutkepohl 2005, sec. 2.1). A call that
    ends inside a block keeps that block's standard normals and forms the
    block again, in full, on the next call; only a complete block's samples
    enter the history. Each call forms its innovations in one product of
    whole blocks, the missing normals of an open block set to zero, so no
    innovation product has a single row, whose last bits numpy's vector path
    can change. Row i of W's product depends only on row i of W, and T is
    causal, so row i meets the zeros after sample i only through exact
    zeros: the stream has the same bits however the `take` or `run` calls
    split it.
    """

    def __init__(self, model: VarModel, rng: np.random.Generator):
        if model.spectral_radius() >= 1.0:
            raise InstabilityError(
                f"companion spectral radius {model.spectral_radius():.4f} >= 1")
        self.model = model
        self.rng = rng
        self._chol = model.noise_chol()
        p, m = model.order, model.n_channels
        self._open = np.empty((0, m))  # standard normals of the open block
        if p:
            self._lifted = _lifted_var(model)
            # [innovations of the block; history y_{-1}, ..., y_{-p} before it]
            self._state = np.zeros((_BLOCK + p) * m)
        self.take(max(10 * model.order, 1000))  # burn-in

    def take(self, n: int) -> np.ndarray:
        """Next n samples, shape (n, M)."""
        return self.run(self.rng.standard_normal((n, self.model.n_channels)))

    def run(self, z: np.ndarray) -> np.ndarray:
        """Next len(z) samples, shape (n, M), driven by the standard normals
        `z` (n, M) that `take(n)` would have drawn."""
        p, m = self.model.order, self.model.n_channels
        held = len(self._open)
        n = held + len(z)
        normals = np.zeros((-(-n // _BLOCK) * _BLOCK, m))
        normals[:held] = self._open
        normals[held:n] = z
        self._open = normals[n - n % _BLOCK:n].copy()
        innov = normals @ self._chol.T
        if p == 0:
            return innov[held:n]
        # each block's samples overwrite its innovations; a complete block's
        # newest min(p, L) samples enter the history newest first, after the
        # older ones still in reach shift back
        kept = min(p, _BLOCK)
        state, history = self._state, self._state[_BLOCK * m:]
        older, keep = history[_BLOCK * m:], history[:(p - kept) * m]
        newest = history[:kept * m].reshape(kept, m)
        newest_first = innov.reshape(-1, _BLOCK, m)[:, ::-1][:, :kept]
        for b, (y, last) in enumerate(zip(innov.reshape(-1, _BLOCK * m), newest_first)):
            state[:_BLOCK * m] = y
            np.matmul(self._lifted, state, out=y)
            if b < n // _BLOCK:
                older[:] = keep
                newest[:] = last
        return innov[held:n]


def _lifted_var(model: VarModel) -> np.ndarray:
    """W = [T | H], (L M, L M + p M) for L = `_BLOCK`: one block's samples from
    its innovations and the p samples before it.

    T is the block lower-triangular Toeplitz matrix of impulse responses and
    H the zero-input response to the history [y_{-1}, ..., y_{-p}]; both come
    from running the recursion on the columns of the identity, in place.
    """
    p, m = model.order, model.n_channels
    # [A_p, ..., A_1] side by side, to meet samples stacked oldest first
    coef = model.coeffs[::-1].transpose(1, 0, 2).reshape(m, p * m)
    size = (_BLOCK + p) * m
    # y_{-p}, ..., y_{-1}, y_0, ..., y_{L-1} as functions of the inputs
    # [e_0, ..., e_{L-1}, y_{-1}, ..., y_{-p}]
    rows = np.zeros((size, size))
    rows[:p * m, _BLOCK * m:] = np.eye(p * m).reshape(p, m, p * m)[::-1].reshape(p * m, p * m)
    for j in range(_BLOCK):
        y = rows[(p + j) * m:(p + j + 1) * m]
        y[:, j * m:(j + 1) * m] = np.eye(m)
        y += coef @ rows[j * m:(j + p) * m]
    return rows[p * m:].copy()


def save_var(model: VarModel, path) -> None:
    """Write the model to `path`.

    Layout: 8-byte magic "SONARVAR", 1 version byte, little-endian uint32
    order p and channel count M, then p*M*M coefficient float64s (A_1..A_p,
    each row major) followed by M*M covariance float64s, row major.
    """
    p, m = model.order, model.n_channels
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", _VERSION))
        fh.write(struct.pack("<II", p, m))
        fh.write(np.ascontiguousarray(model.coeffs, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.noise_cov, dtype="<f8").tobytes())


def load_var(path) -> VarModel:
    """Read a model written by :func:`save_var`, validating the layout."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = len(_MAGIC) + 1 + 8
    if len(raw) < head or raw[:len(_MAGIC)] != _MAGIC:
        raise ModelFileError(f"{path}: not a VAR model file")
    version = raw[len(_MAGIC)]
    if version != _VERSION:
        raise ModelFileError(f"{path}: unsupported model file version {version}")
    p, m = struct.unpack_from("<II", raw, len(_MAGIC) + 1)
    want = head + 8 * (p * m * m + m * m)
    if len(raw) != want:
        raise ModelFileError(f"{path}: expected {want} bytes, found {len(raw)}")
    body = np.frombuffer(raw, dtype="<f8", offset=head)
    if not np.isfinite(body).all():
        part = "coefficient" if not np.isfinite(body[:p * m * m]).all() else "covariance"
        raise ModelFileError(f"{path}: non-finite {part} value")
    coeffs = body[:p * m * m].reshape(p, m, m)
    sigma = body[p * m * m:].reshape(m, m)
    if np.abs(sigma).max(initial=0.0) > np.finfo(float).max / 2:
        raise ModelFileError(f"{path}: covariance value too large to symmetrise")
    model = VarModel(coeffs.copy(), sigma.copy())
    try:
        model.noise_chol()
    except np.linalg.LinAlgError as err:
        raise ModelFileError(f"{path}: covariance is not positive definite") from err
    return model
