"""Fisher-information models for trajectory planning: Gaussian-sensor
conditional FIM, expectation over the target prior by second-order Taylor
correction, prior information, rate-weighted sensor suites, and the
Doppler-shift sensor.

What every evaluation shares is cached on the object it comes from, built on
first use: a prior's Taylor stencil (GaussianPrior.taylor_stencil) and a
sensor's noise information (Sensor.noise_information)."""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from infotraj.matrixcore import DimensionError, cholesky_spd, vec


class GeometryError(ValueError):
    """Sensor and target geometrically coincide; the measurement is undefined."""


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior on the target position: mean (m) and SPD covariance (m^2)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.ndim != 1:
            raise DimensionError("prior mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise DimensionError(
                f"prior covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        cholesky_spd(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    @cached_property
    def taylor_stencil(self) -> _Stencil:
        """The stencil of the prior for step HESSIAN_STEP."""
        theta0 = self.mean
        p = self.dim
        h = HESSIAN_STEP
        stencil = [theta0]
        for k in range(p):
            ek = np.zeros(p)
            ek[k] = h
            stencil.append(theta0 + ek)
            stencil.append(theta0 - ek)
        cross_pairs = tuple(
            (k, l) for k in range(p) for l in range(k + 1, p) if self.covariance[k, l] != 0.0
        )
        for k, l in cross_pairs:
            ek = np.zeros(p)
            el = np.zeros(p)
            ek[k] = h
            el[l] = h
            stencil.append(theta0 + ek + el)
            stencil.append(theta0 + ek - el)
            stencil.append(theta0 - ek + el)
            stencil.append(theta0 - ek - el)
        return _Stencil(np.asarray(stencil), cross_pairs)

    @classmethod
    def isotropic(cls, std: float, dim: int = 2, mean=None) -> "GaussianPrior":
        if std <= 0.0:
            raise ValueError("prior standard deviation must be positive")
        mean = np.zeros(dim) if mean is None else np.asarray(mean, dtype=float)
        return cls(mean, std**2 * np.eye(dim))


class Sensor(ABC):
    """A measurement model with Gaussian noise whose covariance does not depend
    on the target parameter.

    Implementations expose the measurement mean and its Jacobian with respect
    to the target parameter, both broadcastable over leading batch axes.
    """

    theta_dim: int
    rate: float  # sampling rate, Hz

    @property
    @abstractmethod
    def noise_cov(self) -> np.ndarray:
        """Measurement noise covariance, shape (q, q), SPD."""

    @cached_property
    def noise_information(self) -> np.ndarray:
        """Sigma^-1 of the noise covariance, which must be SPD."""
        cov = np.asarray(self.noise_cov, dtype=float)
        cholesky_spd(cov)
        return np.linalg.solve(cov, np.eye(cov.shape[-1]))

    @abstractmethod
    def mean(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Measurement mean, shape (..., q)."""

    @abstractmethod
    def jacobian(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """d mean / d theta, shape (..., q, theta_dim)."""


def _doppler_geometry(sensor: "DopplerSensor", x, theta):
    """Planar offsets X - theta_X, Y - theta_Y and the 3-d sensor-target
    distance, broadcast over the leading axes of x and theta."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dx = x[..., 0] - theta[..., 0]
    dy = x[..., 1] - theta[..., 1]
    altitude = float(sensor.altitude)
    # summed in the order of a norm over (dx, dy, altitude)
    dist = np.sqrt(dx * dx + dy * dy + altitude * altitude)
    if np.any(dist == 0.0):
        raise GeometryError("sensor and target positions coincide in 3-d")
    return x, dx, dy, dist


def doppler_mean(sensor: "DopplerSensor", x, theta) -> np.ndarray:
    """Doppler shift (Hz) seen at vehicle state x, flying at sensor.speed,
    for a target at theta.

    Closing-rate convention: the shift is frequency_scale times the negative
    range rate, so an approaching target reads positive and the magnitude is
    bounded by frequency_scale * sensor.speed.
    """
    x, dx, dy, dist = _doppler_geometry(sensor, x, theta)
    vel_along = sensor.speed * (np.cos(x[..., 2]) * dx + np.sin(x[..., 2]) * dy)
    return -sensor.frequency_scale * vel_along / dist


def doppler_jacobian(sensor: "DopplerSensor", x, theta) -> np.ndarray:
    """Analytic d(doppler_mean)/d(theta), shape (..., 1, 2)."""
    x, dx, dy, dist = _doppler_geometry(sensor, x, theta)
    vx = sensor.speed * np.cos(x[..., 2])
    vy = sensor.speed * np.sin(x[..., 2])
    v_dot_r = vx * dx + vy * dy
    dist3 = dist**3
    scale = sensor.frequency_scale
    jac = np.empty(dist.shape + (1, 2))
    jac[..., 0, 0] = scale * (vx / dist - v_dot_r * dx / dist3)
    jac[..., 0, 1] = scale * (vy / dist - v_dot_r * dy / dist3)
    return jac


@dataclass(frozen=True)
class DopplerSensor(Sensor):
    """Passive carrier-frequency-shift sensor rigidly mounted on the vehicle.

    The vehicle flies at a fixed altitude above the target plane with a fixed
    speed, so the measurement depends on the planar vehicle state only.
    frequency_scale is the shift per unit closing rate (carrier frequency
    divided by the propagation speed); the default corresponds to roughly a
    1 GHz carrier.
    """

    altitude: float
    noise_std: float
    rate: float
    speed: float
    frequency_scale: float = 3.33

    theta_dim = 2

    def __post_init__(self):
        if self.altitude < 0.0:
            raise ValueError("altitude must be nonnegative")
        if self.frequency_scale <= 0.0:
            raise ValueError("frequency scale must be positive")
        if self.noise_std <= 0.0:
            raise ValueError("noise standard deviation must be positive")
        if self.rate <= 0.0:
            raise ValueError("sampling rate must be positive")
        if self.speed <= 0.0:
            raise ValueError("vehicle speed must be positive")

    @property
    def noise_cov(self) -> np.ndarray:
        return np.array([[self.noise_std**2]])

    def mean(self, x, theta):
        return doppler_mean(self, x, theta)[..., None]

    def jacobian(self, x, theta):
        return doppler_jacobian(self, x, theta)


# the Taylor expectation's finite-difference step of the elementwise
# Hessians (meters) and its clipping tolerance on eigenvalues
HESSIAN_STEP = 1e-2
INDEFINITE_TOL = 1e-8
# relative margin of the 2x2 definiteness screen: a row whose closed-form
# smallest eigenvalue exceeds it times |trace| is positive definite beyond
# any roundoff, so the eigh repair would return it unchanged
_SCREEN_MARGIN = 1e-8


class _Stencil(NamedTuple):
    """Target parameters at which the Taylor correction evaluates the
    conditional information: the prior mean, +-HESSIAN_STEP along each axis,
    then the four corners (++, +-, -+, --) of each nonzero covariance cross
    term."""

    thetas: np.ndarray  # (n, p)
    cross_pairs: tuple  # (k, l), k < l, with sigma[k, l] != 0


def _check_theta_dim(sensor: Sensor, prior: GaussianPrior) -> None:
    if prior.dim != sensor.theta_dim:
        raise DimensionError(
            f"prior dimension {prior.dim} does not match sensor theta dimension "
            f"{sensor.theta_dim}"
        )


def conditional_fim(sensor: Sensor, x, theta) -> np.ndarray:
    """Information matrix J^T Sigma^-1 J of one measurement at fixed theta."""
    jac = sensor.jacobian(x, theta)
    out = np.swapaxes(jac, -1, -2) @ (sensor.noise_information @ jac)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _clip_or_fall_back(out: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Repair Taylor-corrected matrices by eigh: eigenvalues in
    [-INDEFINITE_TOL, 0) are clipped to zero; a more negative one warns and
    falls back to the conditional value at the mean (center)."""
    eigvals, eigvecs = np.linalg.eigh(out)
    broken = eigvals[..., 0] < -INDEFINITE_TOL
    if np.any(broken):
        count = int(np.count_nonzero(broken))
        warnings.warn(
            f"Taylor-corrected information matrix indefinite at {count} state(s); "
            "falling back to the conditional value at the prior mean there",
            RuntimeWarning,
            stacklevel=3,
        )
    negative = eigvals[..., 0] < 0.0
    if np.any(negative):
        # repair strictly per element: results must not depend on what else
        # shares the batch (info_rate_on_grid evaluates the field in chunks)
        clipped = np.clip(eigvals, 0.0, None)
        rebuilt = (eigvecs * clipped[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)
        rebuilt = 0.5 * (rebuilt + np.swapaxes(rebuilt, -1, -2))
        out = np.where(negative[..., None, None], rebuilt, out)
    if np.any(broken):
        out = np.where(broken[..., None, None], center, out)
    return out


def expected_fim(sensor: Sensor, x, prior: GaussianPrior) -> np.ndarray:
    """Expectation of the conditional information matrix over the target prior.

    Second-order Taylor correction around the prior mean:
        E[Q_ij] ~= Q_ij(mean) + 0.5 * tr(Sigma H_ij(mean)),
    with the elementwise Hessians H_ij formed by nested central differences of
    step HESSIAN_STEP (meters). Exact when Q is at most quadratic in theta.

    The correction can leave the result slightly indefinite: eigenvalues in
    [-INDEFINITE_TOL, 0) are clipped to zero; anything more negative triggers
    a breakdown warning and a fallback to the conditional value at the mean.
    For p = 2 a closed-form smallest eigenvalue screens the rows first, and
    only those that are not clearly positive definite are decomposed.
    """
    _check_theta_dim(sensor, prior)
    stencil = prior.taylor_stencil
    x = np.asarray(x, dtype=float)
    sigma = prior.covariance
    p = prior.dim
    h2 = HESSIAN_STEP**2
    q_all = conditional_fim(sensor, x[..., None, :], stencil.thetas)
    center = q_all[..., 0, :, :]
    correction = np.zeros_like(center)
    for k in range(p):
        plus_k = q_all[..., 1 + 2 * k, :, :]
        minus_k = q_all[..., 2 + 2 * k, :, :]
        correction = correction + 0.5 * sigma[k, k] * (plus_k - 2.0 * center + minus_k) / h2
    base = 1 + 2 * p
    for idx, (k, l) in enumerate(stencil.cross_pairs):
        qpp = q_all[..., base + 4 * idx, :, :]
        qpm = q_all[..., base + 4 * idx + 1, :, :]
        qmp = q_all[..., base + 4 * idx + 2, :, :]
        qmm = q_all[..., base + 4 * idx + 3, :, :]
        cross = (qpp - qpm - qmp + qmm) / (4.0 * h2)
        correction = correction + sigma[k, l] * cross  # k<l counted twice in the trace
    out = center + correction
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    if p != 2:
        return _clip_or_fall_back(out, center)

    # 2x2 screen: only rows that are not clearly positive definite (and rows
    # with NaNs) go through the eigh repair, which leaves the others unchanged
    a = out[..., 0, 0]
    b = out[..., 0, 1]
    c = out[..., 1, 1]
    lam_min = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    suspect = ~(lam_min > _SCREEN_MARGIN * np.abs(a + c))
    if np.any(suspect):
        out[suspect] = _clip_or_fall_back(out[suspect], center[suspect])
    return out


def prior_fim(prior: GaussianPrior) -> np.ndarray:
    """Information carried by the prior itself: the inverse covariance."""
    chol = cholesky_spd(prior.covariance)
    inv_chol = np.linalg.inv(chol)
    out = inv_chol.T @ inv_chol
    return 0.5 * (out + out.T)


def suite_fim(sensors, x, prior: GaussianPrior) -> np.ndarray:
    """Rate-weighted information rate of a sensor suite: sum_i F_i E[Q_i(x)].

    Every term reads the prior's cached stencil and its sensor's cached
    noise information; suite_info_rate checks the suite once.
    """
    total = None
    for sensor in sensors:
        term = sensor.rate * expected_fim(sensor, x, prior)
        total = term if total is None else total + term
    return total


def suite_info_rate(sensors, prior: GaussianPrior):
    """Information-rate callable x -> vec(sum_i F_i E[Q_i(x)]) for a vehicle model.

    The suite is checked here, before any call: it must not be empty, each
    sensor's theta_dim must match the prior, and each noise covariance must
    be SPD (reading the sensor's noise information caches it). Each call
    goes through the module's suite_fim.
    """
    if not sensors:
        raise ValueError("sensor suite is empty")
    for sensor in sensors:
        _check_theta_dim(sensor, prior)
        sensor.noise_information  # raises here, before a solve writes anything

    def rate(x):
        return vec(suite_fim(sensors, x, prior))

    return rate
