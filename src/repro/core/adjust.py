"""The Adjust function (Algorithm 2) and the controlled-system interface.

Algorithm 2 is NoStop's only touchpoint with the running system: apply a
configuration θ, wait for the listener to deliver enough clean batch
metrics (§5.4), and return the penalized objective

``G = batchInterval + ρ · max(0, batchProcessingTime − batchInterval)``.

:class:`ControlledSystem` is the abstract surface Algorithm 2 needs —
implemented by :class:`repro.core.system.SimulatedSparkSystem` here, and
implementable against a real cluster's REST API in a production port
(the paper's generality claim).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import MinMaxScaler
from .metrics_collector import Measurement, MetricsCollector
from .objective import penalized_objective
from .pause import STABILITY_MARGIN


class ControlledSystem(abc.ABC):
    """What NoStop requires of the system under optimization."""

    #: Whether the most recent ``apply_configuration`` failed to take
    #: effect (e.g. the cluster could not host the requested executors
    #: during an outage).  Concrete systems with a failure mode set this;
    #: the default never fails.
    last_apply_failed: bool = False

    def degraded(self) -> bool:
        """Whether the substrate currently has active faults.

        The hardened controller widens the measurement window while this
        is True.  Systems without fault telemetry report False.
        """
        return False

    @abc.abstractmethod
    def apply_configuration(
        self,
        batch_interval: float,
        num_executors: int,
        partitions: Optional[int] = None,
        executor_cores: Optional[int] = None,
    ) -> None:
        """Table 1's ``changeConfigurations(θ)``: live reconfiguration.

        ``partitions`` is the optional third tunable of the paper's
        future-work extension ("SPSA is able to optimize multiple
        parameters simultaneously without additional overhead", §7);
        ``executor_cores`` the optional fourth (per-executor sizing,
        relaunching the pool).  Two-parameter systems may ignore both.
        """

    @abc.abstractmethod
    def collect(self, collector: MetricsCollector) -> Measurement:
        """Run the system forward until the collector yields a measurement
        (Table 1's ``getSystemStatus`` loop)."""

    @property
    @abc.abstractmethod
    def time(self) -> float:
        """Current (simulation or wall-clock) time in seconds."""

    @abc.abstractmethod
    def observed_input_rate(self) -> float:
        """Recent input data speed in records/second (for §5.5)."""

    @property
    @abc.abstractmethod
    def config_changes(self) -> int:
        """Total live configuration changes applied so far."""


@dataclass(frozen=True)
class AdjustResult:
    """Outcome of one Adjust call: objective plus the raw measurement."""

    objective: float
    batch_interval: float
    num_executors: int
    measurement: Measurement
    rho: float
    apply_failed: bool = False
    """The configuration could not be applied (infrastructure outage);
    the measurement reflects a fallback configuration, not θ."""
    measured_at: float = 0.0
    """System time when the measurement window closed (lets analysis
    place each probe before/after a fault without round granularity)."""

    @property
    def tainted(self) -> bool:
        """Whether the measurement window kept suspected-corrupt batches."""
        return self.measurement.tainted

    @property
    def corrupted(self) -> bool:
        """Whether this result would poison an SPSA gradient.

        True when the configuration never took effect (the objective
        belongs to some other θ) or the measurement window is tainted by
        fault transients the collector could not reject.
        """
        return self.apply_failed or self.measurement.tainted

    @property
    def stable(self) -> bool:
        """Whether the measured mean respects the stability constraint."""
        return self.measurement.mean_processing_time <= self.batch_interval


def theta_to_configuration(
    theta_scaled: Sequence[float], scaler: MinMaxScaler
) -> tuple:
    """Convert a scaled θ into an applicable configuration tuple.

    Axis order is ``(batch interval, executors[, partitions[, executor
    cores]])``.  The batch interval is kept at millisecond resolution
    ("batch interval is in unit of milliseconds", §4.2.1); executors,
    partitions, and cores are integers.  The optional third axis is the
    paper's future-work multi-parameter extension; the fourth is the
    tuner tournament's per-executor sizing axis.
    """
    t = np.asarray(theta_scaled, dtype=float)
    if t.shape != scaler.scaled.lower.shape:
        # Without this check a short θ broadcasts against the bound
        # arrays and silently yields a full-width configuration.
        raise ValueError(
            f"theta has {t.size} axes, space has {scaler.scaled.dim}"
        )
    physical = scaler.to_physical(t).tolist()
    if not 2 <= len(physical) <= 4:
        raise ValueError(
            f"configuration space must have 2 to 4 axes, got {len(physical)}"
        )
    lo = scaler.physical.lower.tolist()
    hi = scaler.physical.upper.tolist()
    interval = round(physical[0], 3)
    interval = min(max(interval, lo[0]), hi[0])
    out = [interval]
    for axis in range(1, len(physical)):
        value = min(max(round(physical[axis]), round(lo[axis])), round(hi[axis]))
        out.append(value)
    return tuple(out)


def apply_theta(
    system: ControlledSystem, theta_scaled: Sequence[float], scaler: MinMaxScaler
) -> tuple:
    """Apply a scaled θ to ``system``; returns the configuration applied."""
    config = theta_to_configuration(theta_scaled, scaler)
    system.apply_configuration(*config)
    return config


def evaluate_config(
    result: "AdjustResult",
    theta_scaled: Sequence[float],
    iteration: int,
    rho_cap: float = 2.0,
):
    """Build the ranking record for one Adjust result.

    Ranked at the penalty *cap* (not the ρ in force when measured) so
    early low-ρ evaluations cannot outrank later ones, and with the
    configuration's steady-state delay estimate (see
    :mod:`repro.core.pause`).
    """
    from .pause import EvaluatedConfig, steady_state_delay

    proc = result.measurement.mean_processing_time
    ranking = penalized_objective(result.batch_interval, proc, rho_cap)
    return EvaluatedConfig(
        theta=tuple(float(v) for v in theta_scaled),
        objective=ranking,
        end_to_end_delay=steady_state_delay(result.batch_interval, proc),
        iteration=iteration,
        batch_interval=result.batch_interval,
        num_executors=result.num_executors,
        mean_processing_time=proc,
        stable=proc <= result.batch_interval * (1.0 - STABILITY_MARGIN),
    )


class AdjustFunction:
    """Callable implementing Algorithm 2 against a controlled system."""

    def __init__(
        self,
        system: ControlledSystem,
        scaler: MinMaxScaler,
        collector: MetricsCollector,
    ) -> None:
        self.system = system
        self.scaler = scaler
        self.collector = collector
        self.calls = 0

    def __call__(self, theta_scaled: Sequence[float], rho: float) -> AdjustResult:
        """Apply θ, measure, and return the objective (Algorithm 2).

        Degraded-mode policy: the collector is told whether the substrate
        currently has active faults *before* the window opens, so fault
        windows are measured with the widened window rather than
        retro-actively."""
        interval, executors = apply_theta(
            self.system, theta_scaled, self.scaler
        )[:2]
        apply_failed = bool(self.system.last_apply_failed)
        self.collector.set_degraded(self.system.degraded())
        self.collector.start_measurement()
        measurement = self.system.collect(self.collector)
        objective = penalized_objective(
            interval, measurement.mean_processing_time, rho
        )
        self.calls += 1
        return AdjustResult(
            objective=objective,
            batch_interval=interval,
            num_executors=executors,
            measurement=measurement,
            rho=rho,
            apply_failed=apply_failed,
            measured_at=self.system.time,
        )
