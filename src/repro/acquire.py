"""Signal sources: where captures come from.

EMPROF only needs a :class:`~repro.emsignal.receiver.Capture`; this
module abstracts over where one originates so analysis code is
agnostic to the acquisition path:

* :class:`SimulatedSource` - the repository's laptop-scale apparatus
  (machine model + EM chain);
* :class:`FileSource` - a previously recorded ``.npz`` capture (from
  this library, or converted from a real measurement);
* :class:`SdrSource` - the seam for physical hardware.  The paper's
  bench (near-field probe -> ThinkRF WSA5000 -> PX14400 digitizers)
  or any SoapySDR-compatible receiver slots in here; since this
  repository ships no hardware drivers, instantiating it raises with
  instructions for writing the adapter.

All sources are deterministic given their construction arguments
(``SimulatedSource`` takes explicit seeds), so an analysis over any
source is reproducible.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Protocol, Union, runtime_checkable

from . import io as repro_io
from .devices.models import default_channel
from .errors import HardwareMissingError
from .emsignal.apparatus import Apparatus
from .emsignal.channel import ChannelConfig
from .emsignal.capture import Capture, MHZ
from .emsignal.synth import EmissionModel
from .sim.config import MachineConfig
from .sim.machine import Machine
from .workloads.base import Workload


@runtime_checkable
class SignalSource(Protocol):
    """Anything that can produce a capture."""

    def capture(self) -> Capture:
        """Acquire (or load, or synthesize) one capture."""
        ...  # pragma: no cover - protocol


class SimulatedSource:
    """Capture from the simulated apparatus (the repository default).

    Args:
        workload: what the target executes.
        device: machine configuration (defaults to the Olimex model).
        bandwidth_hz: receiver measurement bandwidth.
        channel: probe/channel config; defaults to the device's.
        seed: machine + channel randomness.
    """

    def __init__(
        self,
        workload: Workload,
        device: Optional[MachineConfig] = None,
        bandwidth_hz: float = 40 * MHZ,
        channel: Optional[ChannelConfig] = None,
        emission: Optional[EmissionModel] = None,
        seed: int = 0,
    ):
        from .devices.models import olimex

        self.workload = workload
        self.device = device if device is not None else olimex()
        self.bandwidth_hz = bandwidth_hz
        self.channel = (
            channel
            if channel is not None
            else default_channel(self.device.name, seed=seed)
        )
        self.emission = emission if emission is not None else EmissionModel()
        self.seed = seed
        self.last_result = None  # SimulationResult of the latest capture()

    def capture(self) -> Capture:
        """Run the workload and record its EM capture.

        The simulation's ground truth is kept on ``last_result`` for
        validation flows; signal-only consumers can ignore it.
        """
        machine = Machine(self.device, seed=self.seed)
        result = machine.run(self.workload)
        self.last_result = result
        apparatus = Apparatus(
            emission=self.emission,
            channel=self.channel,
            bandwidth_hz=self.bandwidth_hz,
        )
        return apparatus.measure(result)


class FileSource:
    """Capture loaded from a saved ``.npz`` file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def capture(self) -> Capture:
        """Load the capture from disk."""
        return repro_io.load_capture(self.path)


class SdrSource:
    """Placeholder for a physical SDR front end.

    A real adapter must tune to the target's clock frequency, capture
    ``bandwidth_hz`` of complex baseband, compute the magnitude, and
    return a :class:`Capture` with ``sample_rate_hz == bandwidth_hz``.
    This repository is hardware-free, so construction always raises
    :class:`repro.errors.HardwareMissingError` - a *permanent*
    acquisition failure, so retry policies
    (:func:`repro.experiments.runner.acquire_with_retry`) fail fast on
    it instead of retrying, unlike
    :class:`repro.errors.TransientAcquisitionError`.
    """

    ADAPTER_HINT = (
        "no SDR driver is bundled; implement SignalSource.capture() over "
        "your receiver (e.g. SoapySDR: tune to clock_hz, stream "
        "bandwidth_hz of CF32, take np.abs, wrap in "
        "repro.emsignal.receiver.Capture) and pass that object wherever a "
        "SignalSource is accepted"
    )

    def __init__(self, *args, **kwargs):
        raise HardwareMissingError(SdrSource.ADAPTER_HINT)


def profile_source(source: SignalSource, config=None):
    """Convenience: acquire from any source and profile it.

    Returns (capture, report).
    """
    from .core.profiler import Emprof

    capture = source.capture()
    report = Emprof.from_capture(capture, config=config).profile()
    return capture, report
