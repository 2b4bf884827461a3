"""EM side-channel signal chain.

Simulated power trace -> emitted envelope (:mod:`synth`) -> probe and
environment distortions (:mod:`channel`) -> bandwidth-limited capture
(:mod:`receiver`).  :mod:`apparatus` chains all three;
:mod:`memprobe` synthesizes the memory-side probe of Fig. 10 and
:mod:`spectrogram` the Fig. 14 spectrogram.
"""

from .._lazy import lazy_surface

# Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "Apparatus": "apparatus",
    "measure": "apparatus",
    "Channel": "channel",
    "ChannelConfig": "channel",
    "Receiver": "receiver",
    "Capture": "capture",
    "MHZ": "capture",
    "PAPER_BANDWIDTHS_HZ": "receiver",
    "EmissionModel": "synth",
    "emitted_envelope": "synth",
    "MemProbeConfig": "memprobe",
    "memory_probe_signal": "memprobe",
    "Spectrogram": "spectrogram",
    "compute_spectrogram": "spectrogram",
    "lowpass": "dsp",
    "resample_to_rate": "dsp",
    "rms": "capture",
    "stft_magnitude": "dsp",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_surface(__name__, _EXPORTS)
