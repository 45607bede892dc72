"""Frozen bits of the information kernel and the information curve.

For each channel case, eb = tau2 * 10^(channel_snr_db / 10) at channel
SNRs from -160 to 80 dB (both sides of the kernel's -20 dB branch) and
two tau2 scales, ``kernel_bits.json`` holds the sha256 of the float64
bytes of ``crlb.mixture_integral`` over 1,001 points of |s| <= 27 in one
call, and of the channel's information curve at the same points, and
the channel's per-sensor operating point s* in ``float.hex`` form.  The
tests require the kernel, the curve and s* to give the same bits.  The
end-to-end fingerprint (``fingerprint.json``) guards these bits only
through the bounds and thresholds they end in; this file guards them at
the layer.  Like ``fingerprint.json``, the hashes hold for one numpy
build and CPU family: another SIMD path for ``exp`` can move last bits.
Regenerate (from the repository root) with

    PYTHONPATH=src python -m tests.kernel_bits

which overwrites ``tests/kernel_bits.json`` with the current code's
hashes, so run it only to re-baseline deliberately.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from srcloc.crlb import _best_operating_point, _information_curve, mixture_integral

FIXTURE = Path(__file__).with_name("kernel_bits.json")
COMMAND = "PYTHONPATH=src python -m tests.kernel_bits"
CHANNEL_SNRS_DB = (-160.0, -120.0, -80.0, -40.0, -25.0, -20.0, -15.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 60.0, 80.0)
TAU2_SCALES = (1.0, 3.7)
S = np.linspace(-27.0, 27.0, 1001)


def cases() -> list:
    """(label, eb, tau2) of every channel, in fixture order."""
    return [
        (f"{snr:g} dB tau2={tau2:g}", tau2 * 10.0 ** (snr / 10.0), tau2)
        for tau2 in TAU2_SCALES
        for snr in CHANNEL_SNRS_DB
    ]


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def bits() -> dict:
    """label -> {"kernel": sha256, "curve": sha256, "s_star": hex} of every channel."""
    out = {}
    for label, eb, tau2 in cases():
        curve = _information_curve(eb, tau2)
        out[label] = {
            "kernel": _sha256(mixture_integral(S, eb, tau2)),
            "curve": _sha256(curve(S)),
            "s_star": _best_operating_point(eb, tau2).hex(),
        }
    return out


def main() -> None:
    FIXTURE.write_text(json.dumps({"command": COMMAND, "cases": bits()}, indent=1) + "\n")


if __name__ == "__main__":
    main()
