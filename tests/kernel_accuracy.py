"""Reference values of the information kernel from its closed form.

With a = 1/(eb + tau2), b = 1/tau2, r = b - a, c = a/r = tau2/eb,
q1 = Phi(s), q0 = 1 - q1 and z = q0*b/(q1*a), the substitution
u = exp(-r*t) turns ``crlb.mixture_integral`` into
(1/(r*q1*a)) * integral over [0, 1] of u^(c-1) (a - b*u)^2 / (1 + z*u) du.
Dividing (a - b*u)^2 by 1 + z*u gives the quotient alpha + beta*u and the
remainder gamma, with beta = b^2/z, gamma = (a + b/z)^2 and
alpha = a^2 - gamma, so that

    I(s) = [alpha/c + beta/(c+1) + gamma * 2F1(1, c; c+1; -z)/c] / (r*q1*a).

The terms cancel heavily (at 60 digits a true 1e-30 came out as 2), so
this is evaluated in mpmath at 400 digits, from the exact binary values
of s, eb and tau2, and checked against a second evaluation at 800
digits.  The channels are those of ``SensorEnsembleConfig.from_snr_db``
from -161 dB, near the lowest channel SNR it accepts, to 300 dB, the top
of what ``load_config`` accepts, and s covers |s| <= 27.3, the kernel's
domain.  ``kernel_accuracy.json`` holds each channel's eb, tau2, s and
I(s) rounded to the nearest double.  mpmath is needed only to
regenerate it, not by the tests.  Regenerate (from the repository root,
in under two minutes on one core) with

    PYTHONPATH=src python -m tests.kernel_accuracy
"""

from __future__ import annotations

import json
from pathlib import Path

from srcloc.signal_model import SensorEnsembleConfig

FIXTURE = Path(__file__).with_name("kernel_accuracy.json")
COMMAND = "PYTHONPATH=src python -m tests.kernel_accuracy"
CHANNEL_SNRS_DB = (
    -161.0, -150.0, -130.0, -100.0, -80.0, -60.0, -40.0, -25.0, -20.0, -15.0, -10.0, 0.0,
    10.0, 20.0, 30.0, 40.0, 60.0, 80.0, 100.0, 150.0, 200.0, 250.0, 300.0,
)
S = (
    -27.3, -25.0, -20.0, -15.0, -10.0, -6.0, -3.0, -1.0, -0.3, 0.0,
    0.3, 1.0, 3.0, 6.0, 10.0, 15.0, 20.0, 25.0, 27.3,
)
DIGITS = 400
CHECK_DIGITS = 800
# agreement required between the two precisions
CHECK_REL_TOL = 1e-30


def closed_form(s: float, eb: float, tau2: float, digits: int):
    """I(s) at the given precision, as an mpmath number."""
    import mpmath

    with mpmath.workdps(digits):
        s, eb, tau2 = mpmath.mpf(s), mpmath.mpf(eb), mpmath.mpf(tau2)
        a, b = 1 / (eb + tau2), 1 / tau2
        r = b - a
        c = a / r
        q1, q0 = mpmath.ncdf(s), mpmath.ncdf(-s)
        z = q0 * b / (q1 * a)
        beta = b * b / z
        gamma = (a + b / z) ** 2
        alpha = a * a - gamma
        value = (alpha / c + beta / (c + 1) + gamma * mpmath.hyp2f1(1, c, c + 1, -z) / c) / (r * q1 * a)
        return +value


def cases() -> list:
    """{"channel_snr_db", "eb", "tau2", "s", "value"} of every channel."""
    out = []
    for snr in CHANNEL_SNRS_DB:
        cfg = SensorEnsembleConfig.from_snr_db(1.0, 0.0, snr)
        values = []
        for s in S:
            value = closed_form(s, cfg.eb, cfg.tau2, DIGITS)
            check = closed_form(s, cfg.eb, cfg.tau2, CHECK_DIGITS)
            if not value > 0 or abs(value - check) > CHECK_REL_TOL * abs(check):
                raise AssertionError(f"{snr:g} dB, s = {s:g}: {DIGITS} digits give {value}, {CHECK_DIGITS} give {check}")
            values.append(float(value))
        out.append({"channel_snr_db": snr, "eb": cfg.eb, "tau2": cfg.tau2, "s": list(S), "value": values})
    return out


def main() -> None:
    FIXTURE.write_text(json.dumps({"command": COMMAND, "digits": DIGITS, "check_digits": CHECK_DIGITS,
                                   "cases": cases()}, indent=1) + "\n")


if __name__ == "__main__":
    main()
