"""Frozen output fingerprint of the command-line front end.

A fixed matrix of srcloc commands, run in process through ``cli.main``
at one worker: ``crlb`` at 0, 10 and 30 dB with common, per-sensor and
fixed thresholds; a 4-geometry, 40-round ``outage``; a tuned and a
fixed ``estimate``, the tuned one with ``--dump-energies``; and
``geometry``.  ``fingerprint.json`` holds the sha256 of every result
file each command writes, ``run_manifest.json`` excepted (it carries
timestamps).  The tests require every command to write the same files
with the same hashes.  Regenerate (from the repository root) with

    PYTHONPATH=src python -m tests.fingerprint

which overwrites ``tests/fingerprint.json`` with the current code's
hashes, so run it only to re-baseline deliberately.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from srcloc import cli

FIXTURE = Path(__file__).with_name("fingerprint.json")
COMMAND = "PYTHONPATH=src python -m tests.fingerprint"
BASE = {"K": 20, "R": 50.0, "R_ex": 2.0, "seed": 11}
POLICIES = (("common", {}), ("per-sensor", {"threshold_mode": "per-sensor"}), ("fixed", {"beta": 4.0}))


def commands() -> list:
    """(label, mode, config, extra flags) of every command, in fixture order."""
    out = []
    for snr in (0.0, 10.0, 30.0):
        for policy, keys in POLICIES:
            out.append((f"crlb {policy} {snr:g} dB", "crlb", {**BASE, "channel_snr_db": snr, **keys}, []))
    outage = {**BASE, "n_geom": 4, "n_mc": 40, "r_t_list": [10.0, 14.0]}
    out.append(("outage", "outage", outage, []))
    estimate = {**BASE, "channel_snr_db": 10.0, "n_mc": 40}
    out.append(("estimate tuned", "estimate", estimate, ["--dump-energies"]))
    out.append(("estimate fixed", "estimate", {**estimate, "beta": 8.0}, []))
    out.append(("geometry", "geometry", BASE, []))
    return out


def fingerprint(workdir: Path) -> dict:
    """label -> {result file: sha256} of every command, run under ``workdir``."""
    runs = {}
    for i, (label, mode, config, flags) in enumerate(commands()):
        path = workdir / f"{i}.config.json"
        path.write_text(json.dumps(config))
        out = workdir / str(i)
        code = cli.main([mode, "--config", str(path), "--out", str(out), "--workers", "1", *flags])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"{label}: exit code {code}")
        runs[label] = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())
            if f.name != "run_manifest.json"
        }
    return runs


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = fingerprint(Path(tmp))
    FIXTURE.write_text(json.dumps({"command": COMMAND, "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
