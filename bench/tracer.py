"""Run one srcloc CLI command with a span recorded around every call into
the public functions of its modules.

    python3 bench/tracer.py SPANS.json <srcloc arguments...>

Each public function of geometry, signal_model, likelihood, crlb,
montecarlo, config and cli is replaced by a wrapper in every srcloc
module that holds it by name, so calls made through ``from .x import f``
are seen as well.  Spans (name, start, end, parent) stay in memory and
are written to SPANS.json when the command returns; self times are
derived from them afterwards.  ``streams`` and ``errors`` are not
wrapped.  Only the process that started the command writes spans: pool
workers run the wrapped code too, but their spans are dropped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("geometry", "signal_model", "likelihood", "crlb", "montecarlo", "config", "cli")


class Recorder:
    """Span store and the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.stack: list[int] = []
        self.batches: list[tuple] = []  # (energies, sensors, beta, results) per ML batch

    def wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_idx, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if name == "likelihood.ml_estimate_batch":
                self.batches.append((args[0], args[1].sensors, args[2].beta, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module("srcloc")]
        modules += [importlib.import_module(f"srcloc.{m}") for m in LAYERS]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"srcloc.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    replace[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])

    def dump(self, path: str) -> None:
        batches = [
            {
                "energies": np.asarray(ts, dtype=float).tolist(),
                "sensors": np.asarray(sensors, dtype=float).tolist(),
                "beta": np.asarray(beta, dtype=float).tolist(),
                "loglik": [r.log_likelihood for r in results],
                "converged": [bool(r.converged) for r in results],
            }
            for ts, sensors, beta, results in self.batches
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "batches": batches}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    cli = sys.modules["srcloc.cli"]
    code = cli.main(cli_args)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
